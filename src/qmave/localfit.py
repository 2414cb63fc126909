"""Local-linear fits: along a candidate index and in full dimension.

Each fit minimises a kernel-weighted loss of local-linear residuals around
an anchor point.  Every fit runs through one loop, `_local_fits`: it cuts
the stacked problems into blocks, takes each block's design ``[1, D/h]``
from the caller's builder, solves it in bandwidth units and returns the
slopes in the units of X.  It holds the one rule for which fits are
usable: the least-squares solve of the weighted design is the rank
screen (NaN where the design fails the solver's rank rule), and the fit
is finite.  `index_fit_batch` and `full_fit_batch` run it on a batch of
anchors and return the kept ones as arrays; `local_linear_index_fit`
and `local_linear_full_fit` run it on one point.  No fit builds a dense
(n, m) or (n, m, d) array.

Both kernels are positive exactly where ``|u| < 1`` (`_in_support`), so
no neighbourhood is found by evaluating a kernel.  Along an index the
rows of an anchor's window are one run of the rows sorted by ``t = X
theta`` (`_index_windows`).  The index fits sort the index values and
responses once per call and read each window by sorted position; the
pooled rows of the index update take their (row, anchor) pairs from the
same runs, a chunk at a time, with each anchor's values repeated over
its window's pairs (`_pair_runs`).  In full dimension the product kernel
is positive on a box, read off the (anchors, n) matrix R of largest
coordinate offsets.  R is never whole: `_box_offsets` yields it a chunk
of rows at a time, in one block reused from chunk to chunk, and the full
fits and the ladder probe keep only what each chunk gives them (the box
pairs, or the box sizes).  A row lies in the box where
``R < h0``.  For h0 > 0 that is ``_in_support(R / h0)`` exactly: IEEE
division is correctly rounded and monotone, so ``R >= h0`` gives ``R /
h0 >= 1``, and ``R < h0`` gives at most ``prev(h0) / h0``, which rounds
below 1.

`_local_fits` holds the one block rule: stacked problems of k offsets run
in blocks of ``_BLOCK_CELLS // L(k + 1)``, sized so that the working set
of a block's whole solve, about six design-sized arrays in the interior
point, fits a core's L2 cache.  All blocks are padded to one width L, the
longest window of all anchors along an index and of the group in full
dimension, by one rule (`_slots`): the slots past a problem's rows repeat
its last row at weight 0.  Pad rows enter the interior point's gap and
the sums, so one pad width keeps the bytes of a single stack; the solver
finishes each problem on its own, so blocks change no byte.  Rows are
gathered by ``np.take`` (the bytes of ``A[rows]`` by a faster path), and
the row indices and offsets die as the design is built, so no full-size
temporary lives beside a design in its solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import KernelSpec, LossSpec, _check_positive, _in_support, kernel_eval
from .errors import (
    ConvergenceError,
    InsufficientLocalDataError,
    InvalidInputError,
)
from .solver import SolverOptions, _solve_ls_batch, _solve_qr_batch

__all__ = [
    "Dataset",
    "LocalFit",
    "local_linear_index_fit",
    "local_linear_full_fit",
]


@dataclass
class Dataset:
    """Observations ``(X, Y)`` with ``X`` of shape (n, d) and ``Y`` (n,).

    A 1-D ``X`` with one entry per response is read as one covariate
    column.  Construction checks only shape and that entries are finite
    real numbers; estimators that need a minimum sample size
    (n >= 2(d+1)) enforce it at their own entry so that small datasets
    remain usable with the utility operations.
    """

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        self.Y = _real_array(self.Y, "Y").ravel()
        X = _real_array(self.X, "X")
        if X.ndim > 2:
            raise InvalidInputError(f"X must be one- or two-dimensional, got shape {X.shape}")
        # a 1-D X with one entry per response is a single covariate column
        self.X = X[:, None] if X.ndim == 1 and X.size == self.Y.size else np.atleast_2d(X)
        n, d = self.X.shape
        if d < 1:
            raise InvalidInputError("X needs at least one covariate column")
        if n < 2:
            raise InvalidInputError(f"need at least two observations, got {n}")
        if self.Y.shape != (n,):
            raise InvalidInputError("Y must have one entry per row of X")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.Y))):
            raise InvalidInputError("observations must be finite")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass
class LocalFit:
    """Level and slope of one local-linear fit.

    ``b`` is a scalar for fits along an index and a length-d vector for
    full-dimensional fits; ``effective_weight`` is the sum of the kernel
    weights actually used.
    """

    a: float
    b: float | np.ndarray
    effective_weight: float


def _real_array(values, name):
    """``values`` as a float array; complex or non-numeric entries raise."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind == "c":
            raise InvalidInputError(f"{name} must be real, got complex entries")
        return np.asarray(arr, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{name} must be numeric: {exc}") from None


def _as_unit(v, name, size=None):
    """``v`` as a flat unit vector; with ``size`` given, also of that length."""
    v = _real_array(v, name).ravel()
    if size is not None and v.size != size:
        raise InvalidInputError(f"{name} must have length {size}, got length {v.size}")
    nrm = np.linalg.norm(v)
    if not np.all(np.isfinite(v)) or abs(nrm - 1.0) > 1e-6:
        raise InvalidInputError(f"{name} must be a finite unit vector")
    return v / nrm


def _single_fit(fits, opts, reason) -> LocalFit:
    """The one fit of a single-problem core call; raises when it was dropped."""
    kept, a, b, effw, complete = fits
    if kept.size == 0:
        raise InsufficientLocalDataError(reason)
    if not complete:
        raise ConvergenceError(
            f"no convergence within {opts.max_iterations} iterations",
            best=np.append(a[0], b[0]),
        )
    return LocalFit(float(a[0]), b[0], float(effw[0]))


def local_linear_index_fit(
    data: Dataset,
    theta,
    x0,
    h: float,
    loss: LossSpec,
    kernel: KernelSpec,
    opts: SolverOptions | None = None,
) -> LocalFit:
    """Local-linear fit of Y on the projected offset ``theta'(X - x0)``.

    Minimises ``sum_i K(theta'(X_i-x0)/h) loss(Y_i - a - b theta'(X_i-x0))``
    over (a, b); rows with zero kernel weight are dropped before solving.
    Raises ``InsufficientLocalDataError`` when `_local_fits` drops the fit.
    """
    theta = _as_unit(theta, "index vector", data.d)
    _check_positive("bandwidth", h)
    opts = opts or SolverOptions()
    T = (data.X - np.asarray(x0, dtype=float).ravel()) @ theta
    rows = np.flatnonzero(_in_support(T / h))
    build = partial(_index_rows, T[rows], data.Y[rows], np.zeros(1), h, kernel)
    count = np.array([rows.size])
    kept, a, B, effw, complete = _local_fits(np.zeros_like(count), count, 2, build, loss, opts, h)
    reason = "no usable local fit: needs weighted index values in general position"
    return _single_fit((kept, a, B[:, 0], effw, complete), opts, reason)


def local_linear_full_fit(
    data: Dataset,
    x0,
    h0: float,
    loss: LossSpec,
    kernel: KernelSpec,
    opts: SolverOptions | None = None,
) -> LocalFit:
    """Local-linear fit of Y on the full offset ``X - x0``.

    Weights come from the product kernel ``prod_l K((X_il - x0_l)/h0)``.
    Raises ``InsufficientLocalDataError`` when `_local_fits` drops the fit.
    """
    _check_positive("bandwidth", h0)
    opts = opts or SolverOptions()
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.shape != (data.d,):
        raise InvalidInputError(f"anchor must have length {data.d}")
    return _single_fit(
        _full_core(data, x0[None], h0, loss, kernel, opts),
        opts,
        f"no usable local fit: needs {data.d + 1} positively-weighted rows "
        "in general position and a finite solution",
    )


def _box_offsets(X, x0):
    """Largest absolute coordinate offset of each row of ``X`` from each
    anchor point of ``x0`` (B, d): the (B, n) matrix R, as ``(lo, Rk)``
    chunks of rows ``lo:lo + len(Rk)``.  The product kernel at bandwidth
    h0 > 0 is positive only in the box ``R < h0`` (exactly
    ``_in_support(R / h0)``: see the module docstring), and exactly there
    unless the product underflows.  A chunk holds at most ``2 *
    _BOX_CELLS`` cells.  Every chunk is written into one block, beside its
    scratch of signed offsets, so a caller must finish with one chunk
    before it takes the next.  Each entry is formed alone, so chunks
    change no byte."""
    B, n = x0.shape[0], X.shape[0]
    step = max(1, 2 * _BOX_CELLS // n)
    R, T = np.empty((2, min(step, B), n))
    cols = np.ascontiguousarray(X.T)  # each pass reads one column contiguously
    for lo in range(0, B, step):
        Rk, Tk = R[: min(step, B - lo)], T[: min(step, B - lo)]
        c = x0[lo : lo + step].T
        np.abs(np.subtract(cols[0], c[0][:, None], out=Rk), out=Rk)
        for col, c0 in zip(cols[1:], c[1:]):
            np.subtract(col, c0[:, None], out=Tk)
            np.maximum(Rk, np.abs(Tk, out=Tk), out=Rk)
        yield lo, Rk


# Anchors per group of full fits: a group's longest box window is the pad
# width of its problems, so groups keep the bytes of their stacks.
_FULL_BLOCK = 256
# Cells per chunk of the pooled rows, of the full fits' weights and of a
# block's window weights in the squared loss's outer step, which stay in
# a core's L2 cache.  A chunk of box offsets holds twice as many,
# and its block with the scratch is 1 MB.  The block's size is chosen for
# glibc, which sets its heap trim threshold to twice the largest mmapped
# block freed so far: a smaller one lets the threshold fall below the
# heap's free top between a fit's stages, and at n=1000 two 512 KB blocks
# cost about 1,500 page faults per fit, where this one costs as few as
# the whole R did.
_BOX_CELLS = 4 * 8192


def _design(D, h):
    """The local design ``[1, D/h]`` of the offsets ``D`` (B, L, k)."""
    Z = np.empty(D.shape[:2] + (D.shape[2] + 1,))
    Z[:, :, 0] = 1.0
    np.divide(D, h, out=Z[:, :, 1:])
    return Z


def _slots(start, count, width):
    """The pad rule of stacked local problems: ``(pos, inside)`` of shape
    (B, width), width at least the longest run.  Slot k of run c is the
    position ``start[c] + k``; the slots past a run (``inside`` False)
    repeat its last position."""
    slot = np.arange(width)
    count = count[:, None]
    return start[:, None] + np.minimum(slot, count - 1), slot < count


# Design cells (problems x rows x columns) of one block of stacked local
# fits, sized by the working set of the whole solve, not by the design
# alone: the interior point holds about six design-sized arrays at once
# (the design, its weighted copy, the Newton step's scaled copy and its
# row buffers), so a block's solve stays within about 1.2 MB, inside a
# 2 MiB L2 cache, and a small batch runs as one block, so it pays the
# solver's per-call costs once.
_BLOCK_CELLS = 3 * 8192


def _local_fits(start, count, p, build, loss, opts, h):
    """The fits of stacked local problems of ``p`` columns, problem c on
    the run of ``count[c]`` positions from ``start[c]``, in blocks of the
    module's block rule.  The caller's ``build(block, pos, inside)`` gives
    a block's ``(Z, Wg, Yg)`` on its `_slots`; the rank screen, then the
    quantile solve, follow.  Returns ``(kept, a, B, effective_weight,
    complete)``: kept problem positions, slopes in the units of X, and
    ``complete`` False when the iteration budget truncated a solve."""
    width = count.max(initial=0)
    step = max(1, _BLOCK_CELLS // max(width * p, 1))
    parts, complete = [(np.empty(0, dtype=np.intp), np.empty((0, p)), np.empty(0))], True
    for lo in range(0, count.size, step):
        block = slice(lo, lo + step)
        Z, Wg, Yg = build(block, *_slots(start[block], count[block], width))
        beta = _solve_ls_batch(Z, Yg, Wg)
        sub = np.flatnonzero(np.all(np.isfinite(beta), axis=1))
        if sub.size < Z.shape[0]:  # copy only when the screen dropped a problem
            beta, Z, Yg, Wg = beta[sub], Z[sub], Yg[sub], Wg[sub]
        if loss.is_quantile:
            beta, _, done = _solve_qr_batch(Z, Yg, Wg, loss.tau, opts)
            complete &= done
        parts.append((lo + sub, beta, np.sum(Wg, axis=1)))
    passed, beta, effw = (np.concatenate(v) for v in zip(*parts))
    ok = np.all(np.isfinite(beta), axis=1)
    return passed[ok], beta[ok, 0], beta[ok, 1:] / h, effw[ok], complete


def _full_core(data, x0, h0, loss, kernel, opts):
    """Product-kernel fits of Y on ``X - x0[c]`` at the anchor points
    ``x0`` (B, d): the fits of `_local_fits` at the B anchors.  A problem
    holds its anchor's box rows ``R < h0`` (`_box_offsets`) of positive
    product weight, in row order, taken from the (anchor, row) pairs of
    the boxes, which are gathered chunk by chunk of R."""
    X, (B, d), n = data.X, x0.shape, data.n
    pairs = (np.flatnonzero(Rk < h0) + lo * n for lo, Rk in _box_offsets(X, x0))
    c, r = np.divmod(np.concatenate(list(pairs)), n)
    w, step = np.empty(r.size), max(1, _BOX_CELLS // d)
    for lo in range(0, r.size, step):  # each weight is formed alone
        U = np.take(X, r[lo : lo + step], axis=0)
        U -= np.take(x0, c[lo : lo + step], axis=0)
        w[lo : lo + step] = np.prod(kernel_eval(kernel, np.divide(U, h0, out=U)), axis=1)
    keep = w > 0
    if not np.all(keep):  # copy only where a product underflowed to 0
        c, r, w = c[keep], r[keep], w[keep]
    count = np.bincount(c, minlength=B)
    build = partial(_box_rows, X, data.Y, x0, r, w, h0)
    return _local_fits(np.cumsum(count) - count, count, d + 1, build, loss, opts, h0)


def _box_rows(X, Y, x0, r, w, h0, block, pos, inside):
    """The `_local_fits` builder of full fits, its data bound by `partial`
    (a closure's cells would keep `_full_core`'s locals alive through the
    solve): slot k of problem c is box pair ``pos = start[c] + k``, of row
    ``r[pos]``, weight ``w[pos]``."""
    gather = r[pos]
    Z = _design(np.take(X, gather, axis=0) - x0[block, None, :], h0)
    return Z, np.where(inside, w[pos], 0.0), Y[gather]


def _index_windows(data, theta, anchors, h):
    """Kernel windows of ``anchors`` along the index ``t = X theta``.

    Returns ``(t, order, lo, hi)``: ``order`` is the stable argsort of
    ``t``, and the rows with positive weight ``K((t_i - t_c)/h)`` at
    anchor c are exactly ``order[lo[c]:hi[c]]``.  Positivity is
    ``|t_i - t_c| / h < 1`` (`_in_support`) and IEEE subtraction and
    division are monotone, so every window is one run of the sorted rows.
    Its edges start at ``searchsorted(t_c -/+ h)`` and then move, one tie
    group at a time, until the support test agrees at both ends.
    """
    t = data.X @ theta
    order = np.argsort(t, kind="stable")
    ts, tc = t[order], t[anchors]
    lo = np.searchsorted(ts, tc - h, side="left")
    hi = np.searchsorted(ts, tc + h, side="right")

    def weighted(k, c):
        return _in_support((ts[k] - tc[c]) / h)

    every, last = np.arange(tc.size), ts.size - 1
    while True:
        grow_lo = every[(lo > 0) & weighted(np.maximum(lo - 1, 0), every)]
        cut_lo = every[~weighted(lo, every)]
        grow_hi = every[(hi <= last) & weighted(np.minimum(hi, last), every)]
        cut_hi = every[~weighted(hi - 1, every)]
        if grow_lo.size + cut_lo.size + grow_hi.size + cut_hi.size == 0:
            return t, order, lo, hi
        lo[grow_lo] = np.searchsorted(ts, ts[lo[grow_lo] - 1], side="left")
        lo[cut_lo] = np.searchsorted(ts, ts[lo[cut_lo]], side="right")
        hi[grow_hi] = np.searchsorted(ts, ts[hi[grow_hi]], side="right")
        hi[cut_hi] = np.searchsorted(ts, ts[hi[cut_hi] - 1], side="left")


def _pair_runs(windows, step):
    """The (row, anchor) pairs of the `_index_windows` ``windows``, window
    by window, as runs ``(pos, span, count)`` of at most ``step`` pairs,
    found by one search per run end: ``np.repeat(v[span], count)`` gives
    each pair's anchor value, ``order[pos]`` its row.  Each pair is formed
    alone, so runs change no byte."""
    lo, size = windows[2], windows[3] - windows[2]
    end = np.cumsum(size)
    start = end - size
    shift = lo - start  # a pair's sorted position less its place k among the pairs
    total = int(end[-1]) if end.size else 0
    for k0 in range(0, total, step):
        k1 = min(k0 + step, total)
        first, last = np.searchsorted(end, (k0, k1 - 1), side="right")
        span = slice(first, last + 1)
        count = np.minimum(end[span], k1) - np.maximum(start[span], k0)
        yield np.arange(k0, k1) + np.repeat(shift[span], count), span, count


def _index_rows(ts, Ys, tc, h, kernel, block, pos, inside):
    """The `_local_fits` builder of fits along an index, its data bound by
    `partial`: slot k of problem c is the design row ``[1, (ts[pos] -
    tc[c]) / h]``, with response ``Ys[pos]``, at ``pos = start[c] + k``."""
    Z = _design((np.take(ts, pos) - tc[block, None])[:, :, None], h)
    return Z, np.where(inside, kernel_eval(kernel, Z[:, :, 1]), 0.0), np.take(Ys, pos)


def index_fit_batch(data, theta, anchors, h, loss, kernel):
    """Local-linear index fits at ``X[anchors]``, through `_local_fits`.

    Returns ``(kept_anchor_indices, a, b, effective_weight)`` in the order
    of ``anchors``; anchors whose window (`_index_windows`) fails the rank
    screen or gives a non-finite solution are silently omitted.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    anchors = np.asarray(anchors, dtype=int)
    t, order, lo, hi = _index_windows(data, theta, anchors, h)
    build = partial(_index_rows, t[order], data.Y[order], t[anchors], h, kernel)
    kept, a, B, effw, _ = _local_fits(lo, hi - lo, 2, build, loss, SolverOptions(), h)
    return anchors[kept], a, B[:, 0], effw


def full_fit_batch(data, anchors, h0, loss, kernel):
    """Full-dimensional local fits at ``X[anchors]``, in groups of
    ``_FULL_BLOCK`` anchors.

    Returns ``(kept_anchor_indices, a, B, effective_weight)`` with one
    slope row of ``B`` per kept anchor; anchors whose window fails the rank
    screen of `_local_fits` or gives a non-finite solution are omitted.
    """
    _check_positive("bandwidth", h0)
    opts = SolverOptions()
    anchors = np.asarray(anchors, dtype=int)
    parts = [(anchors[:0], np.empty(0), np.empty((0, data.d)), np.empty(0))]
    for lo in range(0, anchors.size, _FULL_BLOCK):
        block = anchors[lo : lo + _FULL_BLOCK]
        kept, a, B, effw, _ = _full_core(data, data.X[block], h0, loss, kernel, opts)
        parts.append((block[kept], a, B, effw))
    idx, a, B, effw = zip(*parts)
    return np.concatenate(idx), np.concatenate(a), np.vstack(B), np.concatenate(effw)
