"""Local-linear fits: along a candidate index and in full dimension.

Each fit minimises a kernel-weighted loss of local-linear residuals around
an anchor point and delegates the actual minimisation to the stacked
solvers in ``qmave.solver``.  One core per kind of fit solves a whole
batch of anchors at once: `index_fit_batch` and `full_fit_batch` return
its kept anchors as arrays, and the single-anchor fits
`local_linear_index_fit` and `local_linear_full_fit` are thin wrappers
that run it on one anchor.  No fit builds a dense (n, m) or (n, m, d)
array; the neighbourhoods hold the same rows as that dense construction.

Along an index the neighbourhoods are sorted windows: the rows with
positive kernel weight at an anchor are one run of the rows sorted by
``t = X theta`` (`_index_windows`).  The index fits read each window in
that order, and the outer problem and the objective take their (row,
anchor) pairs from the same runs (`_index_pairs`).  In full dimension the
product kernel is positive on a box, so the full fits and the ladder
probe work on blocks of anchors with one (block, n) matrix of largest
coordinate offsets each (`_box_blocks`); full fits keep the dense bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import KernelSpec, LossSpec, kernel_eval
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

# Relative eigenvalue floor below which a weighted local design is treated
# as not being in general position.
_RANK_RTOL = 1e-10


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


def _unit_or_raise(theta, d):
    theta = np.asarray(theta, dtype=float).ravel()
    if theta.shape != (d,):
        raise InvalidInputError(f"index vector must have length {d}")
    if not np.all(np.isfinite(theta)) or abs(np.linalg.norm(theta) - 1.0) > 1e-8:
        raise InvalidInputError("index vector must be unit-norm")
    return theta


def _check_bandwidth(h):
    if not (np.isfinite(h) and h > 0):
        raise InvalidInputError(f"bandwidth must be finite and positive, got {h}")


def _single_fit(fits, opts, reason) -> LocalFit:
    """The one fit of a single-column core call; raises when it was dropped."""
    cols, a, b, effw, complete = fits
    if cols.size == 0:
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
    """
    theta = _unit_or_raise(theta, data.d)
    _check_bandwidth(h)
    opts = opts or SolverOptions()
    x0 = np.asarray(x0, dtype=float).ravel()
    T = (data.X - x0) @ theta
    W = kernel_eval(kernel, T / h)
    rows = np.flatnonzero(W > 0)
    reason = (
        "no usable local fit: needs 2 distinct positively-weighted index "
        "values and a finite solution"
    )
    if rows.size < 2 or not T[rows].max() > T[rows].min():
        raise InsufficientLocalDataError(reason)
    fits = _index_core(T[None, rows], W[None, rows], data.Y[None, rows], loss, opts)
    return _single_fit(fits, opts, reason)


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
    Raises ``InsufficientLocalDataError`` when fewer than d+1 rows in
    general position carry positive weight.
    """
    _check_bandwidth(h0)
    opts = opts or SolverOptions()
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.shape != (data.d,):
        raise InvalidInputError(f"anchor must have length {data.d}")
    return _single_fit(
        _full_core(data, x0[None], _box_offsets(data.X, x0[None]), h0, loss, kernel, opts),
        opts,
        f"no usable local fit: needs {data.d + 1} positively-weighted rows "
        "in general position and a finite solution",
    )


def _box_offsets(X, x0):
    """Largest absolute coordinate offset of each row of ``X`` from each
    anchor point of ``x0`` (B, d), as a (B, n) matrix: the product kernel
    at bandwidth h0 is positive only where the kernel of this offset over
    h0 is, and exactly there unless the product underflows."""
    R, T = np.zeros((x0.shape[0], X.shape[0])), np.empty((x0.shape[0], X.shape[0]))
    for col, c0 in zip(X.T, x0.T):
        np.subtract(col, c0[:, None], out=T)
        np.maximum(R, np.abs(T, out=T), out=R)
    return R


# Anchors per block of full fits and of the ladder probe: bounds the
# (block, n) box offsets.
_FULL_BLOCK = 256


def _box_blocks(X, anchors):
    """``(block, R)`` for consecutive blocks of at most ``_FULL_BLOCK``
    anchors, with R the block's `_box_offsets`."""
    for start in range(0, anchors.size, _FULL_BLOCK):
        block = anchors[start : start + _FULL_BLOCK]
        yield block, _box_offsets(X, X[block])


def _solve_batch(Z, y, w, loss, opts):
    """Stacked solve under ``loss``; returns ``(beta, complete)``."""
    if loss.is_quantile:
        beta, _, complete = _solve_qr_batch(Z, y, w, loss.tau, opts)
        return beta, complete
    return _solve_ls_batch(Z, y, w, opts), True


def _index_core(Tg, Wg, Yg, loss, opts):
    """Fits of the gathered responses ``Yg`` on the gathered index offsets
    ``Tg`` with weights ``Wg``, one problem per row of these (B, L)
    arrays.  Returns ``(kept, a, b, effective_weight, complete)`` with
    ``kept`` the rows whose fit is finite; ``complete`` is False when the
    iteration budget truncated the solve."""
    Zb = np.stack([np.ones_like(Tg), Tg], axis=2)
    beta, complete = _solve_batch(Zb, Yg, Wg, loss, opts)
    ok = np.all(np.isfinite(beta), axis=1)
    return np.flatnonzero(ok), beta[ok, 0], beta[ok, 1], np.sum(Wg, axis=1)[ok], complete


def _full_core(data, x0, R, h0, loss, kernel, opts):
    """Product-kernel fits of Y on ``X - x0[c]`` at the anchor points
    ``x0`` (B, d) with `_box_offsets` R; returns as `_index_core` does,
    keeping anchors with d+1 weighted rows in general position and a
    finite fit.  A problem holds its anchor's rows of positive weight (the
    box ``K(R / h0) > 0`` less rows whose product underflows to 0), then
    its first other rows, each part in row order, up to the longest L."""
    X, d = data.X, data.d
    box = kernel_eval(kernel, R / h0) > 0
    c, r = np.nonzero(box)
    under = np.prod(kernel_eval(kernel, (X[r] - x0[c]) / h0), axis=1) == 0
    box[c[under], r[under]] = False
    count = np.count_nonzero(box, axis=1)
    cols = np.flatnonzero(count >= d + 1)
    gather = np.argsort(~box[cols], axis=1, kind="stable")[:, : count[cols].max(initial=0)]
    D = X[gather] - x0[cols, None, :]
    Wg = np.prod(kernel_eval(kernel, D / h0), axis=2)
    Zb = np.concatenate([np.ones(gather.shape + (1,)), D], axis=2)
    eigs = np.linalg.eigvalsh(np.matmul(Zb.transpose(0, 2, 1), Zb * Wg[:, :, None]))
    sub = np.flatnonzero(eigs[:, 0] > _RANK_RTOL * eigs[:, -1])
    if sub.size == 0:
        return sub, np.empty(0), np.empty((0, d)), np.empty(0), True
    Wg = Wg[sub]
    beta, complete = _solve_batch(Zb[sub], data.Y[gather[sub]], Wg, loss, opts)
    ok = np.all(np.isfinite(beta), axis=1)
    return cols[sub[ok]], beta[ok, 0], beta[ok, 1:], np.sum(Wg, axis=1)[ok], complete


def _index_windows(data, theta, anchors, h, kernel):
    """Kernel windows of ``anchors`` along the index ``t = X theta``.

    Returns ``(t, order, lo, hi)``: ``order`` is the stable argsort of
    ``t``, and the rows with positive weight ``K((t_i - t_c)/h)`` at
    anchor c are exactly ``order[lo[c]:hi[c]]``.  Positivity is monotone
    in ``|t_i - t_c|`` and IEEE subtraction and division are monotone,
    so every window is one run of the sorted rows.  Its edges start at
    ``searchsorted(t_c -/+ h)`` and then move, one tie group at a time,
    until the kernel test on ``(t_i - t_c) / h`` agrees at both ends.
    """
    t = data.X @ theta
    order = np.argsort(t, kind="stable")
    ts, tc = t[order], t[anchors]
    lo = np.searchsorted(ts, tc - h, side="left")
    hi = np.searchsorted(ts, tc + h, side="right")

    def weighted(k, c):
        return kernel_eval(kernel, (ts[k] - tc[c]) / h) > 0

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


def _index_pairs(data, theta, anchors, h, kernel):
    """(row, anchor) pairs with positive index-kernel weight, window by
    window.  Returns ``(t, rows, cols)`` with ``t = X theta`` and ``cols``
    positions in ``anchors``."""
    t, order, lo, hi = _index_windows(data, theta, anchors, h, kernel)
    count = hi - lo
    cols = np.repeat(np.arange(anchors.size), count)
    pos = np.arange(cols.size) + np.repeat(lo - (np.cumsum(count) - count), count)
    return t, order[pos], cols


def _index_problems(data, theta, anchors, h, kernel):
    """The stacked problems of `index_fit_batch`: ``(cols, gather, Tg,
    Wg)`` for the usable anchors ``anchors[cols]``.  Slot k of anchor c is
    the row ``gather[c, k] = order[lo + k]`` of its window, in index
    order; the slots past the window repeat its last row at zero weight."""
    t, order, lo, hi = _index_windows(data, theta, anchors, h, kernel)
    ts, tc = t[order], t[anchors]
    cols = np.flatnonzero((hi - lo >= 2) & (ts[hi - 1] - tc > ts[lo] - tc))
    lo, count = lo[cols, None], (hi - lo)[cols, None]
    slot = np.arange(count.max() if cols.size else 0)
    gather = order[lo + np.minimum(slot, count - 1)]
    Tg = t[gather] - tc[cols, None]
    return cols, gather, Tg, np.where(slot < count, kernel_eval(kernel, Tg / h), 0.0)


def index_fit_batch(data, theta, anchors, h, loss, kernel, opts=None):
    """Local-linear index fits at ``X[anchors]``, all anchors at once.

    Returns ``(kept_anchor_indices, a, b, effective_weight)`` with anchors
    lacking two distinct weighted index values (or producing non-finite
    solutions) silently omitted, in the same order as ``anchors``.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    anchors = np.asarray(anchors, dtype=int)
    cols, gather, Tg, Wg = _index_problems(data, theta, anchors, h, kernel)
    if cols.size == 0:
        return anchors[:0], np.empty(0), np.empty(0), np.empty(0)
    kept, a, b, effw, _ = _index_core(Tg, Wg, data.Y[gather], loss, opts or SolverOptions())
    return anchors[cols[kept]], a, b, effw


def full_fit_batch(data, anchors, h0, loss, kernel, opts=None):
    """Full-dimensional local fits at ``X[anchors]``, anchors in blocks.

    Returns ``(kept_anchor_indices, a, B, effective_weight)`` where ``B``
    has one slope row per kept anchor.  Anchors with too few weighted
    rows, a rank-deficient window or a non-finite solution are omitted.
    """
    opts = opts or SolverOptions()
    anchors = np.asarray(anchors, dtype=int)
    parts = [(anchors[:0], np.empty(0), np.empty((0, data.d)), np.empty(0))]
    for block, R in _box_blocks(data.X, anchors):
        cols, a, B, effw, _ = _full_core(data, data.X[block], R, h0, loss, kernel, opts)
        parts.append((block[cols], a, B, effw))
    idx, a, B, effw = zip(*parts)
    return np.concatenate(idx), np.concatenate(a), np.vstack(B), np.concatenate(effw)
