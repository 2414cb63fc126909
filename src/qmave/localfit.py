"""Local-linear fits: along a candidate index and in full dimension.

Each fit minimises a kernel-weighted loss of local-linear residuals around
an anchor point.  Every kind of fit ends in one core, `_local_core`, which
solves it in bandwidth units, on ``[1, (X - x0)/h]``, returns its slopes in
the units of X, and holds the one rule for which fits are usable: the
least-squares solve of that weighted design is the rank screen (it is NaN
where the design fails the solver's rank rule), and the fit is finite.
`index_fit_batch` and `full_fit_batch` run it on a batch of anchors and
return the kept ones as arrays; `local_linear_index_fit` and
`local_linear_full_fit` run it on one point.  No fit builds a dense (n, m)
or (n, m, d) array.

Both kernels are positive exactly where ``|u| < 1`` (`_in_support`), so
no neighbourhood is found by evaluating a kernel.  Along an index the
rows of an anchor's window are one run of the rows sorted by ``t = X
theta`` (`_index_windows`); the index fits read each window in that
order, and the outer problem takes its (row, anchor) pairs from the same
runs (`_index_pairs`).  In full dimension the product kernel is positive
on a box, so the full fits and the ladder probe work on blocks of anchors
with one (block, n) matrix of largest coordinate offsets each
(`_box_blocks`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import KernelSpec, LossSpec, _in_support, kernel_eval
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
    v = np.asarray(v, dtype=float).ravel()
    if size is not None and v.size != size:
        raise InvalidInputError(f"{name} must have length {size}, got length {v.size}")
    nrm = np.linalg.norm(v)
    if not np.all(np.isfinite(v)) or abs(nrm - 1.0) > 1e-6:
        raise InvalidInputError(f"{name} must be a finite unit vector")
    return v / nrm


def _check_bandwidth(h):
    if not (np.isfinite(h) and h > 0):
        raise InvalidInputError(f"bandwidth must be finite and positive, got {h}")


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
    Raises ``InsufficientLocalDataError`` when `_local_core` drops the fit.
    """
    theta = _as_unit(theta, "index vector", data.d)
    _check_bandwidth(h)
    opts = opts or SolverOptions()
    T = (data.X - np.asarray(x0, dtype=float).ravel()) @ theta
    rows = np.flatnonzero(_in_support(T / h))
    T = T[None, rows]
    kept, a, B, effw, complete = _local_core(
        T[:, :, None], kernel_eval(kernel, T / h), data.Y[None, rows], h, loss, opts
    )
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
    Raises ``InsufficientLocalDataError`` when `_local_core` drops the fit.
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


def _local_core(D, Wg, Yg, h, loss, opts):
    """Fits of ``Yg`` on the offsets ``D`` with weights ``Wg``, one problem
    per row of these (B, L[, k]) arrays, solved in bandwidth units on the
    design ``[1, D/h]``: the one rule for which local fits are usable.  The
    least-squares solve is the rank screen: `_solve_ls_batch` gives NaN
    coefficients where that design fails the solver's rank rule, and a
    problem is kept when its coefficients are finite.  The squared loss
    returns them; the quantile loss solves the kept problems again under
    its loss.  Returns ``(kept, a, B, effective_weight, complete)``: the
    kept positions and their (kept, k) slopes in the units of ``D``;
    ``complete`` is False when the iteration budget truncated the solve.
    """
    Z = np.concatenate([np.ones(D.shape[:2] + (1,)), D / h], axis=2)
    beta, complete = _solve_ls_batch(Z, Yg, Wg), True
    sub = np.flatnonzero(np.all(np.isfinite(beta), axis=1))
    if sub.size < Z.shape[0]:  # copy only when the screen dropped a problem
        beta, Z, Yg, Wg = beta[sub], Z[sub], Yg[sub], Wg[sub]
    if loss.is_quantile:
        beta, _, complete = _solve_qr_batch(Z, Yg, Wg, loss.tau, opts)
    ok = np.all(np.isfinite(beta), axis=1)
    return sub[ok], beta[ok, 0], beta[ok, 1:] / h, np.sum(Wg, axis=1)[ok], complete


def _full_core(data, x0, R, h0, loss, kernel, opts):
    """Product-kernel fits of Y on ``X - x0[c]`` at the anchor points
    ``x0`` (B, d) with `_box_offsets` R, through `_local_core`.  A problem
    holds its anchor's rows of positive weight (the box ``|R / h0| < 1``
    less rows whose product underflows to 0), then its first other rows,
    each part in row order, up to the longest L."""
    X = data.X
    box = _in_support(R / h0)
    c, r = np.nonzero(box)
    under = np.prod(kernel_eval(kernel, (X[r] - x0[c]) / h0), axis=1) == 0
    box[c[under], r[under]] = False
    gather = np.argsort(~box, axis=1, kind="stable")[:, : np.count_nonzero(box, axis=1).max()]
    D = X[gather] - x0[:, None, :]
    Wg = np.prod(kernel_eval(kernel, D / h0), axis=2)
    return _local_core(D, Wg, data.Y[gather], h0, loss, opts)


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


def _index_pairs(data, theta, anchors, h):
    """(row, anchor) pairs with positive index-kernel weight, window by
    window.  Returns ``(t, rows, cols)`` with ``t = X theta`` and ``cols``
    positions in ``anchors``."""
    t, order, lo, hi = _index_windows(data, theta, anchors, h)
    count = hi - lo
    cols = np.repeat(np.arange(anchors.size), count)
    pos = np.arange(cols.size) + np.repeat(lo - (np.cumsum(count) - count), count)
    return t, order[pos], cols


def _index_problems(data, theta, anchors, h):
    """The stacked problems of `index_fit_batch`: ``(gather, Tg,
    inside)``, one row per anchor (each anchor lies in its own window).
    Slot k of anchor c is the row ``gather[c, k] = order[lo + k]`` of its
    window, in index order, at index offset ``Tg[c, k]``; the slots past
    the window (``inside`` False) repeat its last row."""
    t, order, lo, hi = _index_windows(data, theta, anchors, h)
    count = (hi - lo)[:, None]
    slot = np.arange(count.max(initial=0))
    gather = order[lo[:, None] + np.minimum(slot, count - 1)]
    return gather, t[gather] - t[anchors, None], slot < count


def index_fit_batch(data, theta, anchors, h, loss, kernel):
    """Local-linear index fits at ``X[anchors]``, all anchors at once.

    Returns ``(kept_anchor_indices, a, b, effective_weight)`` in the order
    of ``anchors``; anchors whose window fails the rank screen of
    `_local_core` (or gives a non-finite solution) are silently omitted.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    anchors = np.asarray(anchors, dtype=int)
    gather, Tg, inside = _index_problems(data, theta, anchors, h)
    Wg = np.where(inside, kernel_eval(kernel, Tg / h), 0.0)
    kept, a, B, effw, _ = _local_core(Tg[:, :, None], Wg, data.Y[gather], h, loss, SolverOptions())
    return anchors[kept], a, B[:, 0], effw


def full_fit_batch(data, anchors, h0, loss, kernel):
    """Full-dimensional local fits at ``X[anchors]``, anchors in blocks.

    Returns ``(kept_anchor_indices, a, B, effective_weight)`` where ``B``
    has one slope row per kept anchor.  Anchors whose window fails the
    rank screen of `_local_core` or gives a non-finite solution are
    omitted.
    """
    opts = SolverOptions()
    anchors = np.asarray(anchors, dtype=int)
    parts = [(anchors[:0], np.empty(0), np.empty((0, data.d)), np.empty(0))]
    for block, R in _box_blocks(data.X, anchors):
        kept, a, B, effw, _ = _full_core(data, data.X[block], R, h0, loss, kernel, opts)
        parts.append((block[kept], a, B, effw))
    idx, a, B, effw = zip(*parts)
    return np.concatenate(idx), np.concatenate(a), np.vstack(B), np.concatenate(effw)
