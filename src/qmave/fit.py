"""Alternating estimation of the index direction.

Each iteration performs two steps: the inner step (`inner_step`) refits
a local-linear model at every untrimmed anchor along the current index,
and the outer step pools all (observation, anchor) pairs into one
weighted linear regression whose solution, normalised to unit length,
becomes the next index; for the squared loss, from normal equations
summed over chunks of those pairs.  Iteration stops when successive
indices agree up to sign within ``tol``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    BandwidthRule,
    KernelSpec,
    LossSpec,
    _check_count,
    _check_positive,
    coordinate_dispersion,
    default_bandwidth,
    index_dispersion,
    kernel_eval,
)
from .errors import (
    DegenerateDirectionError,
    DegenerateProblemError,
    DegenerateUpdateError,
    InsufficientDataError,
    InvalidInputError,
    QmaveError,
)
from .initial import TrimSpec, ade_initial_estimate, trim_mask
from .localfit import (
    _BOX_CELLS,
    Dataset,
    _as_unit,
    _box_offsets,
    _index_windows,
    _pair_runs,
    index_fit_batch,
)
from .solver import (
    WeightedRegressionProblem,
    _gram_batch,
    _solve_normal,
    solve_weighted_qr,
)

__all__ = [
    "QmaveConfig",
    "IndexFit",
    "inner_step",
    "outer_problem",
    "outer_step",
    "eq_objective",
    "qmave_fit",
    "estimation_error",
]

# Bandwidth escalation ladder for the automatic initial estimate: the
# rate-rule h0 can leave full-dimensional windows empty at moderate n, so
# the bandwidth is widened geometrically until enough anchors fit.
_INIT_LADDER = (1.0, 1.5, 2.25, 3.375, 5.0625, 7.59375)


@dataclass
class QmaveConfig:
    """Configuration of the alternating fit.

    ``h=None`` selects the rate-default bandwidth (computed once from the
    initial index values and held fixed across iterations); ``init=None``
    selects the automatic average-derivative initial estimate.
    """

    loss: LossSpec = field(default_factory=lambda: LossSpec.quantile(0.5))
    kernel: KernelSpec = field(default_factory=KernelSpec.epanechnikov)
    h: float | None = None
    trim: TrimSpec = field(default_factory=TrimSpec)
    tol: float = 1e-4
    max_iter: int = 50
    init: np.ndarray | None = None

    def __post_init__(self):
        for name, kind in (("loss", LossSpec), ("kernel", KernelSpec), ("trim", TrimSpec)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise InvalidInputError(f"{name} must be a {kind.__name__}, got {value!r}")
        _check_positive("tol", self.tol)
        _check_count("max_iter", self.max_iter)
        if self.h is not None:
            _check_positive("bandwidth", self.h)


@dataclass
class IndexFit:
    """Fitted unit index with the iteration history."""

    theta: np.ndarray
    iterations: int
    converged: bool
    theta_trace: list
    objective_trace: list


def estimation_error(theta_hat, theta_0) -> float:
    """Sign-invariant Euclidean distance between unit index vectors."""
    a = _as_unit(theta_hat, "theta_hat")
    b = _as_unit(theta_0, "theta_0", a.size)
    return float(min(np.linalg.norm(a - b), np.linalg.norm(a + b)))


def resolve_bandwidth(data: Dataset, theta, cfg: QmaveConfig) -> float:
    """cfg.h if given, otherwise the index-stage default bandwidth scaled
    by the dispersion of the current index values."""
    if cfg.h is not None:
        return float(cfg.h)
    scale = index_dispersion(data.X @ np.asarray(theta, dtype=float))
    return default_bandwidth(BandwidthRule.index(), data.n, scale)


def inner_step(data: Dataset, theta, cfg: QmaveConfig):
    """Local-linear fits along ``theta`` at every untrimmed anchor.

    Returns the arrays ``(anchors, a, b, effective_weight)`` of
    ``index_fit_batch``, one entry per kept anchor in increasing anchor
    order; anchors with too little local data are dropped for this
    iteration.
    """
    theta = _as_unit(theta, "theta", data.d)
    h = resolve_bandwidth(data, theta, cfg)
    anchors = np.flatnonzero(trim_mask(data, cfg.trim))
    idx, a, b, effw = index_fit_batch(data, theta, anchors, h, cfg.loss, cfg.kernel)
    if idx.size < 2:
        raise InsufficientDataError(
            f"only {idx.size} anchors admit a local fit at h={h:.4g}"
        )
    return idx, a, b, effw


def _pooled_rows(data: Dataset, theta, fits, cfg: QmaveConfig):
    """``(count, chunks)``: the number of pooled rows of the index update,
    and a generator of their ``(design, response, weight)`` in L2-sized
    runs of ``_BOX_CELLS // d`` rows, each formed from the windows when it
    is needed; each entry is formed alone, so runs change no byte.  One
    row per (i, j) pair of `_pair_runs`: response ``Y_i - a_j``, design
    ``b_j (X_i - X_j)``, weight ``K(theta'(X_i-X_j)/h)``, with (a, b) from
    the ``inner_step`` fits, read by sorted position and by anchor repeat."""
    theta = _as_unit(theta, "theta", data.d)
    h = resolve_bandwidth(data, theta, cfg)
    j, a, b, _ = fits
    t, order, lo, hi = windows = _index_windows(data, theta, j, h)
    ts, Xs, Ys = t[order], np.take(data.X, order, axis=0), data.Y[order]
    tj, Xj = t[j], np.take(data.X, j, axis=0)
    step = max(1, _BOX_CELLS // data.d)

    def chunks():
        for pos, span, count in _pair_runs(windows, step):
            def rep(v):  # the anchor value of each pair
                return np.repeat(v[span], count, axis=0)

            W = kernel_eval(cfg.kernel, (np.take(ts, pos) - rep(tj)) / h)
            design = np.take(Xs, pos, axis=0)
            design -= rep(Xj)
            design *= rep(b)[:, None]
            yield design, np.take(Ys, pos) - rep(a), W

    return int(np.sum(hi - lo)), chunks()


# Pooled rows can overflow where the inputs do not: a far response minus
# a far local level, or a large slope times a far offset.
_POOLED_OVERFLOW = "pooled rows are not finite: Y_i - a_j or b_j (X_i - X_j) overflows"


def outer_problem(data: Dataset, theta, fits, cfg: QmaveConfig) -> WeightedRegressionProblem:
    """Pooled regression of the index update: `_pooled_rows` as one problem.
    Rows that are not finite raise ``DegenerateProblemError``."""
    count, chunks = _pooled_rows(data, theta, fits, cfg)
    design, response, weight = np.empty((count, data.d)), np.empty(count), np.empty(count)
    lo = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for D, r, w in chunks:
            hi = lo + r.size
            design[lo:hi], response[lo:hi], weight[lo:hi] = D, r, w
            lo = hi
    if not (np.all(np.isfinite(design)) and np.all(np.isfinite(response))):
        raise DegenerateProblemError(_POOLED_OVERFLOW)
    return WeightedRegressionProblem(design, response, weight, cfg.loss)


def _squared_sums(data: Dataset, theta, fits, cfg: QmaveConfig, normal: bool):
    """The squared-loss pooled objective at ``theta`` and, if ``normal``,
    the (1, d, d) Gram and (1, d) right-hand side of the index update,
    summed over the chunks of `_pooled_rows`.  Rows that are not finite
    make their chunk's objective so, and raise ``DegenerateProblemError``."""
    theta = np.asarray(theta, dtype=float).ravel()
    objective, gram, rhs = 0.0, np.zeros((1, data.d, data.d)), np.zeros((1, data.d))
    with np.errstate(over="ignore", invalid="ignore"):
        for Z, y, w in _pooled_rows(data, theta, fits, cfg)[1]:
            r = y - Z @ theta
            part = float(np.sum(w * (r * r)))
            if not np.isfinite(part) and not (np.all(np.isfinite(Z)) and np.all(np.isfinite(y))):
                raise DegenerateProblemError(_POOLED_OVERFLOW)
            objective += part
            if normal:
                g, r = _gram_batch(Z[None], y[None], w[None])
                gram, rhs = gram + g, rhs + r
    return objective, gram, rhs


def _outer(data: Dataset, theta, fits, cfg: QmaveConfig):
    """``(objective, new)``: the pooled objective at ``theta`` and the next
    index, from one pass over the pooled rows; no pooled problem outlives it."""
    j, _, b, _ = fits
    if j.size == 0:
        raise InsufficientDataError("no local fits supplied to the outer step")
    if np.all(b == 0):
        raise DegenerateUpdateError("all local slopes are zero")
    try:
        if cfg.loss.is_quantile:
            problem = outer_problem(data, theta, fits, cfg)
            beta, objective = solve_weighted_qr(problem), problem.objective(theta)
        else:
            objective, gram, rhs = _squared_sums(data, theta, fits, cfg, normal=True)
            beta = _solve_normal(gram, rhs)
    except DegenerateProblemError as exc:
        raise DegenerateUpdateError(str(exc)) from exc
    nrm = float(np.linalg.norm(beta))
    if not np.isfinite(nrm) or nrm == 0.0:
        raise DegenerateUpdateError("index update has no usable direction")
    new = beta / nrm
    if float(new @ np.asarray(theta, dtype=float)) < 0:
        new = -new
    return objective, new


def outer_step(data: Dataset, theta, fits, cfg: QmaveConfig) -> np.ndarray:
    """One global index update from the ``inner_step`` tuple ``fits``:
    solve the pooled regression, normalise, and align the sign with the
    incoming ``theta``."""
    return _outer(data, theta, fits, cfg)[1]


def eq_objective(data: Dataset, theta, fits, cfg: QmaveConfig) -> float:
    """Pooled local-fit objective at ``theta`` given the fitted (a_j, b_j)
    of the ``(anchors, a, b, effective_weight)`` tuple ``fits``: the
    objective of `outer_problem` (or `_squared_sums`) at ``theta``,
    ``sum_{i,j} K(theta'(X_i-X_j)/h) loss(Y_i - a_j - b_j (X_i-X_j)'theta)``."""
    if cfg.loss.is_quantile:
        return outer_problem(data, theta, fits, cfg).objective(theta)
    return _squared_sums(data, theta, fits, cfg, normal=False)[0]


def _median_window_count(data: Dataset, anchors, h0s) -> np.ndarray:
    """Median over anchors of the rows with positive product-kernel weight,
    one median per bandwidth in ``h0s``, for either kernel.

    The product kernel is positive exactly where the largest coordinate
    offset is below h0 (`localfit._box_offsets`), so one pass over chunks
    of those offsets counts every bandwidth.
    """
    counts = np.empty((len(h0s), len(anchors)), dtype=np.intp)
    for lo, Rk in _box_offsets(data.X, data.X[anchors]):
        for row, h0 in zip(counts, h0s):
            row[lo : lo + len(Rk)] = np.count_nonzero(Rk < h0, axis=1)
    return np.median(counts, axis=1)


def _auto_init(data: Dataset, cfg: QmaveConfig) -> np.ndarray:
    """Average-derivative initial estimate with bandwidth escalation.

    The rate-rule bandwidth leaves full-dimensional windows with barely
    d+1 points at moderate n, which makes the local slopes interpolation
    noise; the ladder widens h0 until the median window holds enough
    points to damp the slope variance."""
    base = default_bandwidth(
        BandwidthRule.full_dim(data.d), data.n, coordinate_dispersion(data.X)
    )
    anchors = np.flatnonzero(trim_mask(data, cfg.trim))
    if anchors.size == 0:
        raise InsufficientDataError("trimming removed every anchor point")
    target = max(4 * (data.d + 1), 24)
    counts = _median_window_count(data, anchors, [base * mult for mult in _INIT_LADDER])
    enough = np.flatnonzero(counts >= target)
    start = int(enough[0]) if enough.size else int(np.argmax(counts))
    for k in range(start, len(_INIT_LADDER)):
        try:
            return ade_initial_estimate(
                data, cfg.loss, base * _INIT_LADDER[k], cfg.trim, cfg.kernel
            ).theta
        except (InsufficientDataError, DegenerateDirectionError) as exc:
            last = exc
    raise type(last)(
        "automatic initialisation failed: no bandwidth in the escalation "
        f"ladder gave an initial direction; at the widest: {last}"
    ) from last


def _check_covariates(X) -> None:
    """Reject covariates that leave the index unidentified: a constant
    column, columns that are exactly collinear after centring, or a column
    on a scale whose spread `coordinate_dispersion` cannot represent."""
    constant = np.flatnonzero(np.ptp(X, axis=0) == 0)
    if constant.size:
        raise InvalidInputError(f"covariate column {int(constant[0])} is constant")
    coordinate_dispersion(X)
    rank = int(np.linalg.matrix_rank(X - X.mean(axis=0)))
    if rank < X.shape[1]:
        raise InvalidInputError(
            f"covariate columns are collinear after centring: rank {rank} "
            f"of {X.shape[1]} columns"
        )


def qmave_fit(data: Dataset, cfg: QmaveConfig | None = None) -> IndexFit:
    """Alternate `inner_step` and the outer step until the index stabilises.

    The bandwidth is resolved once from the initial index and held fixed
    across iterations.  On hitting ``max_iter`` without convergence the
    lowest-objective iterate is returned with ``converged=False``.
    Deterministic: no internal randomness.  A constant response, a
    constant covariate column, or columns exactly collinear after
    centring raise ``InvalidInputError``.
    """
    cfg = cfg or QmaveConfig()
    if data.n < 2 * (data.d + 1):
        raise InsufficientDataError(
            f"need n >= 2(d+1) = {2 * (data.d + 1)} observations, got {data.n}"
        )
    if np.ptp(data.Y) == 0:
        raise InvalidInputError("response Y is constant: no index to estimate")
    _check_covariates(data.X)
    if cfg.init is not None:
        theta = _as_unit(cfg.init, "init", data.d)
    else:
        theta = _auto_init(data, cfg)
    run = replace(cfg, h=resolve_bandwidth(data, theta, cfg), init=None)

    # each iterate is recorded normalised as the returned index is, so that
    # the index returned is one of the recorded entries bit for bit
    theta_trace = [theta / np.linalg.norm(theta)]
    objective_trace: list[float] = []
    converged = False
    iterations = 0
    for k in range(1, run.max_iter + 1):
        try:
            objective, new = _outer(data, theta, inner_step(data, theta, run), run)
        except (InsufficientDataError, DegenerateUpdateError) as exc:
            raise type(exc)(f"iteration {k}: {exc}") from exc
        objective_trace.append(objective)
        iterations = k
        dist = min(np.linalg.norm(new - theta), np.linalg.norm(new + theta))
        theta_trace.append(new / np.linalg.norm(new))
        theta = new
        if dist <= run.tol:
            converged = True
            break

    best = len(theta_trace) - 1
    if not converged:
        try:
            objective_trace.append(eq_objective(data, theta, inner_step(data, theta, run), run))
        except QmaveError:
            pass
        best = int(np.argmin(objective_trace))
    return IndexFit(theta_trace[best], iterations, converged, theta_trace, objective_trace)
