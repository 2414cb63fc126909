"""Weighted linear quantile regression and weighted least squares.

The quantile solver minimises ``sum_i w_i rho_tau(y_i - z_i' beta)`` by
iteratively reweighted least squares on a smoothed objective: the kink of
the check loss is replaced by a quadratic on ``[-delta, delta]``, the
fixed point of the induced reweighting is followed while ``delta`` shrinks
geometrically from the initial residual scale down to 1e-8, and the result
is polished by comparing against exact-fit candidates through the rows
with the smallest residuals (an optimum of the weighted check loss
interpolates ``p`` rows whenever the design is in general position).
Each polish round sweeps again only the problems whose coefficients the
previous round moved: a sweep reads nothing but its own problem's rows,
so a problem it left unchanged would be left unchanged again, and
skipping it gives the same bits as sweeping the whole batch.

Conformance is defined in objective value, never in coefficients: optima
of piecewise-linear objectives can sit on flat faces.  ``qr_oracle`` is an
independent exhaustive-enumeration check for small problems.

All solvers are pure functions and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .core import LossSpec, check_loss
from .errors import (
    ConvergenceError,
    DegenerateProblemError,
    InvalidInputError,
)

__all__ = [
    "WeightedRegressionProblem",
    "SolverOptions",
    "weighted_quantile",
    "solve_weighted_qr",
    "solve_weighted_ls",
    "qr_oracle",
]

# Geometric delta schedule of the smoothed objective.
_DELTA_MIN = 1e-8
_DELTA_SHRINK = 0.35
_MAX_INNER_PER_STAGE = 5
_MAX_POLISH_ROUNDS = 12
_REFINE_CYCLES = 3

# Determinant threshold for "rows in general position", relative to the
# Hadamard bound of the subsystem.
_GENERAL_POSITION_RTOL = 1e-12


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances shared by the regression solvers."""

    objective_tolerance: float = 1e-9
    max_iterations: int = 200
    regularization_floor: float = 1e-12

    def __post_init__(self):
        if self.objective_tolerance <= 0:
            raise InvalidInputError("objective_tolerance must be positive")
        if self.max_iterations <= 0:
            raise InvalidInputError("max_iterations must be positive")
        if self.regularization_floor <= 0:
            raise InvalidInputError("regularization_floor must be positive")


@dataclass
class WeightedRegressionProblem:
    """A weighted linear regression instance.

    Attributes
    ----------
    Z : (n, p) design matrix.
    y : (n,) responses.
    w : (n,) nonnegative weights; zero-weight rows are ignorable.
    loss : the loss applied to each weighted residual.
    """

    Z: np.ndarray
    y: np.ndarray
    w: np.ndarray
    loss: LossSpec = field(default_factory=lambda: LossSpec.quantile(0.5))

    def __post_init__(self):
        self.Z = np.atleast_2d(np.asarray(self.Z, dtype=float))
        self.y = np.asarray(self.y, dtype=float).ravel()
        self.w = np.asarray(self.w, dtype=float).ravel()
        n, p = self.Z.shape
        if n < 1 or p < 1:
            raise InvalidInputError(f"design must be n>=1 by p>=1, got {self.Z.shape}")
        if self.y.shape != (n,) or self.w.shape != (n,):
            raise InvalidInputError("y and w must both have one entry per design row")
        if not (np.all(np.isfinite(self.Z)) and np.all(np.isfinite(self.y))):
            raise InvalidInputError("design and response must be finite")
        if not np.all(np.isfinite(self.w)) or np.any(self.w < 0):
            raise InvalidInputError("weights must be finite and nonnegative")

    @property
    def n(self) -> int:
        return self.Z.shape[0]

    @property
    def p(self) -> int:
        return self.Z.shape[1]

    def objective(self, beta) -> float:
        """``sum_i w_i * loss(y_i - z_i' beta)``."""
        beta = np.asarray(beta, dtype=float).ravel()
        r = self.y - self.Z @ beta
        return float(np.sum(self.w * check_loss(r, self.loss)))


def weighted_quantile(values, weights, tau: float) -> float:
    """Exact minimiser of ``sum_i w_i rho_tau(values_i - q)``.

    Returns the smallest data value whose cumulative weight reaches
    ``tau`` times the total weight (the lower weighted quantile); any such
    value attains the minimum objective.
    """
    if not (0.0 < tau < 1.0):
        raise InvalidInputError(f"tau must lie in (0, 1), got {tau}")
    values = np.asarray(values, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float).ravel()
    if values.size == 0 or values.shape != weights.shape:
        raise InvalidInputError("values and weights must be equal-length and nonempty")
    if not np.all(np.isfinite(values)) or not np.all(np.isfinite(weights)):
        raise InvalidInputError("values and weights must be finite")
    if np.any(weights < 0) or not np.any(weights > 0):
        raise InvalidInputError("weights must be nonnegative with positive total")
    order = np.argsort(values, kind="stable")
    cw = np.cumsum(weights[order])
    idx = int(np.searchsorted(cw, tau * cw[-1], side="left"))
    idx = min(idx, values.size - 1)
    return float(values[order][idx])


def _batch_solve(A, rhs):
    """Solve stacked p x p systems with (B, p) right-hand sides, falling
    back row-by-row on failure."""
    try:
        return np.linalg.solve(A, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.empty_like(rhs)
        for b in range(A.shape[0]):
            try:
                out[b] = np.linalg.solve(A[b], rhs[b])
            except np.linalg.LinAlgError:
                out[b] = np.linalg.lstsq(A[b], rhs[b], rcond=None)[0]
        return out


def _batch_objective(Z, y, w, beta, tau):
    """Exact check-loss objective for stacked problems; beta is (B, p)."""
    r = y - np.matmul(Z, beta[:, :, None])[:, :, 0]
    rho = np.where(r > 0, tau * r, (tau - 1.0) * r)
    return np.sum(w * rho, axis=1)


def _ls_normal_solve(Z, y, w, ridge):
    """Stacked weighted-LS solve of ``(Z'WZ + ridge I) beta = Z'Wy``."""
    p = Z.shape[2]
    wz = Z * w[:, :, None]
    A = np.matmul(Z.transpose(0, 2, 1), wz) + ridge * np.eye(p)
    rhs = np.matmul(wz.transpose(0, 2, 1), y[:, :, None])[:, :, 0]
    return _batch_solve(A, rhs)


def _polish_extra(n_rows: int) -> int:
    if n_rows <= 32:
        return 6
    if n_rows <= 4096:
        return 4
    return 3


def _polish_round(Z, y, w, tau, beta, obj):
    """One sweep of exact-fit candidates through the rows with the
    smallest residuals at the current iterate."""
    B, n, p = Z.shape
    m = min(n, p + _polish_extra(n))
    if m < p:
        return beta, obj
    r = y - np.matmul(Z, beta[:, :, None])[:, :, 0]
    key = np.where(w > 0, np.abs(r), np.inf)
    order = np.argsort(key, axis=1, kind="stable")[:, :m]
    for subset in combinations(range(m), p):
        idx = order[:, list(subset)]
        Zs = np.take_along_axis(Z, idx[:, :, None], axis=1)
        ys = np.take_along_axis(y, idx, axis=1)
        det = np.linalg.det(Zs)
        hadamard = np.prod(np.linalg.norm(Zs, axis=2), axis=1)
        ok = np.abs(det) > _GENERAL_POSITION_RTOL * np.maximum(hadamard, 1e-300)
        if not np.any(ok):
            continue
        Zs = np.where(ok[:, None, None], Zs, np.eye(p))
        cand = _batch_solve(Zs, ys)
        cobj = _batch_objective(Z, y, w, cand, tau)
        better = ok & np.isfinite(cobj) & (cobj < obj)
        if np.any(better):
            beta = np.where(better[:, None], cand, beta)
            obj = np.where(better, cobj, obj)
    return beta, obj


def _polish_batch(Z, y, w, tau, beta, obj, todo):
    """Iterated vertex search over the problems ``todo`` (indices into the
    batch): re-rank residuals at each improved vertex and sweep again
    until no problem in the batch improves.

    Only the problems whose coefficients the last sweep moved are swept
    again.  A sweep reads nothing but its own problem's rows and iterate,
    so a problem it left unchanged would be left unchanged by every later
    sweep: skipping it gives the same bits as sweeping the whole batch.
    Returns ``(beta, obj, todo)`` with ``todo`` the problems the last
    sweep moved.
    """
    beta, obj = beta.copy(), obj.copy()
    for _ in range(_MAX_POLISH_ROUNDS):
        if todo.size == 0:
            break
        sub = slice(None) if todo.size == beta.shape[0] else todo
        old_beta, old_obj = beta[sub], obj[sub]
        new_beta, new_obj = _polish_round(Z[sub], y[sub], w[sub], tau, old_beta, old_obj)
        improved = np.any(new_obj < old_obj * (1.0 - 1e-14) - 1e-300)
        todo = todo[np.any(new_beta != old_beta, axis=1)]
        beta[sub], obj[sub] = new_beta, new_obj
        if not improved:
            break
    return beta, obj, todo


def _irls(Z, y, w, tau, lin, reg, beta, best, deltas, step_tol, budget):
    """Follow the smoothed fixed point from ``beta`` at each delta in turn,
    ending a stage early once no coefficient moves more than ``step_tol``
    (relative), and keep each stage's iterate where it beats ``best``.
    Returns ``(beta_best, obj_best, iterations, complete)``."""
    beta_best, obj_best = best
    iters = 0
    complete = True
    for delta in deltas:
        for _ in range(_MAX_INNER_PER_STAGE):
            if iters >= budget:
                complete = False
                break
            r = y - np.matmul(Z, beta[:, :, None])[:, :, 0]
            s = w / np.maximum(np.abs(r), delta)
            sz = Z * s[:, :, None]
            A = np.matmul(Z.transpose(0, 2, 1), sz) + reg
            rhs = np.matmul(sz.transpose(0, 2, 1), y[:, :, None])[:, :, 0] + lin
            new = _batch_solve(A, rhs)
            iters += 1
            move = np.max(np.abs(new - beta), axis=1)
            beta = new
            if np.all(move <= step_tol * (1.0 + np.max(np.abs(beta), axis=1))):
                break
        obj = _batch_objective(Z, y, w, beta, tau)
        improved = np.isfinite(obj) & (obj < obj_best)
        if np.any(improved):
            beta_best = np.where(improved[:, None], beta, beta_best)
            obj_best = np.where(improved, obj, obj_best)
        if not complete:
            break
    return beta_best, obj_best, iters, complete


def _solve_qr_batch(Z, y, w, tau, opts: SolverOptions):
    """Smoothed-IRLS solve of stacked weighted quantile regressions.

    Z is (B, n, p); y and w are (B, n).  Returns ``(beta, obj, complete)``
    where ``complete`` is False when ``opts.max_iterations`` truncated the
    delta schedule.  Rows with zero weight contribute exactly nothing.
    """
    Z = np.ascontiguousarray(Z, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    B, n, p = Z.shape
    reg = opts.regularization_floor * np.eye(p)

    wz = Z * w[:, :, None]
    lin = (2.0 * tau - 1.0) * np.sum(wz, axis=1)
    A0 = np.matmul(Z.transpose(0, 2, 1), wz) + reg
    rhs0 = np.matmul(wz.transpose(0, 2, 1), y[:, :, None])[:, :, 0]
    beta = _batch_solve(A0, rhs0)

    active = w > 0
    r = y - np.matmul(Z, beta[:, :, None])[:, :, 0]
    absr = np.where(active, np.abs(r), np.nan)
    delta0 = np.nanmedian(absr, axis=1)
    delta0 = np.where(np.isfinite(delta0) & (delta0 > 0), delta0, _DELTA_MIN)
    delta0 = np.maximum(delta0, _DELTA_MIN)

    n_stages = 1 + max(
        0,
        int(np.ceil(np.log(_DELTA_MIN / np.max(delta0)) / np.log(_DELTA_SHRINK))),
    )
    schedule = (np.maximum(delta0 * _DELTA_SHRINK**k, _DELTA_MIN)[:, None] for k in range(n_stages))
    best = (beta.copy(), _batch_objective(Z, y, w, beta, tau))
    step_tol = max(opts.objective_tolerance, 1e-12)
    beta_best, obj_best, iters, complete = _irls(
        Z, y, w, tau, lin, reg, beta, best, schedule, step_tol, opts.max_iterations
    )

    # release the schedule's temporaries before the polish copies rows
    del wz, A0, rhs0, r, absr, beta, best
    beta_best, obj_best, todo = _polish_batch(Z, y, w, tau, beta_best, obj_best, np.arange(B))

    # refinement cycles: a short fixed point at the floor delta restarted
    # from the polished vertex can slide into a better basin, after which
    # the vertex search snaps to its optimum.  A step tolerance of zero
    # ends a cycle early only at an exact fixed point.  The polish sweeps
    # the problems its last sweep moved and those this cycle's fixed point
    # changed; every other problem sits at a vertex a sweep leaves alone.
    for _ in range(_REFINE_CYCLES):
        if not complete:
            break
        prev_beta, prev_obj = beta_best, obj_best
        beta_best, obj_best, used, complete = _irls(
            Z, y, w, tau, lin, reg, beta_best, (beta_best, obj_best),
            (_DELTA_MIN,), 0.0, opts.max_iterations - iters,
        )
        iters += used
        changed = np.any(beta_best != prev_beta, axis=1) | (obj_best != prev_obj)
        todo = np.union1d(todo, np.flatnonzero(changed))
        new_beta, new_obj, todo = _polish_batch(Z, y, w, tau, beta_best, obj_best, todo)
        moved = new_obj < obj_best * (1.0 - 1e-14)
        beta_best, obj_best = new_beta, new_obj
        if not np.any(moved):
            break
    return beta_best, obj_best, complete


def _solve_ls_batch(Z, y, w, opts: SolverOptions):
    """Stacked weighted least squares; lenient (callers screen inputs)."""
    beta = _ls_normal_solve(
        np.ascontiguousarray(Z, dtype=float),
        np.asarray(y, dtype=float),
        np.asarray(w, dtype=float),
        opts.regularization_floor,
    )
    return beta


def _active_rows(problem, active):
    """``Z``, ``y`` and ``w`` on the rows where ``active``; the arrays as
    they are, without a masked copy, when every row is active."""
    if active.all():
        return tuple(np.ascontiguousarray(v) for v in (problem.Z, problem.y, problem.w))
    return problem.Z[active], problem.y[active], problem.w[active]


def solve_weighted_qr(problem: WeightedRegressionProblem, opts: SolverOptions | None = None):
    """Coefficients minimising the weighted check-loss objective.

    Optimality of the objective value is verified only against
    ``qr_oracle``, for n <= 15 and p <= 4; larger problems carry no
    certificate.  Coefficients themselves may be non-unique.
    Deterministic for fixed inputs.

    Raises
    ------
    DegenerateProblemError
        Fewer than ``p`` rows with positive weight.
    ConvergenceError
        Iteration budget exhausted; carries the best iterate in ``best``.
    """
    opts = opts or SolverOptions()
    if not problem.loss.is_quantile:
        raise InvalidInputError("solve_weighted_qr requires a quantile loss")
    tau = problem.loss.tau
    active = problem.w > 0
    if int(np.count_nonzero(active)) < problem.p:
        raise DegenerateProblemError(
            f"need at least p={problem.p} positively-weighted rows, "
            f"got {int(np.count_nonzero(active))}"
        )
    Za, ya, wa = _active_rows(problem, active)

    if problem.p == 1 and np.all(Za[:, 0] == Za[0, 0]):
        c = Za[0, 0]
        if c == 0.0:
            raise DegenerateProblemError("design column is identically zero")
        return np.array([weighted_quantile(ya, wa, tau) / c])

    beta, _, complete = _solve_qr_batch(
        Za[None, :, :], ya[None, :], wa[None, :], tau, opts
    )
    beta = beta[0]
    if not np.all(np.isfinite(beta)):
        raise DegenerateProblemError("solver produced a non-finite iterate")
    if not complete:
        raise ConvergenceError(
            f"no convergence within {opts.max_iterations} iterations", best=beta
        )
    return beta


def solve_weighted_ls(problem: WeightedRegressionProblem, opts: SolverOptions | None = None):
    """Weighted least squares via the normal equations with a ridge floor.

    Raises ``DegenerateProblemError`` when the weighted cross-product
    matrix stays effectively singular even after the ridge.
    """
    opts = opts or SolverOptions()
    if problem.loss.is_quantile:
        raise InvalidInputError("solve_weighted_ls requires the squared loss")
    floor = opts.regularization_floor
    Za, ya, wa = _active_rows(problem, problem.w > 0)
    A = (Za * wa[:, None]).T @ Za
    rhs = Za.T @ (wa * ya)
    eigs = np.linalg.eigvalsh(A)
    # the ridge only rescues when it is meaningful at the matrix's scale
    if eigs[0] + floor < eigs[-1] * 1e-10:
        raise DegenerateProblemError(
            "weighted cross-product matrix is rank-deficient beyond ridge rescue"
        )
    beta = np.linalg.solve(A + floor * np.eye(problem.p), rhs)
    if not np.all(np.isfinite(beta)):
        raise DegenerateProblemError("normal equations produced non-finite output")
    return beta


def qr_oracle(problem: WeightedRegressionProblem):
    """Exhaustive-enumeration optimum for small quantile problems.

    Solves every nonsingular p x p interpolation system through rows with
    positive weight, scores each candidate on the full objective and
    returns the best.  A test oracle: sized for n <= 15, p <= 4, accepted
    whenever the subset enumeration stays small.
    """
    if not problem.loss.is_quantile:
        raise InvalidInputError("qr_oracle requires a quantile loss")
    active = np.flatnonzero(problem.w > 0)
    p = problem.p
    if p > 4 or math.comb(active.size, min(p, active.size)) > 20000:
        raise InvalidInputError(
            "qr_oracle is an enumeration oracle; this problem is too large"
        )
    if active.size < p:
        raise DegenerateProblemError(
            f"need at least p={p} positively-weighted rows, got {active.size}"
        )
    best_beta = None
    best_obj = np.inf
    for subset in combinations(active.tolist(), p):
        Zs = problem.Z[list(subset)]
        hadamard = float(np.prod(np.linalg.norm(Zs, axis=1)))
        if abs(np.linalg.det(Zs)) <= _GENERAL_POSITION_RTOL * max(hadamard, 1e-300):
            continue
        try:
            cand = np.linalg.solve(Zs, problem.y[list(subset)])
        except np.linalg.LinAlgError:
            continue
        obj = problem.objective(cand)
        if np.isfinite(obj) and obj < best_obj:
            best_obj = obj
            best_beta = cand
    if best_beta is None:
        raise DegenerateProblemError("every row subset is singular")
    return best_beta
