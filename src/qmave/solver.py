"""Weighted linear quantile regression and weighted least squares.

The quantile solver minimises ``sum_i w_i rho_tau(y_i - z_i' beta)``.  A
batched Frisch-Newton interior point (Portnoy & Koenker 1997) solves the
linear program on the rows ``w_i z_i, w_i y_i``.  Its Mehrotra steps
update the iterate in place, in a few row buffers, and take the gap the
predictor would reach in closed form from two dot products.  Its fit is
snapped to the exact fit through the ``p`` usable rows of smallest
residual, and the Koenker-Bassett (1978) subgradient condition certifies
that vertex optimal in closed form.  Problems the certificate rejects
(tied or degenerate data) go to a vertex polish over exact-fit candidates
through the rows with the smallest residuals.  The test for rows in
general position scales each row to unit length first, so the certificate
works at any design scale.

Weighted least squares solves the normal equations without a ridge, and
gives NaN coefficients where the Gram matrix's eigenvalue ratio is at most
``_RANK_RTOL``: the one rank rule, which also screens the local fits.  No
tolerance is absolute, so solutions follow rescaled data.

Conformance is defined in objective value, never in coefficients: optima
of piecewise-linear objectives can sit on flat faces.  ``qr_oracle`` is an
independent exhaustive-enumeration check for small problems.

All solvers are pure functions and safe to call concurrently.
"""

from __future__ import annotations

import math
import numbers
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

# Interior point: fraction of the way to the boundary a step may go
# (Koenker's rqfnb), rows solved together in one block, and the duality
# gap, relative to the objective at the start, at which a problem stops.
_STEP = 0.99995
_BLOCK_ROWS = 8192
_GAP_RTOL = 1e-9
_MAX_POLISH_ROUNDS = 12

# Determinant threshold for "rows in general position": the determinant of
# the rows scaled to unit length, whose Hadamard bound is 1.
_GENERAL_POSITION_RTOL = 1e-12

# Gram eigenvalue ratio at or below which a design is rank-deficient.
_RANK_RTOL = 1e-10


@dataclass(frozen=True)
class SolverOptions:
    """Iteration budget of the quantile solver.

    Its interior point stops at a duality gap of ``_GAP_RTOL`` times the
    objective at its least-squares start, or after ``max_iterations`` (an
    integer >= 1) steps on a block of problems, which marks the solve
    incomplete.
    """

    max_iterations: int = 200

    def __post_init__(self):
        its = self.max_iterations
        if isinstance(its, bool) or not isinstance(its, numbers.Integral) or its < 1:
            raise InvalidInputError(f"max_iterations must be an integer >= 1, got {its!r}")


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


def _in_general_position(Zs):
    """Per stacked p x p system, whether its rows are in general position:
    whether the determinant of the rows scaled to unit length (a zero row
    stays zero) exceeds ``_GENERAL_POSITION_RTOL``, at any scale of rows."""
    norm = np.linalg.norm(Zs, axis=2, keepdims=True)
    return np.abs(np.linalg.det(Zs / np.where(norm > 0, norm, 1.0))) > _GENERAL_POSITION_RTOL


def _polish_round(Z, y, w, tau, beta, obj):
    """One sweep of exact-fit candidates through the rows with the
    smallest residuals at the current iterate."""
    B, n, p = Z.shape
    m = min(n, p + (6 if n <= 32 else 4 if n <= 4096 else 3))
    r = y - np.matmul(Z, beta[:, :, None])[:, :, 0]
    key = np.where(w > 0, np.abs(r), np.inf)
    order = np.argsort(key, axis=1, kind="stable")[:, :m]
    for subset in combinations(range(m), p):
        idx = order[:, list(subset)]
        Zs = np.take_along_axis(Z, idx[:, :, None], axis=1)
        ys = np.take_along_axis(y, idx, axis=1)
        ok = _in_general_position(Zs)
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


def _polish_batch(Z, y, w, tau, beta, obj):
    """Iterated vertex search: re-rank residuals at each improved vertex
    and sweep every problem again, until none improves."""
    for _ in range(_MAX_POLISH_ROUNDS):
        new_beta, new_obj = _polish_round(Z, y, w, tau, beta, obj)
        improved = np.any(new_obj < obj * (1.0 - 1e-14) - 1e-300)
        beta, obj = new_beta, new_obj
        if not improved:
            break
    return beta, obj


def _mv(M, v):
    """Stacked matrix-vector products ``M[b] @ v[b]``."""
    return np.matmul(M, v[:, :, None])[:, :, 0]


def _dot(u, v):
    """Stacked dot products ``u[b] @ v[b]`` of (B, n) arrays."""
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def _newton_step(Xt, b, gap, a, s, z, w, beta):
    """One predictor-corrector step of ``_frisch_newton`` on the (B, p, n)
    transposed design ``Xt``; updates ``a, s, z, w`` and ``beta`` in place.

    With ``u = dx/a`` and ``v = dx/s`` the predictor's dual moves are
    ``dz = -z (u + 1)`` and ``dw = w (v - 1)``.  So its step lengths come
    from the extremes of ``u`` and ``v``, the corrector's ``dx dz / a`` and
    ``dx dw / s`` are ``-z u (u + 1)`` and ``w v (v - 1)``, and the gap it
    would reach is ``(1 - ad) gap + (ap (1 - ad) - ad) sum (z - w) dx
    - ap ad sum dx^2 / d``; the predictor's ``dz, dw`` are never formed.
    The row buffers are this function's locals, so they are freed before
    the caller compacts the batch."""
    X = Xt.transpose(0, 2, 1)
    ia, is_ = 1.0 / a, 1.0 / s
    d = z * ia
    d += w * is_
    np.divide(1.0, d, out=d)
    M = np.matmul(Xt * d[:, None, :], X)
    zw = z - w
    t = d * zw
    t -= a
    rhs = b + _mv(Xt, t)
    # predictor: the affine-scaling step, with e = dx / d
    dy = _batch_solve(M, rhs)
    e = t
    np.matmul(X, dy[:, :, None], out=e[:, :, None])
    e -= zw
    dx = d * e
    zw_dx, dx_dx_d = _dot(zw, dx), _dot(dx, e)
    u, v = np.multiply(dx, ia, out=e), np.multiply(dx, is_, out=dx)
    ap = _STEP / np.maximum(_STEP, np.maximum(-np.min(u, axis=1), np.max(v, axis=1)))
    ad = _STEP / np.maximum(_STEP, np.maximum(np.max(u, axis=1) + 1.0, 1.0 - np.min(v, axis=1)))
    # corrector: Mehrotra's centring target from the predicted gap; dz and
    # dw first hold the predictor's -dx dz / a and dx dw / s
    g = (1.0 - ad) * gap + (ap * (1.0 - ad) - ad) * zw_dx - ap * ad * dx_dx_d
    mu = (gap * (g / gap) ** 3 / (2 * X.shape[1]))[:, None]
    dz = u + 1.0
    dz *= u
    dz *= z
    dw = np.subtract(v, 1.0, out=u)
    dw *= v
    dw *= w
    dr = np.subtract(is_, ia, out=v)
    dr *= mu
    dr -= dz
    dr += dw
    zw += dr  # the corrector's dx = d (X dy - zw) - dr is d (X dy - zw - dr / d)
    dr *= d
    dy = _batch_solve(M, rhs + _mv(Xt, dr))
    dx = dr
    np.matmul(X, dy[:, :, None], out=dx[:, :, None])
    dx -= zw
    dx *= d
    # dz = (mu - z dx - dx dz) / a - z with the predictor's dx dz, likewise dw
    t = np.multiply(dx, ia, out=zw)
    reach_p = -np.min(t, axis=1)
    t *= z
    dz -= t
    dz += np.multiply(ia, mu, out=t)
    dz -= z
    np.multiply(dx, is_, out=t)
    reach_p = np.maximum(reach_p, np.max(t, axis=1))
    t *= w
    dw += t
    dw += np.multiply(is_, mu, out=t)
    dw -= w
    reach_d = np.maximum(
        -np.min(np.divide(dz, z, out=t), axis=1), -np.min(np.divide(dw, w, out=ia), axis=1)
    )
    ap = (_STEP / np.maximum(_STEP, reach_p))[:, None]
    ad = (_STEP / np.maximum(_STEP, reach_d))[:, None]
    dx *= ap
    a += dx
    s -= dx
    beta -= ad * dy
    dz *= ad
    z += dz
    dw *= ad
    w += dw


def _frisch_newton(X, yv, tau, opts: SolverOptions):
    """Frisch-Newton interior point for the regressions of ``yv`` (B, n)
    on ``X`` (B, n, p) in the dual form of Koenker's ``rqfnb``: maximise
    ``yv'a`` over ``X'a = (1 - tau) X'1``, ``0 <= a = 1 - s <= 1``, with
    dual slacks ``z, w``.  Mehrotra predictor-corrector steps from
    ``a = 1 - tau`` and the least-squares fit; a problem stops once its
    duality gap, which bounds its excess objective, is at most
    ``_GAP_RTOL`` times the objective at the start.  Each step
    (``_newton_step``) updates the iterate in place, in a few row buffers,
    with the predicted gap in closed form.  The steps read ``X`` by
    columns, so they run fastest when ``X`` is the transpose of a
    C-contiguous (B, p, n) array, as ``_solve_qr_batch`` passes it.
    Returns ``(beta, converged)``."""
    B = X.shape[0]
    Xt = X.transpose(0, 2, 1)
    b = (1.0 - tau) * np.sum(Xt, axis=2)
    beta = _batch_solve(np.matmul(Xt, X), _mv(Xt, yv))
    r = yv - _mv(X, beta)
    limit = _GAP_RTOL * np.sum(np.where(r > 0, tau * r, (tau - 1.0) * r), axis=1)
    limit[limit == 0] = np.inf  # an exact start (zero objective) is optimal
    shift = np.mean(np.abs(r), axis=1, keepdims=True)
    z, w = np.maximum(-r, 0.0) + shift, np.maximum(r, 0.0) + shift
    a, s = np.full_like(yv, 1.0 - tau), np.full_like(yv, tau)
    del r, yv  # only the start needs them; the loop's working set stays small
    out, converged, live = np.empty_like(beta), np.zeros(B, dtype=bool), np.arange(B)
    for it in range(opts.max_iterations + 1):
        gap = _dot(a, z) + _dot(s, w)
        done = ~(gap > limit) | (it == opts.max_iterations)  # NaN ends too
        if np.any(done):
            out[live[done]], converged[live[done]] = beta[done], gap[done] <= limit[done]
            live, keep = live[~done], ~done
            if live.size == 0:
                return out, converged
            Xt, b, limit, beta, gap, a, s, z, w = (
                v[keep] for v in (Xt, b, limit, beta, gap, a, s, z, w)
            )
        _newton_step(Xt, b, gap, a, s, z, w, beta)


def _snap_and_certify(Z, y, w, tau, beta):
    """Snap ``beta`` to the exact fit through the ``p`` usable rows
    (positive weight, nonzero design) of smallest weighted residual, and
    certify it by the Koenker-Bassett condition: the basis duals, solved
    from their p x p system, lie in ``[tau - 1, tau]`` and no other usable
    row sits at zero residual.  Returns ``(beta, obj, certified)``; an
    uncertified problem keeps the lower in objective of ``beta`` and the
    vertex (if its basis is in general position)."""
    usable = (w > 0) & np.any(Z != 0, axis=2)
    key = np.where(usable, w * np.abs(y - _mv(Z, beta)), np.inf)
    basis = np.argsort(key, axis=1, kind="stable")[:, : Z.shape[2]]
    Zb = np.take_along_axis(Z, basis[:, :, None], axis=1)
    wb = np.take_along_axis(w, basis, axis=1)
    ok = _in_general_position(Zb) & np.all(np.take_along_axis(usable, basis, axis=1), axis=1)
    Zb[~ok], wb[~ok] = np.eye(Z.shape[2]), 1.0
    vertex = _batch_solve(Zb, np.take_along_axis(y, basis, axis=1))
    r = y - _mv(Z, vertex)
    wpsi = w * np.where(r < 0, tau - 1.0, tau)
    np.put_along_axis(wpsi, basis, 0.0, axis=1)
    np.put_along_axis(r, basis, np.inf, axis=1)
    # the duals d solve (w_b z_b)' d = -sum of w_i z_i psi_i off the basis
    dual = _batch_solve(Zb.transpose(0, 2, 1) * wb[:, None, :], -_mv(Z.transpose(0, 2, 1), wpsi))
    certified = ok & np.all((dual >= tau - 1.0) & (dual <= tau), axis=1)
    certified &= ~np.any(usable & (r == 0), axis=1)
    del r, wpsi
    obj = _batch_objective(Z, y, w, vertex, tau)
    # a certified problem returns its vertex; only the others weigh beta
    rest = np.flatnonzero(~certified)
    if rest.size:
        beta_obj = _batch_objective(Z[rest], y[rest], w[rest], beta[rest], tau)
        back = ~(ok[rest] & (obj[rest] <= beta_obj))
        vertex[rest[back]], obj[rest[back]] = beta[rest[back]], beta_obj[back]
    return vertex, obj, certified


def _solve_qr_batch(Z, y, w, tau, opts: SolverOptions):
    """Certified solve of stacked weighted quantile regressions.

    Z is (B, n, p); y and w are (B, n).  Blocks of about ``_BLOCK_ROWS``
    rows run the interior point on the rows ``w_i z_i, w_i y_i``, then the
    snap and certificate; only problems the certificate rejects go to the
    vertex polish, the whole arrays without a copy when every problem is
    rejected.  Returns ``(beta, obj, complete)``, ``complete`` False
    when ``opts.max_iterations`` ran out before a gap met its tolerance.
    """
    Z = np.ascontiguousarray(Z, dtype=float)
    y, w = (np.asarray(v, dtype=float) for v in (y, w))
    B, n, p = Z.shape
    beta, obj, certified = np.empty((B, p)), np.empty(B), np.empty(B, dtype=bool)
    complete = True
    step = max(1, _BLOCK_ROWS // max(n, 1))
    for k in (slice(lo, lo + step) for lo in range(0, B, step)):
        # the interior point reads the weighted design by columns
        inner, converged = _frisch_newton(
            np.multiply(Z[k].transpose(0, 2, 1), w[k, None, :], order="C").transpose(0, 2, 1),
            y[k] * w[k],
            tau,
            opts,
        )
        complete &= bool(np.all(converged))
        beta[k], obj[k], certified[k] = _snap_and_certify(Z[k], y[k], w[k], tau, inner)
    if not np.all(certified):
        rej = ~certified if np.any(certified) else slice(None)
        beta[rej], obj[rej] = _polish_batch(Z[rej], y[rej], w[rej], tau, beta[rej], obj[rej])
    return beta, obj, complete


def _solve_ls_batch(Z, y, w):
    """Stacked weighted least squares by the normal equations, under the
    one rank rule of least squares and of the local fits: a problem whose
    Gram has its smallest eigenvalue at most ``_RANK_RTOL`` times its
    largest gets NaN coefficients."""
    # a C-ordered left factor keeps matmul on its fast path
    Wt = np.multiply(Z.transpose(0, 2, 1), w[:, None, :], order="C")
    gram = np.matmul(Wt, Z)
    eigs = np.linalg.eigvalsh(gram)
    ok = eigs[:, 0] > _RANK_RTOL * eigs[:, -1]
    gram[~ok] = np.eye(Z.shape[2])
    beta = _batch_solve(gram, _mv(Wt, y))
    beta[~ok] = np.nan
    return beta


def _active_rows(problem, active):
    """``Z``, ``y`` and ``w`` on the rows where ``active``; the arrays as
    they are, without a masked copy, when every row is active."""
    if active.all():
        return tuple(np.ascontiguousarray(v) for v in (problem.Z, problem.y, problem.w))
    return problem.Z[active], problem.y[active], problem.w[active]


def solve_weighted_qr(problem: WeightedRegressionProblem, opts: SolverOptions | None = None):
    """Coefficients minimising the weighted check-loss objective.

    The returned vertex is certified optimal in closed form by the
    Koenker-Bassett subgradient condition, at any problem size; problems
    the certificate rejects (tied or degenerate data) are finished by the
    vertex polish instead, without a certificate.  Coefficients
    themselves may be non-unique.  Deterministic for fixed inputs.

    Raises
    ------
    DegenerateProblemError
        Fewer than ``p`` rows with positive weight, or a design column
        that is zero on every one of them.
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
    zero = np.flatnonzero(np.all(Za == 0, axis=0))
    if zero.size:
        raise DegenerateProblemError(
            f"design column {int(zero[0])} is zero on every positively-weighted row"
        )
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


def solve_weighted_ls(problem: WeightedRegressionProblem):
    """Weighted least squares by the normal equations (`_solve_ls_batch`).

    Raises ``DegenerateProblemError`` when the weighted cross-product
    matrix fails the rank rule: its smallest eigenvalue is at most
    ``_RANK_RTOL`` times its largest.
    """
    if problem.loss.is_quantile:
        raise InvalidInputError("solve_weighted_ls requires the squared loss")
    Za, ya, wa = _active_rows(problem, problem.w > 0)
    beta = _solve_ls_batch(Za[None], ya[None], wa[None])[0]
    if not np.all(np.isfinite(beta)):
        raise DegenerateProblemError("weighted cross-product matrix is rank-deficient")
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
