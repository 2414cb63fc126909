"""Weighted linear quantile regression and weighted least squares.

The quantile solver minimises ``sum_i w_i rho_tau(y_i - z_i' beta)``.
Two-column problems (the local index fits) first take an exact vertex
descent: all problems at once, each moving to the minimum along an edge
of its objective, found as a weighted quantile of the edge's
breakpoints, until its vertex is the minimum along both its edges.  What
it leaves, and every problem of more columns, goes to a batched
Frisch-Newton interior point (Portnoy & Koenker 1997) on the rows ``w_i
z_i, w_i y_i``.  Its Mehrotra steps update the iterate in place, in a
few row buffers, and take the gap the predictor would reach in closed
form from two dot products.  Either fit is snapped to the exact fit
through the ``p`` usable rows of smallest residual, solved in row order
so that a vertex depends on its basis set alone, and the Koenker-Bassett
(1978) subgradient condition certifies that vertex optimal in closed
form; a descent vertex it rejects goes to the interior point.  Problems
the certificate rejects after the interior point (tied or degenerate
data) go to a vertex polish, each problem on its own, over exact-fit
candidates through the rows with the smallest residuals.  The test for
rows in general position scales each row to unit length; the
certificate, like the interior point's Gram, holds for row norms from
about 1e-154 to 1e+154, where their squares neither under- nor overflow.

Weighted least squares solves the normal equations without a ridge, and
gives NaN coefficients where the Gram is not finite or its eigenvalue
ratio is at most ``_RANK_RTOL``: the one rank rule, which also screens the
local fits and solves Grams summed elsewhere.  No tolerance is absolute.

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

from .core import LossSpec, _check_count, check_loss
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
# (Koenker's rqfnb), and the duality gap, relative to the objective at the
# start, at which a problem stops.
_STEP = 0.99995
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
    incomplete.  The vertex descent of two-column problems makes at most
    ``max_iterations`` rounds; a problem still moving after them goes to
    the interior point.
    """

    max_iterations: int = 200

    def __post_init__(self):
        _check_count("max_iterations", self.max_iterations)


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
    tau = LossSpec.quantile(tau).tau
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
    back row-by-row, by least squares on a singular system: the interior
    point's Grams on collinear design columns, whose optimum is uncertified."""
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
    stays zero) exceeds ``_GENERAL_POSITION_RTOL``, so a system that passes
    is nonsingular.  Rows with norms beyond about 1e-154 or 1e+154 fail."""
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
    """Iterated vertex search, each problem on its own: re-rank a problem's
    residuals at its improved vertex and sweep it again while its own last
    sweep lowered its objective by more than 1e-14 relative, at most
    ``_MAX_POLISH_ROUNDS`` sweeps.  Sweeps work per problem, so a
    problem's result does not depend on the problems it is polished with."""
    beta, obj = beta.copy(), obj.copy()
    live = np.arange(beta.shape[0])
    for _ in range(_MAX_POLISH_ROUNDS):
        if live.size == 0:
            break
        k = _as_run(live)
        new_beta, new_obj = _polish_round(Z[k], y[k], w[k], tau, beta[k], obj[k])
        improved = new_obj < obj[k] * (1.0 - 1e-14) - 1e-300
        beta[k], obj[k] = new_beta, new_obj
        live = live[improved]
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
    vertex (if its basis is in general position).  The basis is ``p``
    passes of ``argmin``, each writing ``inf`` over its pick: the first of
    tied minima, so the rows a stable argsort puts first while every pick
    is finite.  A problem with a NaN or inf pick takes that argsort."""
    B, _, p = Z.shape
    usable = (w > 0) & np.any([Z[:, :, k] != 0 for k in range(p)], axis=0)
    key = np.where(usable, w * np.abs(y - _mv(Z, beta)), np.inf)
    rows, basis, rest = np.arange(B), np.empty((B, p), dtype=np.intp), np.zeros(B, dtype=bool)
    for k in range(p):
        pick = basis[:, k] = np.argmin(key, axis=1)
        rest |= ~np.isfinite(key[rows, pick])
        key[rows, pick] = np.inf
    key = np.where(usable[rest], w[rest] * np.abs(y[rest] - _mv(Z[rest], beta[rest])), np.inf)
    basis[rest] = np.argsort(key, axis=1, kind="stable")[:, :p]
    basis.sort(axis=1)  # the vertex and duals depend on the basis set alone
    Zb = np.take_along_axis(Z, basis[:, :, None], axis=1)
    wb = np.take_along_axis(w, basis, axis=1)
    ok = _in_general_position(Zb) & np.all(np.take_along_axis(usable, basis, axis=1), axis=1)
    Zb[~ok], wb[~ok] = np.eye(p), 1.0
    vertex = _batch_solve(Zb, np.take_along_axis(y, basis, axis=1))
    r = y - _mv(Z, vertex)
    obj = np.sum(w * np.where(r > 0, tau * r, (tau - 1.0) * r), axis=1)
    wpsi = w * np.where(r < 0, tau - 1.0, tau)
    np.put_along_axis(wpsi, basis, 0.0, axis=1)
    np.put_along_axis(r, basis, np.inf, axis=1)
    # the duals d solve (w_b z_b)' d = -sum of w_i z_i psi_i off the basis
    dual = _batch_solve(Zb.transpose(0, 2, 1) * wb[:, None, :], -_mv(Z.transpose(0, 2, 1), wpsi))
    certified = ok & np.all((dual >= tau - 1.0) & (dual <= tau), axis=1)
    certified &= ~np.any(usable & (r == 0), axis=1)
    del r, wpsi
    # a certified problem returns its vertex; only the others weigh beta
    rest = np.flatnonzero(~certified)
    if rest.size:
        beta_obj = _batch_objective(Z[rest], y[rest], w[rest], beta[rest], tau)
        back = ~(ok[rest] & (obj[rest] <= beta_obj))
        vertex[rest[back]], obj[rest[back]] = beta[rest[back]], beta_obj[back]
    return vertex, obj, certified


@np.errstate(over="ignore", invalid="ignore")
def _descend(Z, y, w, tau, opts: SolverOptions):
    """Exact vertex descent for stacked two-column problems (Barrodale &
    Roberts 1973; Koenker & d'Orey 1987).  Each problem walks from vertex
    to vertex of its objective along the lines ``z_k' beta = y_k`` of its
    usable rows (positive weight, nonzero design), all live problems in
    one round:

    - The pivot row k fixes the point ``beta_k``, ``y_k / z_kj`` on its
      larger-magnitude column j, and the edge direction ``n_k = (-z_k2,
      z_k1)``.  Along it row i has slope ``dx_i = z_i' n_k``, breakpoint
      ``q_i = (y_i - z_i' beta_k) / dx_i`` and weight ``c_i = w_i |dx_i|``;
      rows with ``c_i = 0`` are constant along the edge.
    - The minimum along the edge is at the smallest ``q`` whose
      cumulative ``c`` in ascending order reaches ``sum_i c_i tau_i``,
      with ``tau_i`` equal to tau where ``dx_i > 0`` and to ``1 - tau``
      where ``dx_i < 0``: ``(sum_i c_i + (2 tau - 1) (Z'w)' n_k) / 2``.
      Of the rows tied at that ``q`` the lowest index is the next pivot,
      so the walk does not depend on the sort.
    - A problem stops once the next pivot of its new pivot is its
      previous one: that vertex is the minimum along both its edges.

    Every move minimises along an edge through the current vertex, so
    the objective never rises.  The walk starts at the usable row of
    smallest residual at the weighted least-squares fit, or at the first
    usable row where that fit is not finite.  Returns ``(stopped,
    vertex)``: the problems that stopped within ``opts.max_iterations``
    rounds, in increasing order, and their finite vertices, which the
    caller certifies.  A problem without a usable row, whose edge has no
    row of positive weight or whose vertex is not finite is left out,
    as is one still walking when the budget runs out, so an overflow
    only hands a problem to the caller's fallback."""
    B, n, _ = Z.shape
    Zt = np.ascontiguousarray(Z.transpose(0, 2, 1))
    usable = (w > 0) & ((Zt[:, 0] != 0) | (Zt[:, 1] != 0))
    g = _mv(Zt, w)
    key = np.where(usable, np.abs(y - _mv(Z, _batch_solve(*_gram_batch(Z, y, w)))), np.inf)
    rows = np.arange(B)
    cur = np.argmin(key, axis=1)
    nonfinite = ~np.isfinite(key[rows, cur])
    cur[nonfinite] = np.argmax(usable[nonfinite], axis=1)
    live = np.flatnonzero(usable[rows, cur])
    Zt, y, w, g, cur = Zt[live], y[live], w[live], g[live], cur[live]
    prev = np.full(live.size, -1)
    stopped, vertex = np.zeros(B, dtype=bool), np.empty((B, 2))
    for _ in range(opts.max_iterations):
        if live.size == 0:
            break
        rows = np.arange(live.size)
        z1, z2, yk = Zt[rows, 0, cur], Zt[rows, 1, cur], y[rows, cur]
        j = np.abs(z2) > np.abs(z1)
        at = yk / np.where(j, z2, z1)
        dx = Zt[:, 0] * -z2[:, None]
        dx += Zt[:, 1] * z1[:, None]
        c = np.abs(dx)
        c *= w
        edge = c > 0
        q = Zt[rows, j.astype(np.intp)]
        q *= at[:, None]
        np.subtract(y, q, out=q)
        # rows constant along the edge sort last and are never divided by
        q = np.where(edge, q, np.inf)
        np.divide(q, np.where(edge, dx, 1.0), out=q)
        order = np.argsort(q, axis=1)
        order += (rows * n)[:, None]  # flat indices: np.take is the fast gather
        cum = np.add.accumulate(np.take(c, order), axis=1)
        target = 0.5 * (cum[:, -1] + (2.0 * tau - 1.0) * (g[:, 1] * z1 - g[:, 0] * z2))
        pick = np.minimum(np.sum(cum < target[:, None], axis=1), n - 1)
        best = np.take(q, order[rows, pick])
        nxt = np.argmax(q == best[:, None], axis=1)
        beta = np.stack([np.where(j, 0.0, at) - best * z2, np.where(j, at, 0.0) + best * z1], 1)
        ok = np.isfinite(best) & np.all(np.isfinite(beta), axis=1)
        stop = ok & (nxt == prev)
        stopped[live[stop]], vertex[live[stop]] = True, beta[stop]
        keep = ok & ~stop
        prev, cur = cur[keep], nxt[keep]
        live, Zt, y, w, g = live[keep], Zt[keep], y[keep], w[keep], g[keep]
    return np.flatnonzero(stopped), vertex[stopped]


def _solve_qr_batch(Z, y, w, tau, opts: SolverOptions):
    """Certified solve of stacked weighted quantile regressions.

    Z is (B, n, p); y and w are (B, n).  Two-column problems first take
    the vertex descent (`_descend`), whose stopped vertices go to the
    snap and certificate.  The rest, and every problem of more columns,
    run the interior point once, on the rows ``w_i z_i, w_i y_i``, then
    the snap and certificate.  Problems the certificate rejects go to the
    vertex polish (`_polish_batch`), the whole arrays without a copy when
    every problem is rejected.  All of these work per problem, so the
    other problems of a call change no result; callers size the stack.
    Returns ``(beta, obj, complete)``, ``complete`` False when
    ``opts.max_iterations`` ran out before an interior point's gap met
    its tolerance.
    """
    Z = np.ascontiguousarray(Z, dtype=float)
    y, w = (np.asarray(v, dtype=float) for v in (y, w))
    B, n, p = Z.shape
    beta, obj, certified = np.empty((B, p)), np.empty(B), np.zeros(B, dtype=bool)
    rest = range(B)
    if p == 2 and n:
        stopped, vertex = _descend(Z, y, w, tau, opts)
        if stopped.size:
            k = _as_run(stopped)
            beta[k], obj[k], certified[k] = _snap_and_certify(Z[k], y[k], w[k], tau, vertex)
            rest = np.flatnonzero(~certified)
    complete = True
    if len(rest):
        k = _as_run(rest)
        # the interior point reads the weighted design by columns
        inner, converged = _frisch_newton(
            np.multiply(Z[k].transpose(0, 2, 1), w[k, None, :], order="C").transpose(0, 2, 1),
            y[k] * w[k],
            tau,
            opts,
        )
        complete = bool(np.all(converged))
        beta[k], obj[k], certified[k] = _snap_and_certify(Z[k], y[k], w[k], tau, inner)
    if not np.all(certified):
        rej = ~certified if np.any(certified) else slice(None)
        beta[rej], obj[rej] = _polish_batch(Z[rej], y[rej], w[rej], tau, beta[rej], obj[rej])
    return beta, obj, complete


def _as_run(k):
    """Increasing problem indices ``k`` (a range or an array) as a slice
    when they form one run, so that indexing by them takes views."""
    return slice(int(k[0]), int(k[-1]) + 1) if k[-1] - k[0] + 1 == len(k) else k


def _gram_batch(Z, y, w):
    """The Grams ``Z'WZ`` and right-hand sides ``Z'Wy`` of stacked problems."""
    # a C-ordered left factor keeps matmul on its fast path
    Wt = np.multiply(Z.transpose(0, 2, 1), w[:, None, :], order="C")
    return np.matmul(Wt, Z), _mv(Wt, y)


def _solve_gram_batch(gram, rhs):
    """Stacked ``gram beta = rhs`` under the one rank rule: a problem whose
    Gram is not finite, or has its smallest eigenvalue at most
    ``_RANK_RTOL`` times its largest, gets NaN.  Overwrites ``gram``."""
    ok = np.all(np.isfinite(gram), axis=(1, 2))
    gram[~ok] = np.eye(gram.shape[2])
    eigs = np.linalg.eigvalsh(gram)
    ok &= eigs[:, 0] > _RANK_RTOL * eigs[:, -1]
    gram[~ok] = np.eye(gram.shape[2])
    beta = _batch_solve(gram, rhs)
    beta[~ok] = np.nan
    return beta


def _solve_ls_batch(Z, y, w):
    """Stacked weighted least squares: the local fits' rank screen."""
    return _solve_gram_batch(*_gram_batch(Z, y, w))


def _solve_normal(gram, rhs):
    """`_solve_gram_batch` on a batch of one, raising where it gives NaN;
    a Gram that is not finite is named as an overflow, not a rank loss."""
    if not np.all(np.isfinite(gram)):
        raise DegenerateProblemError(
            "weighted cross-product matrix is not finite: the design or response overflows"
        )
    beta = _solve_gram_batch(gram, rhs)[0]
    if not np.all(np.isfinite(beta)):
        raise DegenerateProblemError("weighted cross-product matrix is rank-deficient")
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
    the certificate rejects (tied or degenerate data, collinear columns)
    are finished by the vertex polish instead, without a certificate.
    Coefficients may be non-unique.  Deterministic for fixed inputs.

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
    """Weighted least squares by the normal equations (`_solve_normal`).

    Raises ``DegenerateProblemError`` when the weighted cross-product
    matrix fails the rank rule: it is not finite, or its smallest
    eigenvalue is at most ``_RANK_RTOL`` times its largest.
    """
    if problem.loss.is_quantile:
        raise InvalidInputError("solve_weighted_ls requires the squared loss")
    Za, ya, wa = _active_rows(problem, problem.w > 0)
    return _solve_normal(*_gram_batch(Za[None], ya[None], wa[None]))


def qr_oracle(problem: WeightedRegressionProblem):
    """Exhaustive-enumeration optimum for small quantile problems.

    Solves the p x p interpolation system through each set of positively
    weighted rows in general position (`_in_general_position`), scores
    each on the full objective and returns the best.  A test oracle:
    sized for n <= 15, p <= 4, accepted while the enumeration stays small.
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
        if not _in_general_position(Zs[None])[0]:
            continue
        cand = np.linalg.solve(Zs, problem.y[list(subset)])
        obj = problem.objective(cand)
        if np.isfinite(obj) and obj < best_obj:
            best_obj = obj
            best_beta = cand
    if best_beta is None:
        raise DegenerateProblemError("every row subset is singular")
    return best_beta
