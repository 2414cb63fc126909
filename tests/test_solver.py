"""Weighted quantile regression solver, least squares, and the oracle."""

import tracemalloc
import warnings
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmave import (
    ConvergenceError,
    DegenerateProblemError,
    InvalidInputError,
    LossSpec,
    SolverOptions,
    WeightedRegressionProblem,
    qr_oracle,
    solve_weighted_ls,
    solve_weighted_qr,
    weighted_quantile,
)
from qmave import solver


def normal_equation_problems():
    """Twenty ``(Z, y, w)`` on continuous data, n from 5 to 29 and p from 1
    to 3."""
    rng = np.random.default_rng(13)
    for _ in range(20):
        n, p = int(rng.integers(5, 30)), int(rng.integers(1, 4))
        yield rng.normal(size=(n, p)), rng.normal(size=n), rng.uniform(0.1, 3.0, size=n)


def random_problem(rng, n_max=12, p_max=3, taus=(0.25, 0.5, 0.75)):
    n = int(rng.integers(3, n_max + 1))
    p = int(rng.integers(1, p_max + 1))
    n = max(n, p)
    Z = rng.normal(size=(n, p))
    y = rng.normal(size=n) * float(rng.choice([0.5, 1.0, 10.0]))
    w = rng.uniform(0.05, 2.0, size=n)
    tau = float(rng.choice(taus))
    return WeightedRegressionProblem(Z, y, w, LossSpec.quantile(tau))


class TestSolverOptions:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("max_iterations", 2.5),
            ("max_iterations", True),
            ("max_iterations", 0),
            ("max_iterations", "10"),
        ],
    )
    def test_bad_values_raise_invalid_input(self, name, value):
        with pytest.raises(InvalidInputError, match=name):
            SolverOptions(**{name: value})


class TestProblemValidation:
    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            WeightedRegressionProblem(np.ones((3, 1)), [1, 2], [1, 1, 1])

    def test_negative_weights(self):
        with pytest.raises(InvalidInputError):
            WeightedRegressionProblem(np.ones((2, 1)), [1, 2], [1, -1])

    def test_non_finite(self):
        with pytest.raises(InvalidInputError):
            WeightedRegressionProblem(np.ones((2, 1)), [1, np.inf], [1, 1])


class TestWeightedQuantile:
    def test_plain_median(self):
        assert weighted_quantile([1, 2, 9], [1, 1, 1], 0.5) == 2.0

    def test_weighted_median(self):
        assert weighted_quantile([1, 3], [1, 3], 0.5) == 3.0

    def test_zero_weights_ignored(self):
        assert weighted_quantile([0, 1, 2], [0, 5, 1], 0.5) == 1.0

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            y = rng.normal(size=n)
            w = rng.integers(1, 5, size=n).astype(float)
            tau = float(rng.choice([0.1, 0.25, 0.5, 0.75, 0.9]))
            q = weighted_quantile(y, w, tau)
            loss = LossSpec.quantile(tau)
            objs = {
                c: float(
                    np.sum(w * np.where(y - c > 0, tau * (y - c), (tau - 1) * (y - c)))
                )
                for c in y
            }
            assert q in objs
            assert objs[q] <= min(objs.values()) + 1e-12 * (1 + abs(min(objs.values())))

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            weighted_quantile([1, 2], [0, 0], 0.5)
        with pytest.raises(InvalidInputError):
            weighted_quantile([1, 2], [1, 1], 1.2)


class TestSolveWeightedQr:
    def test_intercept_only_median(self):
        prob = WeightedRegressionProblem(
            np.ones((3, 1)), [1, 2, 9], [1, 1, 1], LossSpec.quantile(0.5)
        )
        np.testing.assert_allclose(solve_weighted_qr(prob), [2.0])

    def test_intercept_only_weighted_median(self):
        prob = WeightedRegressionProblem(
            np.ones((2, 1)), [1, 3], [1, 3], LossSpec.quantile(0.5)
        )
        np.testing.assert_allclose(solve_weighted_qr(prob), [3.0])

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            prob = random_problem(rng)
            o_solver = prob.objective(solve_weighted_qr(prob))
            o_oracle = prob.objective(qr_oracle(prob))
            assert abs(o_solver - o_oracle) <= 1e-8 * (1 + abs(o_oracle))

    def test_too_few_weighted_rows(self):
        prob = WeightedRegressionProblem(
            np.eye(3), [1, 2, 3], [1, 0, 0], LossSpec.quantile(0.5)
        )
        with pytest.raises(DegenerateProblemError):
            solve_weighted_qr(prob)

    @pytest.mark.parametrize("p", [1, 3])
    def test_column_zero_on_every_weighted_row_raises(self, p):
        rng = np.random.default_rng(33)
        Z = rng.normal(size=(12, p))
        Z[:, p - 1] = 0.0
        w = rng.uniform(0.5, 2.0, size=12)
        Z[0, p - 1], w[0] = 1.0, 0.0  # nonzero only on a zero-weight row
        prob = WeightedRegressionProblem(Z, rng.normal(size=12), w, LossSpec.quantile(0.5))
        with pytest.raises(DegenerateProblemError, match=f"column {p - 1} is zero"):
            solve_weighted_qr(prob)

    def test_requires_quantile_loss(self):
        prob = WeightedRegressionProblem(np.ones((2, 1)), [1, 2], [1, 1], LossSpec.squared())
        with pytest.raises(InvalidInputError):
            solve_weighted_qr(prob)

    def test_convergence_error_carries_best_iterate(self):
        rng = np.random.default_rng(5)
        Z = rng.normal(size=(40, 3))
        y = rng.normal(size=40) * 100
        prob = WeightedRegressionProblem(Z, y, np.ones(40), LossSpec.quantile(0.3))
        with pytest.raises(ConvergenceError) as exc_info:
            solve_weighted_qr(prob, SolverOptions(max_iterations=2))
        best = exc_info.value.best
        assert best is not None and best.shape == (3,)
        assert np.all(np.isfinite(best))

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        prob = random_problem(rng)
        b1 = solve_weighted_qr(prob)
        b2 = solve_weighted_qr(prob)
        np.testing.assert_array_equal(b1, b2)


class TestSolverProperties:
    def test_scale_equivariance(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            prob = random_problem(rng)
            c = float(rng.uniform(0.5, 20.0))
            scaled = WeightedRegressionProblem(prob.Z, c * prob.y, prob.w, prob.loss)
            beta = solve_weighted_qr(prob)
            beta_c = solve_weighted_qr(scaled)
            # c * beta must be optimal for the scaled problem and vice versa
            o_c = scaled.objective(beta_c)
            assert scaled.objective(c * beta) <= o_c + 1e-8 * (1 + abs(o_c))

    def test_sign_quantile_duality(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            prob = random_problem(rng, taus=(0.2, 0.35, 0.5, 0.8))
            tau = prob.loss.tau
            flipped = WeightedRegressionProblem(
                prob.Z, -prob.y, prob.w, LossSpec.quantile(1 - tau)
            )
            beta = solve_weighted_qr(prob)
            beta_f = solve_weighted_qr(flipped)
            o = prob.objective(beta)
            assert abs(prob.objective(-beta_f) - o) <= 1e-8 * (1 + abs(o))

    def test_design_equivariance(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            prob = random_problem(rng, p_max=3)
            p = prob.p
            A = rng.normal(size=(p, p)) + 3 * np.eye(p)
            rotated = WeightedRegressionProblem(prob.Z @ A, prob.y, prob.w, prob.loss)
            o1 = prob.objective(solve_weighted_qr(prob))
            o2 = rotated.objective(solve_weighted_qr(rotated))
            assert abs(o1 - o2) <= 1e-8 * (1 + abs(o1))
        # a design scaled by 1e-7: every solve certified, at the optimum of
        # the unscaled design
        for Z, y, w in normal_equation_problems():
            objs = []
            for s in (1.0, 1e-7):
                prob = WeightedRegressionProblem(Z * s, y, w, LossSpec.quantile(0.3))
                Zb, yb, wb = prob.Z[None], y[None], w[None]
                inner, converged = solver._frisch_newton(
                    Zb * wb[:, :, None], yb * wb, 0.3, SolverOptions()
                )
                certified = solver._snap_and_certify(Zb, yb, wb, 0.3, inner)[2]
                assert converged[0] and certified[0], (Z.shape, s)
                objs.append(prob.objective(solve_weighted_qr(prob)))
            assert abs(objs[1] - objs[0]) <= 1e-12 * objs[0], Z.shape

    def test_zero_weight_rows_are_ignorable(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            prob = random_problem(rng)
            w = prob.w.copy()
            w[rng.integers(0, prob.n)] = 0.0
            full = WeightedRegressionProblem(prob.Z, prob.y, w, prob.loss)
            keep = w > 0
            if np.count_nonzero(keep) < prob.p:
                continue
            pruned = WeightedRegressionProblem(
                prob.Z[keep], prob.y[keep], w[keep], prob.loss
            )
            np.testing.assert_array_equal(
                solve_weighted_qr(full), solve_weighted_qr(pruned)
            )

    def test_oracle_dominance(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            prob = random_problem(rng)
            o_solver = prob.objective(solve_weighted_qr(prob))
            o_oracle = prob.objective(qr_oracle(prob))
            assert abs(o_solver - o_oracle) <= 1e-8 * (1 + abs(o_oracle))


class TestSolveWeightedLs:
    def test_intercept_only_mean(self):
        prob = WeightedRegressionProblem(
            np.ones((3, 1)), [1, 2, 3], [1, 1, 1], LossSpec.squared()
        )
        np.testing.assert_allclose(solve_weighted_ls(prob), [2.0])

    def test_exact_linear_data(self):
        rng = np.random.default_rng(12)
        Z = rng.normal(size=(20, 3))
        beta_star = np.array([1.5, -2.0, 0.25])
        prob = WeightedRegressionProblem(
            Z, Z @ beta_star, rng.uniform(0.5, 2, size=20), LossSpec.squared()
        )
        np.testing.assert_allclose(solve_weighted_ls(prob), beta_star, atol=1e-10)

    def test_matches_independent_normal_equations(self):
        # independent route: scale rows by sqrt(w) and use lstsq; on Z * s
        # the coefficients are the unscaled ones over s
        for Z, y, w in normal_equation_problems():
            sw = np.sqrt(w)
            ref, *_ = np.linalg.lstsq(Z * sw[:, None], y * sw, rcond=None)
            for s in (1.0, 1e-7):
                prob = WeightedRegressionProblem(Z * s, y, w, LossSpec.squared())
                np.testing.assert_allclose(solve_weighted_ls(prob) * s, ref, atol=1e-8, err_msg=s)

    def test_rank_deficient_raises(self):
        Z = np.ones((4, 2))  # duplicated column
        prob = WeightedRegressionProblem(Z, [1, 2, 3, 4], np.ones(4), LossSpec.squared())
        with pytest.raises(DegenerateProblemError):
            solve_weighted_ls(prob)

    def test_requires_squared_loss(self):
        prob = WeightedRegressionProblem(
            np.ones((2, 1)), [1, 2], [1, 1], LossSpec.quantile(0.5)
        )
        with pytest.raises(InvalidInputError):
            solve_weighted_ls(prob)

    def test_overflowing_gram_raises(self):
        # the Gram of a design on 1e160 overflows to inf, which is named
        # before the rank rule is applied
        rng = np.random.default_rng(13)
        Z = rng.normal(size=(50, 3)) * 1e160
        prob = WeightedRegressionProblem(Z, rng.normal(size=50), np.ones(50), LossSpec.squared())
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(
                DegenerateProblemError,
                match="weighted cross-product matrix is not finite: "
                "the design or response overflows",
            ):
                solve_weighted_ls(prob)

    def test_overflowing_gram_spares_the_rest_of_its_batch(self):
        rng = np.random.default_rng(14)
        Z, y, w = rng.normal(size=(3, 50, 3)), rng.normal(size=(3, 50)), np.ones((3, 50))
        want = solver._solve_ls_batch(Z, y, w)
        Z[1] *= 1e160
        with np.errstate(over="ignore", invalid="ignore"):
            got = solver._solve_ls_batch(Z, y, w)
        assert np.all(np.isnan(got[1]))
        np.testing.assert_array_equal(got[[0, 2]], want[[0, 2]])


class TestCollinearDesign:
    def test_interior_point_start_takes_the_lstsq_fallback(self, monkeypatch):
        # columns [1, x, 2x]: the interior point's Grams are singular, so
        # _batch_solve solves them by least squares, and the optimum, which
        # no certificate covers, matches the oracle's on [1, x]
        calls = []
        lstsq = np.linalg.lstsq

        def spy(*args, **kwargs):
            calls.append(args)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        rng = np.random.default_rng(0)
        x = rng.normal(size=20)
        y, w, loss = x + rng.standard_t(3, size=20), np.ones(20), LossSpec.quantile(0.5)
        wide = WeightedRegressionProblem(np.column_stack([np.ones(20), x, 2 * x]), y, w, loss)
        narrow = WeightedRegressionProblem(np.column_stack([np.ones(20), x]), y, w, loss)
        got = wide.objective(solve_weighted_qr(wide))
        assert calls
        best = narrow.objective(qr_oracle(narrow))
        assert abs(got - best) <= 1e-9 * best


class TestQrOracle:
    def test_median_candidates(self):
        prob = WeightedRegressionProblem(
            np.ones((3, 1)), [1, 2, 9], [1, 1, 1], LossSpec.quantile(0.5)
        )
        np.testing.assert_allclose(qr_oracle(prob), [2.0])

    def test_oracle_never_beaten(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            prob = random_problem(rng)
            o_solver = prob.objective(solve_weighted_qr(prob))
            o_oracle = prob.objective(qr_oracle(prob))
            assert o_oracle <= o_solver + 1e-8 * (1 + abs(o_solver))

    def test_two_column_line_enumeration(self):
        # the oracle's optimum over 5 points equals the explicit minimum
        # over all 10 candidate lines through point pairs
        rng = np.random.default_rng(15)
        x = rng.normal(size=5)
        Z = np.column_stack([np.ones(5), x])
        y = rng.normal(size=5)
        w = rng.uniform(0.5, 2, size=5)
        prob = WeightedRegressionProblem(Z, y, w, LossSpec.quantile(0.3))
        best = np.inf
        from itertools import combinations

        for i, j in combinations(range(5), 2):
            sub = np.array([i, j])
            cand = np.linalg.solve(Z[sub], y[sub])
            best = min(best, prob.objective(cand))
        assert prob.objective(qr_oracle(prob)) == pytest.approx(best, abs=1e-12)

    def test_all_singular_raises(self):
        Z = np.zeros((3, 2))
        prob = WeightedRegressionProblem(Z, [1, 2, 3], np.ones(3), LossSpec.quantile(0.5))
        with pytest.raises(DegenerateProblemError):
            qr_oracle(prob)

    @pytest.mark.parametrize("scale", [1e-140, 1e140])
    def test_far_from_unit_scale(self, scale):
        # the oracle's general-position test is the certificate's: it holds
        # while row norms stay within about 1e+-154, with no overflow
        rng = np.random.default_rng(17)
        Z = rng.normal(size=(10, 3))
        Z[:, 0] = 1.0
        prob = WeightedRegressionProblem(
            Z * scale, rng.normal(size=10), rng.uniform(0.5, 2.0, size=10), LossSpec.quantile(0.3)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            o_oracle = prob.objective(qr_oracle(prob))
        o_solver = prob.objective(solve_weighted_qr(prob))
        assert o_oracle == pytest.approx(o_solver, rel=1e-12)

    def test_size_guard(self):
        rng = np.random.default_rng(16)
        prob = WeightedRegressionProblem(
            rng.normal(size=(300, 4)),
            rng.normal(size=300),
            np.ones(300),
            LossSpec.quantile(0.5),
        )
        with pytest.raises(InvalidInputError):
            qr_oracle(prob)


def polish_batches():
    """Random stacked problems for the vertex polish: integer data (so
    vertices tie and some moves fall below the improvement threshold),
    zero-weight rows, p in {2, 3} and n on both sides of 32, each started
    from the weighted least-squares fit."""
    for seed in range(10):
        for n in (20, 50):
            for p in (2, 3):
                rng = np.random.default_rng(seed)
                B = 32
                Z = rng.integers(-3, 4, size=(B, n, p)).astype(float)
                Z[:, :, 0] = 1.0
                y = rng.integers(-5, 6, size=(B, n)).astype(float)
                w = rng.choice([0.0, 0.5, 1.0, 2.0], size=(B, n))
                tau = float(rng.choice([0.25, 0.5, 0.7]))
                beta = solver._solve_ls_batch(Z, y, w)
                obj = solver._batch_objective(Z, y, w, beta, tau)
                yield Z, y, w, tau, beta, obj


class TestVertexPolish:
    def test_sweeps_are_independent_per_problem(self):
        for Z, y, w, tau, beta, obj in polish_batches():
            B = Z.shape[0]
            full_beta, full_obj = solver._polish_round(Z, y, w, tau, beta, obj)
            sub = np.array([0, 2, 3, B - 1])
            sub_beta, sub_obj = solver._polish_round(
                Z[sub], y[sub], w[sub], tau, beta[sub], obj[sub]
            )
            assert sub_beta.tobytes() == full_beta[sub].tobytes()
            assert sub_obj.tobytes() == full_obj[sub].tobytes()

    def test_settled_problems_stay_settled(self):
        settled = 0
        for Z, y, w, tau, beta, obj in polish_batches():
            b1, o1 = solver._polish_round(Z, y, w, tau, beta, obj)
            b2, o2 = solver._polish_round(Z, y, w, tau, b1, o1)
            still = np.flatnonzero(np.all(b2 == b1, axis=1))
            b3, o3 = solver._polish_round(Z, y, w, tau, b2, o2)
            assert b3[still].tobytes() == b2[still].tobytes()
            assert o3[still].tobytes() == o2[still].tobytes()
            # the polish sweeps settled problems again and leaves them as they are
            pb, po = solver._polish_batch(Z[still], y[still], w[still], tau, b2[still], o2[still])
            assert pb.tobytes() == b2[still].tobytes() and po.tobytes() == o2[still].tobytes()
            settled += still.size
        assert settled > 0

    def test_each_problem_is_polished_alone(self):
        # a problem sweeps again only while its own last sweep improved, so
        # polishing a batch, or any subset of it, gives the bytes of one
        # polish per problem, also for the problems whose last sweep moved
        # them by less than the improvement threshold
        rng = np.random.default_rng(22)
        below = 0
        for Z, y, w, tau, beta, obj in polish_batches():
            B = Z.shape[0]
            alone = [
                solver._polish_batch(
                    Z[b : b + 1], y[b : b + 1], w[b : b + 1], tau, beta[b : b + 1], obj[b : b + 1]
                )
                for b in range(B)
            ]
            want_beta, want_obj = (np.concatenate(v) for v in zip(*alone))
            for rej in (np.arange(B), np.flatnonzero(rng.random(B) < 0.5)):
                got_beta, got_obj = solver._polish_batch(
                    Z[rej], y[rej], w[rej], tau, beta[rej], obj[rej]
                )
                assert got_beta.tobytes() == want_beta[rej].tobytes()
                assert got_obj.tobytes() == want_obj[rej].tobytes()
            # problems a further sweep would still move: the old rule swept
            # them again while another problem of their call improved
            more_beta, _ = solver._polish_round(Z, y, w, tau, want_beta, want_obj)
            below += np.count_nonzero(np.any(more_beta != want_beta, axis=1))
        assert below > 0


def highs_beta(Z, y, w, tau):
    """Coefficients of one weighted quantile regression from HiGHS, as the
    linear program: minimise ``tau 1'u + (1 - tau) 1'v`` subject to
    ``w_i z_i'beta + u_i - v_i = w_i y_i``, ``u, v >= 0``, beta free."""
    from scipy import sparse
    from scipy.optimize import linprog

    n, p = Z.shape
    eye = sparse.identity(n, format="csr")
    A = sparse.hstack([sparse.csr_matrix(Z * w[:, None]), eye, -eye], format="csr")
    c = np.concatenate([np.zeros(p), np.full(n, tau), np.full(n, 1.0 - tau)])
    bounds = [(None, None)] * p + [(0.0, None)] * (2 * n)
    res = linprog(c, A_eq=A, b_eq=y * w, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return res.x[:p]


def continuous_batches():
    """Stacked problems on continuous data, n from 20 to 5000 and p in
    {1, 2, 5, 6}: about a fifth of the rows carry zero weight and one in
    twenty has an all-zero design row (its response kept)."""
    rng = np.random.default_rng(20261018)
    for n, B in ((20, 16), (200, 8), (1000, 2), (5000, 1)):
        for p in (1, 2, 5, 6):
            Z = rng.normal(size=(B, n, p))
            if p > 1:
                Z[:, :, 0] = 1.0
            y = np.matmul(Z, rng.normal(size=p)) + rng.standard_t(3, size=(B, n))
            w = rng.uniform(0.1, 2.0, size=(B, n))
            w[rng.random((B, n)) < 0.2] = 0.0
            Z[rng.random((B, n)) < 0.05] = 0.0
            tau = float(rng.choice([0.1, 0.25, 0.5, 0.75, 0.9]))
            yield Z, y, w, tau


def certified_solve(Z, y, w, tau, opts=SolverOptions()):
    """``(beta, obj, certified)`` of ``solver._solve_qr_batch`` before its
    polish, from its parts: for p = 2 the vertex descent's stopped
    problems, snapped and certified, then the interior point on the rest
    (blocks change no result), snapped and certified."""
    B, _, p = Z.shape
    beta, obj, certified = np.empty((B, p)), np.empty(B), np.zeros(B, dtype=bool)
    if p == 2:
        s, vertex = solver._descend(Z, y, w, tau, opts)
        if s.size:
            beta[s], obj[s], certified[s] = solver._snap_and_certify(Z[s], y[s], w[s], tau, vertex)
    rest = ~certified
    if np.any(rest):
        Zr, yr, wr = Z[rest], y[rest], w[rest]
        inner = solver._frisch_newton(weighted_design(Zr, wr), yr * wr, tau, opts)[0]
        beta[rest], obj[rest], certified[rest] = solver._snap_and_certify(Zr, yr, wr, tau, inner)
    return beta, obj, certified


class TestCertifiedSolve:
    def test_objectives_match_highs(self):
        for Z, y, w, tau in continuous_batches():
            beta, obj, complete = solver._solve_qr_batch(Z, y, w, tau, SolverOptions())
            assert complete
            np.testing.assert_array_equal(obj, solver._batch_objective(Z, y, w, beta, tau))
            ref = np.array([highs_beta(Z[b], y[b], w[b], tau) for b in range(Z.shape[0])])
            ref_obj = solver._batch_objective(Z, y, w, ref, tau)
            assert np.all(np.abs(obj - ref_obj) <= 1e-9 * ref_obj), (Z.shape, tau)

    def test_continuous_problems_are_certified(self):
        for Z, y, w, tau in continuous_batches():
            inner, converged = solver._frisch_newton(Z * w[:, :, None], y * w, tau, SolverOptions())
            assert np.all(converged)
            _, _, certified = solver._snap_and_certify(Z, y, w, tau, inner)
            assert np.all(certified), (Z.shape, tau)

    def test_polish_gets_exactly_the_rejected_problems(self, monkeypatch):
        calls, polish = [], solver._polish_batch

        def spy(*args):
            # copies too: the caller writes the result back into its views
            calls.append((args, [np.copy(v) for v in args]))
            return polish(*args)

        monkeypatch.setattr(solver, "_polish_batch", spy)
        for Z, y, w, tau in continuous_batches():
            solver._solve_qr_batch(Z, y, w, tau, SolverOptions())
        assert calls == []
        subsets = 0
        for Z, y, w, tau in padded_tied_batches():
            beta, obj, certified = certified_solve(Z, y, w, tau)
            rej = ~certified
            calls.clear()
            solver._solve_qr_batch(Z, y, w, tau, SolverOptions())
            assert len(calls) == int(np.any(rej))
            for _, args in calls:
                for got, want in zip(args, (Z[rej], y[rej], w[rej], tau, beta[rej], obj[rej])):
                    assert got.tobytes() == np.asarray(want).tobytes()
            subsets += 0 < np.count_nonzero(rej) < rej.size
        assert subsets > 0
        # a problem the certificate rejects (every row at zero residual)
        # reaches the polish as the arrays themselves, without a copy
        Z, y, w = np.ones((1, 5, 1)), np.ones((1, 5)), np.ones((1, 5))
        calls.clear()
        solver._solve_qr_batch(Z, y, w, 0.5, SolverOptions())
        ((args, _),) = calls
        assert all(np.shares_memory(got, v) for got, v in zip(args, (Z, y, w)))

    @pytest.mark.parametrize("scale", [1e-100, 1e100])
    def test_extreme_design_scales_are_certified(self, scale):
        # the general-position test scales rows to unit length, so a design
        # scaled by 1e-100 or 1e+100 certifies at the unscaled optimum
        rng = np.random.default_rng(23)
        Z = rng.normal(size=(20, 200, 5))
        y = np.matmul(Z, rng.normal(size=5)) + rng.standard_t(3, size=(20, 200))
        w = rng.uniform(0.1, 2.0, size=(20, 200))
        objs = []
        for s in (1.0, scale):
            X = weighted_design(Z * s, w)
            inner, converged = solver._frisch_newton(X, y * w, 0.5, SolverOptions())
            _, obj, certified = solver._snap_and_certify(Z * s, y, w, 0.5, inner)
            assert np.all(converged) and np.all(certified), s
            objs.append(obj)
        assert np.all(np.abs(objs[1] - objs[0]) <= 1e-12 * objs[0])

    def test_hand_built_vertex_with_a_dual_outside_is_rejected(self):
        # the constant fit through y = 5 of 1..5 at the median: the four
        # rows below give the basis row the dual 4 * 0.5 = 2 > tau
        Z, y, w = np.ones((1, 5, 1)), np.arange(1.0, 6.0)[None], np.ones((1, 5))
        vertex, obj, certified = solver._snap_and_certify(Z, y, w, 0.5, np.array([[5.0]]))
        assert vertex[0, 0] == 5.0 and obj[0] == 5.0 and not certified[0]
        vertex, obj, certified = solver._snap_and_certify(Z, y, w, 0.5, np.array([[3.0]]))
        assert vertex[0, 0] == 3.0 and obj[0] == 3.0 and certified[0]

    def test_certificate_accepts_exactly_the_optimal_vertices(self):
        # every vertex of small continuous problems, snapped from itself:
        # certified if and only if it attains the enumerated optimum
        rng = np.random.default_rng(21)
        rejected_optimal = accepted = rejected = 0
        for _ in range(20):
            n, p = 9, int(rng.integers(1, 4))
            Z = rng.normal(size=(n, p))
            y = rng.normal(size=n)
            w = rng.uniform(0.2, 2.0, size=n)
            tau = float(rng.choice([0.2, 0.5, 0.8]))
            best = WeightedRegressionProblem(Z, y, w, LossSpec.quantile(tau))
            best = best.objective(qr_oracle(best))
            subsets = np.array(list(combinations(range(n), p)))
            vertices = np.linalg.solve(Z[subsets], y[subsets][:, :, None])[:, :, 0]
            B = len(subsets)
            args = tuple(np.broadcast_to(v, (B,) + v.shape) for v in (Z, y, w))
            vertex, objs, certified = solver._snap_and_certify(*args, tau, vertices)
            np.testing.assert_allclose(vertex, vertices, rtol=1e-9, atol=1e-12)
            optimal = objs <= best * (1 + 1e-12)
            assert not np.any(certified & ~optimal)
            rejected_optimal += np.count_nonzero(optimal & ~certified)
            accepted += np.count_nonzero(certified)
            rejected += np.count_nonzero(~certified)
        assert rejected_optimal == 0 and accepted >= 20 and rejected > accepted

    def test_outer_problem_of_a_fit_is_certified(self):
        # the own-anchor rows of the outer problem have an all-zero design
        # and here also a zero residual; they must stay out of the basis
        from dataclasses import replace

        from qmave import (
            NoiseLaw,
            QmaveConfig,
            SimConfig,
            gen_model8,
            inner_step,
            outer_problem,
            qmave_fit,
        )
        from qmave.fit import resolve_bandwidth

        data, _ = gen_model8(SimConfig(n=200, noise=NoiseLaw.SCALED_T1, seed=1))
        cfg = QmaveConfig(loss=LossSpec.quantile(0.5), max_iter=2)
        theta = qmave_fit(data, cfg).theta
        cfg = replace(cfg, h=resolve_bandwidth(data, theta, cfg))
        prob = outer_problem(data, theta, inner_step(data, theta, cfg), cfg)
        Z, y, w = prob.Z[None], prob.y[None], prob.w[None]
        assert np.any(np.all(Z[0] == 0, axis=1) & (y[0] == 0) & (w[0] > 0))
        inner, converged = solver._frisch_newton(Z * w[:, :, None], y * w, 0.5, SolverOptions())
        _, _, certified = solver._snap_and_certify(Z, y, w, 0.5, inner)
        assert converged[0] and certified[0]


def reference_frisch_newton(X, yv, tau, opts):
    """The interior point before its steps worked in place: each step forms
    the predictor's ``dz, dw``, its step lengths and its predicted gap from
    whole rows.  The reference for the certificates, objectives and memory
    of ``solver._frisch_newton``, which takes the same steps."""

    def step_lengths(a, s, z, w, dx, dz, dw):
        reach_p = np.maximum(np.max(-dx / a, axis=1), np.max(dx / s, axis=1))
        reach_d = np.maximum(np.max(-dz / z, axis=1), np.max(-dw / w, axis=1))
        step = solver._STEP
        return tuple(step / np.maximum(step, r)[:, None] for r in (reach_p, reach_d))

    mv, Xt = solver._mv, X.transpose(0, 2, 1)
    B, n, p = X.shape
    b = (1.0 - tau) * np.sum(X, axis=1)
    beta = solver._batch_solve(np.matmul(Xt, X), mv(Xt, yv))
    r = yv - mv(X, beta)
    limit = solver._GAP_RTOL * np.sum(np.where(r > 0, tau * r, (tau - 1.0) * r), axis=1)
    limit[limit == 0] = np.inf
    shift = np.mean(np.abs(r), axis=1, keepdims=True)
    z, w = np.maximum(-r, 0.0) + shift, np.maximum(r, 0.0) + shift
    a, s = np.full_like(yv, 1.0 - tau), np.full_like(yv, tau)
    del r, yv
    out, converged, live = np.empty_like(beta), np.zeros(B, dtype=bool), np.arange(B)
    for it in range(opts.max_iterations + 1):
        gap = np.sum(a * z + s * w, axis=1)
        done = ~(gap > limit) | (it == opts.max_iterations)
        if np.any(done):
            out[live[done]], converged[live[done]] = beta[done], gap[done] <= limit[done]
            live, keep = live[~done], ~done
            if live.size == 0:
                return out, converged
            X, b, limit, beta, gap, a, s, z, w = (
                v[keep] for v in (X, b, limit, beta, gap, a, s, z, w)
            )
        Xt = X.transpose(0, 2, 1)
        d = 1.0 / (z / a + w / s)
        zw = z - w
        rhs = b + mv(Xt, d * zw - a)
        M = np.matmul(Xt, X * d[:, :, None])
        dy = solver._batch_solve(M, rhs)
        dx = d * (mv(X, dy) - zw)
        dz, dw = -z * (dx / a + 1.0), w * (dx / s - 1.0)
        ap, ad = step_lengths(a, s, z, w, dx, dz, dw)
        g = np.sum((a + ap * dx) * (z + ad * dz) + (s - ap * dx) * (w + ad * dw), axis=1)
        mu = (gap * (g / gap) ** 3 / (2 * n))[:, None]
        dxdz, dxdw = dx * dz, dx * dw
        dr = d * (mu * (1.0 / s - 1.0 / a) + dxdz / a + dxdw / s)
        dy = solver._batch_solve(M, rhs + mv(Xt, dr))
        dx = d * (mv(X, dy) - zw) - dr
        dz, dw = (mu - z * dx - dxdz) / a - z, (mu + w * dx + dxdw) / s - w
        ap, ad = step_lengths(a, s, z, w, dx, dz, dw)
        a += ap * dx
        s -= ap * dx
        beta -= ad * dy
        z += ad * dz
        w += ad * dw


def padded_tied_batches():
    """Stacked windows as the local fits build them: integer data (so rows
    tie), each problem's rows of positive weight followed by zero-weight
    padding up to the longest window, p in {2, 5, 6}."""
    rng = np.random.default_rng(20261019)
    for n, B in ((30, 24), (113, 12)):
        for p in (2, 5, 6):
            Z = rng.integers(-3, 4, size=(B, n, p)).astype(float)
            Z[:, :, 0] = 1.0
            y = rng.integers(-5, 6, size=(B, n)).astype(float)
            w = rng.choice([0.5, 1.0, 2.0], size=(B, n))
            w[np.arange(n) >= rng.integers(n // 3, n + 1, size=(B, 1))] = 0.0
            yield Z, y, w, float(rng.choice([0.25, 0.5, 0.7]))


def weighted_design(Z, w):
    """``Z * w`` in the layout ``_solve_qr_batch`` hands the interior point."""
    return np.multiply(Z.transpose(0, 2, 1), w[:, None, :], order="C").transpose(0, 2, 1)


def traced_peak(fn, *args):
    """tracemalloc peak, in bytes, of the allocations made by one call."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestInteriorPoint:
    def test_certifies_and_attains_what_the_reference_loop_does(self):
        opts, certified = SolverOptions(), 0
        for Z, y, w, tau in chain(continuous_batches(), padded_tied_batches()):
            X, yv = weighted_design(Z, w), y * w
            got, ref = (
                solver._snap_and_certify(Z, y, w, tau, fn(X, yv, tau, opts)[0])
                for fn in (solver._frisch_newton, reference_frisch_newton)
            )
            assert np.all(got[2] | ~ref[2]), (Z.shape, tau)
            slack = 4 * np.spacing(np.sum(w * np.abs(y), axis=1))
            assert np.all(got[1] <= ref[1] * (1 + 1e-12) + slack), (Z.shape, tau)
            certified += np.count_nonzero(ref[2])
        assert certified > 0

    def test_peak_memory_stays_within_the_reference_loop(self):
        # the shape of the largest full-fit block of the n=200 benchmark
        # grid: 130 anchors, windows of 113 rows of which about 40% are
        # zero-weight padding, p = 6
        rng = np.random.default_rng(20261019)
        B, n, p = 130, 113, 6
        Z = rng.normal(size=(B, n, p))
        Z[:, :, 0] = 1.0
        y = np.matmul(Z, rng.normal(size=p)) + rng.standard_t(3, size=(B, n))
        w = rng.uniform(0.1, 1.0, size=(B, n))
        w[np.arange(n) >= rng.integers(n // 5, n + 1, size=(B, 1))] = 0.0
        assert 0.3 < np.mean(w == 0) < 0.5
        X, yv, opts = weighted_design(Z, w), y * w, SolverOptions()
        (_, converged), peak = traced_peak(solver._frisch_newton, X, yv, 0.5, opts)
        (_, ref_converged), ref_peak = traced_peak(reference_frisch_newton, X, yv, 0.5, opts)
        assert np.all(converged) and np.all(ref_converged)
        assert peak <= ref_peak, (peak, ref_peak)


def reference_snap_and_certify(Z, y, w, tau, beta):
    """The snap that chose its basis by a stable argsort of the keys, in
    row order, and scored the vertex by a second objective pass: the
    reference for the bytes of ``solver._snap_and_certify``."""
    mv = solver._mv
    usable = (w > 0) & np.any(Z != 0, axis=2)
    key = np.where(usable, w * np.abs(y - mv(Z, beta)), np.inf)
    basis = np.sort(np.argsort(key, axis=1, kind="stable")[:, : Z.shape[2]], axis=1)
    Zb = np.take_along_axis(Z, basis[:, :, None], axis=1)
    wb = np.take_along_axis(w, basis, axis=1)
    ok = solver._in_general_position(Zb) & np.all(
        np.take_along_axis(usable, basis, axis=1), axis=1
    )
    Zb[~ok], wb[~ok] = np.eye(Z.shape[2]), 1.0
    vertex = solver._batch_solve(Zb, np.take_along_axis(y, basis, axis=1))
    r = y - mv(Z, vertex)
    wpsi = w * np.where(r < 0, tau - 1.0, tau)
    np.put_along_axis(wpsi, basis, 0.0, axis=1)
    np.put_along_axis(r, basis, np.inf, axis=1)
    Zt = Z.transpose(0, 2, 1)
    dual = solver._batch_solve(Zb.transpose(0, 2, 1) * wb[:, None, :], -mv(Zt, wpsi))
    certified = ok & np.all((dual >= tau - 1.0) & (dual <= tau), axis=1)
    certified &= ~np.any(usable & (r == 0), axis=1)
    obj = solver._batch_objective(Z, y, w, vertex, tau)
    rest = np.flatnonzero(~certified)
    if rest.size:
        beta_obj = solver._batch_objective(Z[rest], y[rest], w[rest], beta[rest], tau)
        back = ~(ok[rest] & (obj[rest] <= beta_obj))
        vertex[rest[back]], obj[rest[back]] = beta[rest[back]], beta_obj[back]
    return vertex, obj, certified


def assert_same_snap(Z, y, w, tau, beta):
    got = solver._snap_and_certify(Z, y, w, tau, beta)
    want = reference_snap_and_certify(Z, y, w, tau, beta)
    for g, r in zip(got, want):
        assert g.tobytes() == r.tobytes(), (Z.shape, tau)
    return got


class TestSnap:
    def test_keeps_the_bytes_of_the_argsort_snap(self):
        short = SolverOptions(max_iterations=3)
        for Z, y, w, tau, beta, _ in polish_batches():
            # the rounded fit of integer data ties keys everywhere
            for start in (beta, np.round(beta)):
                assert_same_snap(Z, y, w, tau, start)
        for Z, y, w, tau in chain(padded_tied_batches(), continuous_batches()):
            X, yv = weighted_design(Z, w), y * w
            # the interior point's iterates, early and at the end, sit
            # close to a vertex: their keys tie and vanish at the basis
            for opts in (short, SolverOptions()):
                assert_same_snap(Z, y, w, tau, solver._frisch_newton(X, yv, tau, opts)[0])

    def test_nan_iterates_and_too_few_usable_rows(self):
        rng = np.random.default_rng(24)
        B, n, p = 6, 9, 3
        Z = rng.integers(-2, 3, size=(B, n, p)).astype(float)
        Z[:, :, 0] = 1.0
        y = rng.integers(-3, 4, size=(B, n)).astype(float)
        w = rng.choice([0.5, 1.0], size=(B, n))
        beta = rng.normal(size=(B, p))
        beta[1] = np.nan
        beta[2, 0] = np.nan
        w[3, 2:] = 0.0  # two usable rows for p = 3
        Z[4, 1:] = 0.0  # one row with a nonzero design
        w[5] = 0.0  # no usable row at all
        with np.errstate(invalid="ignore"):
            vertex, obj, certified = assert_same_snap(Z, y, w, 0.5, beta)
        assert not np.any(certified[1:])
        assert vertex[3:].tobytes() == beta[3:].tobytes()
        # a NaN iterate sorts its NaN keys after the zero-weight row: the
        # basis is that row, not the first row of NaN key, whose vertex 0
        # would be certified
        Z, y, w = np.ones((1, 4, 1)), np.array([[5.0, 0.0, -1.0, 1.0]]), np.array([[0.0, 1, 1, 1]])
        with np.errstate(invalid="ignore"):
            vertex, obj, certified = assert_same_snap(Z, y, w, 0.5, np.full((1, 1), np.nan))
        assert np.isnan(vertex[0, 0]) and not certified[0]

    def test_tied_keys_at_the_pth_position_pick_the_first_row(self):
        # p = 1, keys 2, 2, 1, 1, 2 at beta = 0: the basis is row 2, whose
        # vertex beats beta; row 3 would give a vertex worse than beta
        Z, y = np.ones((1, 5, 1)), np.array([[2.0, 2.0, 1.0, -1.0, 2.0]])
        vertex, _, _ = assert_same_snap(Z, y, np.ones((1, 5)), 0.5, np.zeros((1, 1)))
        assert vertex.tolist() == [[1.0]]
        # p = 2, keys 1, 1, 0 lead: the basis is rows 2 and 0, not 2 and 1
        Z = np.stack([np.ones(7), np.array([1.0, 2.0, 0.0, 3.0, 4.0, 5.0, 6.0])], axis=1)[None]
        y = np.array([[1.0, -1.0, 0.0, 3.5, 3.5, 5.5, 4.5]])
        for tau in (0.3, 0.5):
            vertex, _, _ = assert_same_snap(Z, y, np.ones((1, 7)), tau, np.zeros((1, 2)))
            assert vertex.tolist() == [[0.0, 1.0]]


class TestBlocks:
    def test_blocks_never_change_a_result(self, monkeypatch):
        opts, polished, polish = SolverOptions(), [], solver._polish_batch

        def spy(*args):
            polished.append(args[0].shape[0])
            return polish(*args)

        monkeypatch.setattr(solver, "_polish_batch", spy)
        for Z, y, w, tau in chain(continuous_batches(), padded_tied_batches()):
            # the whole batch in one call, then each problem in its own
            # call, the polish included
            whole = solver._solve_qr_batch(Z, y, w, tau, opts)
            calls = [
                solver._solve_qr_batch(Z[b : b + 1], y[b : b + 1], w[b : b + 1], tau, opts)
                for b in range(Z.shape[0])
            ]
            beta, obj, complete = zip(*calls)
            single = np.concatenate(beta), np.concatenate(obj), all(complete)
            for b, c in zip(whole, single):
                assert np.asarray(c).tobytes() == np.asarray(b).tobytes(), (Z.shape, tau)
        assert sum(polished) > 0  # the tied batches reach the polish

    @pytest.mark.parametrize("shape", [(126, 78, 2), (133, 107, 6)])
    def test_interior_point_calls_per_batch(self, monkeypatch, shape):
        # the interior point runs once per call, on the problems the
        # vertex descent leaves: none of the index fits (p = 2) of the
        # n=200 grid, all of its full-dimensional fits (p = 6)
        seen, frisch_newton = [], solver._frisch_newton

        def spy(X, *args):
            seen.append(X.shape[0])
            return frisch_newton(X, *args)

        monkeypatch.setattr(solver, "_frisch_newton", spy)
        rng = np.random.default_rng(25)
        B, n, p = shape
        Z = rng.normal(size=shape)
        Z[:, :, 0] = 1.0
        y = np.matmul(Z, rng.normal(size=p)) + rng.standard_t(3, size=(B, n))
        w = rng.uniform(0.1, 1.0, size=(B, n))
        w[np.arange(n) >= rng.integers(n // 3, n + 1, size=(B, 1))] = 0.0
        left = B
        if p == 2:
            s, vertex = solver._descend(Z, y, w, 0.5, SolverOptions())
            left -= np.count_nonzero(solver._snap_and_certify(Z[s], y[s], w[s], 0.5, vertex)[2])
            assert left == 0
        solver._solve_qr_batch(Z, y, w, 0.5, SolverOptions())
        assert len(seen) == (1 if left else 0) and sum(seen) == left


@st.composite
def two_column_batches(draw):
    """Stacked p = 2 problems of at most 12 rows on small integers, so
    that rows tie and repeat: each problem's rows of weight in {0, 0.5, 1,
    2} are followed by pad rows, copies of its last row at weight 0; the
    first column is an intercept or a general column."""
    B = draw(st.integers(1, 4))
    n = draw(st.integers(3, 12))
    intercept = draw(st.booleans())
    small = st.integers(-3, 3).map(float)
    Z = np.array(draw(st.lists(small, min_size=2 * B * n, max_size=2 * B * n))).reshape(B, n, 2)
    if intercept:
        Z[:, :, 0] = 1.0
    y = np.array(draw(st.lists(st.integers(-5, 5).map(float), min_size=B * n, max_size=B * n)))
    y = y.reshape(B, n)
    weights = st.sampled_from([0.0, 0.5, 1.0, 2.0])
    w = np.array(draw(st.lists(weights, min_size=B * n, max_size=B * n))).reshape(B, n)
    for b, rows in enumerate(draw(st.lists(st.integers(2, n), min_size=B, max_size=B))):
        Z[b, rows:], y[b, rows:], w[b, rows:] = Z[b, rows - 1], y[b, rows - 1], 0.0
    return Z, y, w, draw(st.sampled_from([0.1, 0.25, 0.5, 0.9]))


class TestVertexDescent:
    def test_certified_vertices_are_the_interior_points_bytes(self):
        # the snap solves a basis in row order, so a certified vertex
        # depends on its basis set alone, not on the path that found it
        opts, both = SolverOptions(), 0
        for Z, y, w, tau in chain(continuous_batches(), padded_tied_batches()):
            if Z.shape[2] != 2:
                continue
            s, vertex = solver._descend(Z, y, w, tau, opts)
            got = solver._snap_and_certify(Z[s], y[s], w[s], tau, vertex)
            inner = solver._frisch_newton(weighted_design(Z, w), y * w, tau, opts)[0]
            want = [v[s] for v in solver._snap_and_certify(Z, y, w, tau, inner)]
            same = got[2] & want[2]
            for g, r in zip(got[:2], want[:2]):
                assert g[same].tobytes() == r[same].tobytes(), (Z.shape, tau)
            both += np.count_nonzero(same)
        assert both > 0

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(two_column_batches())
    def test_objectives_attain_the_oracle(self, batch):
        Z, y, w, tau = batch
        problems = [
            WeightedRegressionProblem(Z[b], y[b], w[b], LossSpec.quantile(tau))
            for b in range(Z.shape[0])
        ]
        best = []
        for prob in problems:
            try:
                best.append(prob.objective(qr_oracle(prob)))
            except DegenerateProblemError:
                assume(False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            beta, obj, complete = solver._solve_qr_batch(Z, y, w, tau, SolverOptions())
        assert complete
        for b, prob in enumerate(problems):
            slack = 1e-12 * best[b] + 4 * np.spacing(np.sum(w[b] * np.abs(y[b])))
            assert abs(prob.objective(beta[b]) - best[b]) <= slack, (b, tau)
