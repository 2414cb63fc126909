"""The alternating index estimator: inner step, outer step, full loop."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qmave import (
    Dataset,
    DegenerateDirectionError,
    DegenerateProblemError,
    DegenerateUpdateError,
    InsufficientDataError,
    InvalidInputError,
    KernelSpec,
    LossSpec,
    QmaveConfig,
    SimConfig,
    NoiseLaw,
    estimation_error,
    gen_model8,
    inner_step,
    outer_problem,
    outer_step,
    qmave_fit,
    qr_oracle,
    solve_weighted_ls,
)
from qmave import fit as fit_module
from qmave.core import BandwidthRule, coordinate_dispersion, default_bandwidth, kernel_eval
from qmave.fit import _INIT_LADDER, _median_window_count, eq_objective, resolve_bandwidth
from qmave.initial import TrimSpec, trim_mask
from qmave.localfit import _as_unit, _index_windows, index_fit_batch

EPA = KernelSpec.epanechnikov()


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def median_cfg(**kw):
    return QmaveConfig(loss=LossSpec.quantile(0.5), **kw)


class TestEstimationError:
    def test_identical(self):
        theta = unit([1, 2, 2])
        assert estimation_error(theta, theta) == 0.0

    def test_sign_flip(self):
        theta = unit([1, 2, 2])
        assert estimation_error(-theta, theta) == 0.0

    def test_orthogonal(self):
        assert estimation_error([1.0, 0.0], [0.0, 1.0]) == pytest.approx(np.sqrt(2))

    def test_requires_unit_vectors(self):
        with pytest.raises(InvalidInputError):
            estimation_error([1.0, 1.0], [1.0, 0.0])

    def test_rejects_unequal_lengths(self):
        with pytest.raises(InvalidInputError, match="length 3, got length 2"):
            estimation_error(unit([1, 2, 2]), [1.0, 0.0])


class TestInnerStep:
    def test_exact_linear_data(self):
        rng = np.random.default_rng(60)
        theta = unit([1.0, 2.0])
        X = rng.normal(size=(40, 2))
        data = Dataset(X, X @ theta)
        fits = inner_step(data, theta, median_cfg(h=1.0))
        assert fits[0].size >= 2
        for j, a, b, _ in zip(*fits):
            assert a == pytest.approx(float(theta @ X[j]), abs=1e-7)
            assert b == pytest.approx(1.0, abs=1e-7)

    def test_constant_response(self):
        rng = np.random.default_rng(61)
        X = rng.normal(size=(30, 2))
        data = Dataset(X, np.full(30, 2.5))
        fits = inner_step(data, unit([1.0, 0.0]), median_cfg(h=1.5))
        for _, a, b, _ in zip(*fits):
            assert a == pytest.approx(2.5, abs=1e-10)
            assert b == pytest.approx(0.0, abs=1e-10)

    def test_each_fit_matches_oracle(self):
        from qmave import WeightedRegressionProblem
        from qmave.core import kernel_eval

        rng = np.random.default_rng(62)
        X = rng.normal(size=(15, 2))
        Y = rng.normal(size=15)
        data = Dataset(X, Y)
        theta = unit([1.0, -0.5])
        h = 1.2
        fits = inner_step(data, theta, median_cfg(h=h, trim=__import__("qmave").TrimSpec(0.0)))
        t = X @ theta
        for j, a, b, _ in zip(*fits):
            tj = t - t[j]
            w = kernel_eval(EPA, tj / h)
            keep = w > 0
            prob = WeightedRegressionProblem(
                np.column_stack([np.ones(keep.sum()), tj[keep]]),
                Y[keep],
                w[keep],
                LossSpec.quantile(0.5),
            )
            o_fit = prob.objective([a, b])
            o_orc = prob.objective(qr_oracle(prob))
            assert abs(o_fit - o_orc) <= 1e-8 * (1 + abs(o_orc))

    def test_too_few_usable_anchors(self):
        X = np.linspace(0, 100, 12).reshape(-1, 1)
        data = Dataset(X, np.arange(12, dtype=float))
        with pytest.raises(InsufficientDataError):
            inner_step(data, np.array([1.0]), median_cfg(h=1e-8))


class TestStepsRejectWrongLengthTheta:
    @pytest.mark.parametrize("step", ["inner_step", "outer_problem", "outer_step", "eq_objective"])
    def test_wrong_length_theta(self, step):
        rng = np.random.default_rng(62)
        X = rng.normal(size=(40, 3))
        data = Dataset(X, X @ unit([1.0, 2.0, 0.0]))
        cfg = median_cfg(h=1.0)
        fits = inner_step(data, unit([1.0, 2.0, 0.0]), cfg)
        call = {
            "inner_step": lambda theta: inner_step(data, theta, cfg),
            "outer_problem": lambda theta: outer_problem(data, theta, fits, cfg),
            "outer_step": lambda theta: outer_step(data, theta, fits, cfg),
            "eq_objective": lambda theta: eq_objective(data, theta, fits, cfg),
        }[step]
        with pytest.raises(InvalidInputError, match="length 3, got length 2"):
            call(unit([1.0, 2.0]))


class TestOuterStep:
    def test_fixed_point_on_noiseless_monotone_data(self):
        rng = np.random.default_rng(63)
        theta0 = unit([1.0, 2.0, 0.0, 0.0, 2.0])
        X = rng.normal(size=(150, 5))
        data = Dataset(X, X @ theta0)
        cfg = median_cfg(h=resolve_bandwidth(Dataset(X, X @ theta0), theta0, median_cfg()))
        fits = inner_step(data, theta0, cfg)
        new = outer_step(data, theta0, fits, cfg)
        assert estimation_error(new, theta0) < 1e-6

    def test_zero_slopes_degenerate(self):
        rng = np.random.default_rng(64)
        X = rng.normal(size=(30, 2))
        data = Dataset(X, np.full(30, 1.0))
        cfg = median_cfg(h=2.0)
        fits = inner_step(data, unit([1.0, 0.0]), cfg)
        assert all(abs(b) < 1e-12 for b in fits[2])
        with pytest.raises(DegenerateUpdateError):
            outer_step(data, unit([1.0, 0.0]), fits, cfg)

    @pytest.mark.parametrize("loss", [LossSpec.quantile(0.5), LossSpec.squared()])
    def test_outer_problem_without_anchors_is_invalid(self, loss):
        # no local fit leaves no pooled row, which the problem rejects
        data, theta = gen_model8(SimConfig(n=200, seed=3))
        empty = np.empty(0)
        fits = (np.empty(0, dtype=np.intp), empty, empty, empty)
        with pytest.raises(InvalidInputError, match=r"design must be n>=1 by p>=1, got \(0, 5\)"):
            outer_problem(data, theta, fits, QmaveConfig(loss=loss, h=0.5))

    def test_matches_oracle_on_tiny_instance(self):
        rng = np.random.default_rng(65)
        X = rng.normal(size=(8, 2))
        Y = rng.normal(size=8)
        data = Dataset(X, Y)
        theta = unit([1.0, 1.0])
        cfg = median_cfg(h=2.0, trim=__import__("qmave").TrimSpec(0.0))
        fits = inner_step(data, theta, cfg)
        new = outer_step(data, theta, fits, cfg)
        prob = outer_problem(data, theta, fits, cfg)
        assert prob.n <= 64 and prob.p == 2
        raw = _raw_solution(prob)
        # the returned index is the solver's solution, normalised and
        # sign-aligned; its objective matches the exhaustive oracle
        np.testing.assert_allclose(np.abs(new), np.abs(raw / np.linalg.norm(raw)), atol=1e-12)
        o_raw = prob.objective(raw)
        o_orc = prob.objective(qr_oracle(prob))
        assert abs(o_raw - o_orc) <= 1e-8 * (1 + abs(o_orc))

    def test_sign_aligned_with_incoming_theta(self):
        rng = np.random.default_rng(66)
        theta0 = unit([1.0, 1.0])
        X = rng.normal(size=(60, 2))
        data = Dataset(X, X @ theta0 + 0.05 * rng.normal(size=60))
        cfg = median_cfg(h=1.0)
        j, a, b, effw = fits = inner_step(data, theta0, cfg)
        new = outer_step(data, theta0, fits, cfg)
        assert float(new @ theta0) > 0
        # negated slopes negate the pooled design and so the raw update,
        # which the step turns back to agree with the incoming theta
        flipped = outer_step(data, theta0, (j, a, -b, effw), cfg)
        np.testing.assert_allclose(flipped, new, atol=1e-12)

    @pytest.mark.parametrize("loss", [LossSpec.quantile(0.5), LossSpec.squared()])
    def test_zero_update_has_no_usable_direction(self, loss):
        # local levels equal to a constant response leave every pooled
        # response 0, so the update is the zero vector
        rng = np.random.default_rng(64)
        data = Dataset(rng.normal(size=(30, 2)), np.full(30, 1.0))
        theta, cfg = unit([1.0, 0.0]), QmaveConfig(loss=loss, h=2.0)
        j, a, b, effw = inner_step(data, theta, cfg)
        fits = (j, np.ones_like(a), np.ones_like(b), effw)
        with pytest.raises(DegenerateUpdateError, match="index update has no usable direction"):
            outer_step(data, theta, fits, cfg)


    @pytest.mark.parametrize("loss", [LossSpec.quantile(0.5), LossSpec.squared()])
    def test_outer_build_peak_is_the_design_and_eight_row_vectors(self, loss):
        # the build keeps no second (rows, d) array beside the design: its
        # peak is the design plus eight float64 or int64 vectors of one
        # entry per row
        data, _ = gen_model8(SimConfig(n=1000, seed=3))
        cfg = QmaveConfig(loss=loss, init=np.eye(5)[0])
        run = replace(cfg, h=resolve_bandwidth(data, cfg.init, cfg))
        fits = inner_step(data, cfg.init, run)
        tracemalloc.start()
        try:
            problem = outer_problem(data, cfg.init, fits, run)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert problem.n > 100_000
        assert peak <= problem.Z.nbytes + 8 * problem.n * 8

    @pytest.mark.parametrize("step", [outer_step, eq_objective])
    def test_squared_step_builds_no_pooled_design(self, step):
        # the squared loss takes its normal equations and objective from
        # the windows a block of anchors at a time: its peak is below one
        # (pairs, d) design
        data, _ = gen_model8(SimConfig(n=1000, seed=3))
        cfg = QmaveConfig(loss=LossSpec.squared(), init=np.eye(5)[0])
        run = replace(cfg, h=resolve_bandwidth(data, cfg.init, cfg))
        fits = inner_step(data, cfg.init, run)
        _, _, lo, hi = _index_windows(data, cfg.init, fits[0], run.h)
        pairs = int(np.sum(hi - lo))
        tracemalloc.start()
        try:
            step(data, cfg.init, fits, run)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pairs > 100_000
        assert peak < pairs * data.d * np.dtype(float).itemsize

    @pytest.mark.parametrize("step", [outer_step, eq_objective])
    def test_squared_step_forms_pairs_per_chunk(self, step):
        # each block takes its weights from the windows: no index array
        # of all ~150k pairs (2.4 MB) lives beside the blocks
        data, _ = gen_model8(SimConfig(n=1000, seed=3))
        cfg = QmaveConfig(loss=LossSpec.squared(), init=np.eye(5)[0])
        run = replace(cfg, h=resolve_bandwidth(data, cfg.init, cfg))
        fits = inner_step(data, cfg.init, run)
        tracemalloc.start()
        try:
            step(data, cfg.init, fits, run)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6


def _raw_solution(prob):
    from qmave import solve_weighted_qr

    return solve_weighted_qr(prob)


class TestQmaveFit:
    def test_noiseless_fixed_point_from_truth(self):
        rng = np.random.default_rng(67)
        theta0 = unit([1.0, 2.0, 0.0, 0.0, 2.0])
        X = rng.normal(size=(150, 5))
        data = Dataset(X, X @ theta0)
        result = qmave_fit(data, median_cfg(init=theta0.copy()))
        assert result.converged
        assert result.iterations <= 2
        assert estimation_error(result.theta, theta0) <= 1e-6

    def test_init_of_wrong_length(self):
        data, _ = gen_model8(SimConfig(n=60, seed=3))
        with pytest.raises(InvalidInputError, match="init must have length 5, got length 2"):
            qmave_fit(data, median_cfg(init=[1.0, 0.0]))
        with pytest.raises(InvalidInputError, match="init must be numeric"):
            qmave_fit(data, median_cfg(init="abc"))

    def test_too_small_sample(self):
        X = np.ones((3, 5)) + np.arange(15).reshape(3, 5)
        with pytest.raises(InsufficientDataError):
            qmave_fit(Dataset(X, np.arange(3, dtype=float)), median_cfg())

    def test_benchmark_model_cold_start(self):
        data, theta0 = gen_model8(SimConfig(n=200, noise=NoiseLaw.SCALED_NORMAL, seed=7))
        result = qmave_fit(data, median_cfg(tol=1e-3, max_iter=30))
        assert estimation_error(result.theta, theta0) < 0.25

    def test_trace_entries_unit_norm(self):
        data, _ = gen_model8(SimConfig(n=100, noise=NoiseLaw.SCALED_NORMAL, seed=8))
        result = qmave_fit(data, median_cfg(tol=1e-3, max_iter=10))
        for theta in result.theta_trace:
            assert np.linalg.norm(theta) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(result.objective_trace))

    def test_deterministic(self):
        data, _ = gen_model8(SimConfig(n=100, noise=NoiseLaw.SCALED_T5, seed=9))
        r1 = qmave_fit(data, median_cfg(tol=1e-3, max_iter=10))
        r2 = qmave_fit(data, median_cfg(tol=1e-3, max_iter=10))
        np.testing.assert_array_equal(r1.theta, r2.theta)
        assert r1.objective_trace == r2.objective_trace

    def test_max_iter_exhaustion_returns_best_iterate(self):
        data, _ = gen_model8(SimConfig(n=100, noise=NoiseLaw.SCALED_NORMAL, seed=10))
        result = qmave_fit(data, median_cfg(tol=1e-12, max_iter=2))
        assert not result.converged
        assert result.iterations == 2
        # one objective per attempted theta, including the final one
        assert len(result.objective_trace) == 3
        best = int(np.argmin(result.objective_trace))
        np.testing.assert_array_equal(result.theta, result.theta_trace[best])

    def test_squared_loss_variant_runs(self):
        data, theta0 = gen_model8(SimConfig(n=150, noise=NoiseLaw.SCALED_NORMAL, seed=11))
        result = qmave_fit(data, QmaveConfig(loss=LossSpec.squared(), tol=1e-3, max_iter=20))
        assert estimation_error(result.theta, theta0) < 0.4

    def test_explicit_bandwidth_respected(self):
        data, _ = gen_model8(SimConfig(n=100, noise=NoiseLaw.SCALED_NORMAL, seed=12))
        cfg = median_cfg(h=0.9, tol=1e-3, max_iter=5)
        result = qmave_fit(data, cfg)
        assert result.iterations >= 1

    def test_step_errors_carry_iteration_context(self):
        rng = np.random.default_rng(70)
        X = rng.normal(size=(30, 2))
        # one outlier on a constant response: every local median fit is flat
        Y = np.full(30, 3.0)
        Y[0] = 4.0
        data = Dataset(X, Y)
        with pytest.raises(DegenerateUpdateError, match="iteration 1"):
            qmave_fit(data, median_cfg(init=unit([1.0, 0.0]), h=2.0))

    def test_max_iter_must_be_integer(self):
        with pytest.raises(InvalidInputError, match="max_iter must be an integer >= 1, got 2.5"):
            QmaveConfig(max_iter=2.5)

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            QmaveConfig(tol=0.0)
        with pytest.raises(InvalidInputError):
            QmaveConfig(max_iter=0)
        for h in (-1.0, np.inf):
            with pytest.raises(InvalidInputError):
                QmaveConfig(h=h)
        # each spec field takes its spec type, not its name or value
        for name, bad in (("loss", "quantile"), ("kernel", "quartic"), ("trim", 0.1)):
            with pytest.raises(InvalidInputError, match=f"{name} must be a"):
                QmaveConfig(**{name: bad})


class TestObjectiveTrace:
    """The trace records the objective of the outer problem each iteration
    solves, which is the public pooled objective at that iterate."""

    @pytest.mark.parametrize("loss", [LossSpec.quantile(0.5), LossSpec.squared()])
    def test_trace_is_eq_objective_at_each_iterate(self, loss):
        data, _ = gen_model8(SimConfig(n=200, seed=1))
        cfg = QmaveConfig(loss=loss, init=np.eye(5)[0])
        result = qmave_fit(data, cfg)
        run = replace(cfg, h=resolve_bandwidth(data, cfg.init, cfg))
        assert result.iterations >= 3 and len(result.objective_trace) == result.iterations
        for k, (theta, objective) in enumerate(zip(result.theta_trace, result.objective_trace)):
            want = eq_objective(data, theta, inner_step(data, theta, run), run)
            if k == 0:  # an exactly unit init is the iterate itself
                assert objective == want
            else:  # the recorded iterate is the solved one renormalised
                assert objective == pytest.approx(want, rel=1e-13, abs=0)

    def test_fit_peak_memory_is_one_iteration(self):
        # no iteration's outer problem may outlive it: a fit's peak stays
        # that of one inner plus one outer step
        data, _ = gen_model8(SimConfig(n=1000, seed=3))
        cfg = QmaveConfig(loss=LossSpec.squared(), init=np.eye(5)[0], max_iter=3)
        run = replace(cfg, h=resolve_bandwidth(data, cfg.init, cfg))
        tracemalloc.start()
        try:
            outer_step(data, cfg.init, inner_step(data, cfg.init, run), run)
            step_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            assert qmave_fit(data, cfg).iterations == 3
            fit_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit_peak <= 1.2 * step_peak


class TestDegenerateCovariates:
    """A constant or collinear covariate leaves the index unidentified;
    ``qmave_fit`` says so at entry, for both losses."""

    LOSSES = [LossSpec.quantile(0.5), LossSpec.squared()]

    @pytest.mark.parametrize("loss", LOSSES)
    def test_constant_column_is_named(self, loss):
        data, _ = gen_model8(SimConfig(n=200, noise=NoiseLaw.SCALED_NORMAL, seed=2))
        X = data.X.copy()
        X[:, 2] = 1.0
        with pytest.raises(InvalidInputError, match="covariate column 2 is constant"):
            qmave_fit(Dataset(X, data.Y), QmaveConfig(loss=loss))

    @pytest.mark.parametrize("loss", LOSSES)
    def test_collinear_columns_state_the_rank(self, loss):
        data, _ = gen_model8(SimConfig(n=200, noise=NoiseLaw.SCALED_NORMAL, seed=2))
        X = np.column_stack([data.X, data.X[:, 0]])
        with pytest.raises(InvalidInputError, match="collinear after centring: rank 5 of 6"):
            qmave_fit(Dataset(X, data.Y), QmaveConfig(loss=loss))
        # collinear only after centring: a column equal to another plus a constant
        X[:, 5] = 2.0 * data.X[:, 1] + 7.0
        with pytest.raises(InvalidInputError, match="rank 5 of 6"):
            qmave_fit(Dataset(X, data.Y), QmaveConfig(loss=loss))


class TestConstantResponse:
    """A constant Y carries no index; ``qmave_fit`` says so at entry
    rather than failing in the bandwidth ladder or returning a direction
    that fits noise."""

    @pytest.mark.parametrize("loss", TestDegenerateCovariates.LOSSES)
    def test_constant_y_is_rejected(self, loss):
        data, _ = gen_model8(SimConfig(n=200, noise=NoiseLaw.SCALED_NORMAL, seed=2))
        with pytest.raises(InvalidInputError, match="Y is constant"):
            qmave_fit(Dataset(data.X, np.full(data.n, 3.0)), QmaveConfig(loss=loss))


class TestCovariateScale:
    """Scaling X by a common factor scales the index values and the
    bandwidth alike, and shifting X moves neither, so the fitted direction
    stays put: every local problem is solved in bandwidth units and no
    solver carries an absolute constant."""

    @pytest.mark.parametrize("seed", [2, 3])
    @pytest.mark.parametrize("loss", TestDegenerateCovariates.LOSSES)
    def test_theta_is_unchanged_when_x_is_scaled(self, loss, seed):
        data, _ = gen_model8(SimConfig(n=200, noise=NoiseLaw.SCALED_NORMAL, seed=seed))
        cfg = QmaveConfig(loss=loss)
        theta = qmave_fit(data, cfg).theta
        for s in (1e-6, 1e-4, 1e-2, 1e2, 1e4, 1e6):
            scaled = qmave_fit(Dataset(data.X * s, data.Y), cfg).theta
            assert estimation_error(scaled, theta) <= 1e-8, s

    @pytest.mark.parametrize("seed", [2, 3])
    @pytest.mark.parametrize("loss", TestDegenerateCovariates.LOSSES)
    def test_theta_is_unchanged_when_x_is_shifted(self, loss, seed):
        # X + 1e6 rounds X to about 1e-10, so it is compared with the
        # shifted data moved back, which carries the same rounding
        data, _ = gen_model8(SimConfig(n=200, noise=NoiseLaw.SCALED_NORMAL, seed=seed))
        cfg = QmaveConfig(loss=loss)
        theta = qmave_fit(data, cfg).theta
        shifted = qmave_fit(Dataset(data.X + 3.0, data.Y), cfg).theta
        assert estimation_error(shifted, theta) <= 1e-8
        far = data.X + 1e6
        theta_far = qmave_fit(Dataset(far, data.Y), cfg).theta
        theta_back = qmave_fit(Dataset(far - 1e6, data.Y), cfg).theta
        assert estimation_error(theta_far, theta_back) <= 1e-6


class TestScaleOutOfRange:
    """Data on a scale floating point cannot carry through the fit get an
    error that names it, for both losses, not a bandwidth-ladder message
    or a NaN direction blamed on theta."""

    @pytest.mark.parametrize("init", [None, np.eye(5)[0]])
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    @pytest.mark.parametrize("loss", TestDegenerateCovariates.LOSSES)
    def test_covariate_scale_is_named(self, loss, scale, init):
        data, _ = gen_model8(SimConfig(n=200, seed=3))
        cfg = QmaveConfig(loss=loss, init=init)
        with pytest.raises(InvalidInputError, match="covariate column 0 is on a scale"):
            qmave_fit(Dataset(data.X * scale, data.Y), cfg)

    @pytest.mark.parametrize("loss", TestDegenerateCovariates.LOSSES)
    def test_overflowing_slopes_are_named_by_the_initial_estimate(self, loss):
        # the slopes overflow on the way there, with numpy's warnings
        data, _ = gen_model8(SimConfig(n=200, seed=3))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DegenerateDirectionError) as err:
                qmave_fit(Dataset(data.X, data.Y * 1e300), QmaveConfig(loss=loss))
        assert "automatic initialisation failed" in str(err.value)
        assert "local slopes or their squares are not finite" in str(err.value)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "loss, scale",
        [  # the squared-loss cases keep their plain ids
            pytest.param(loss, scale, id=f"{prefix}{scale}")
            for prefix, loss in (("", LossSpec.squared()), ("quantile-", LossSpec.quantile(0.5)))
            for scale in (1e160, 1e200, 1e250, 1e300)
        ],
    )
    def test_overflowing_outer_gram_is_a_degenerate_update(self, loss, scale):
        # the local fits hold, but the pooled Gram of their slopes
        # overflows; it is named before any solve, without numpy's warnings
        data, _ = gen_model8(SimConfig(n=200, seed=3))
        cfg = QmaveConfig(loss=loss, init=np.eye(5)[0])
        with pytest.raises(
            DegenerateUpdateError,
            match="iteration 1: weighted cross-product matrix is not finite: "
            "the design or response overflows",
        ):
            qmave_fit(Dataset(data.X, data.Y * scale), cfg)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "loss, scale",
        [  # the 2**-664 cases keep their plain ids
            pytest.param(loss, scale, id=f"loss{k}{suffix}")
            for k, loss in enumerate(TestDegenerateCovariates.LOSSES)
            for suffix, scale in (("", 2.0**-664), ("-1e-300", 1e-300))
        ],
    )
    def test_underflowing_outer_gram_is_a_degenerate_update(self, loss, scale):
        # under Y * 2**-664 the local slopes are so small that the pooled
        # Gram's diagonal underflows to 0: named at the first outer step,
        # where the quantile fit used to converge to a wrong direction;
        # under Y * 1e-300 the interior point's steps overflow first, silently
        data, _ = gen_model8(SimConfig(n=200, seed=3))
        with pytest.raises(
            DegenerateUpdateError,
            match="iteration 1: weighted cross-product matrix underflows",
        ):
            qmave_fit(Dataset(data.X, data.Y * scale), QmaveConfig(loss=loss))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_squared_outer_gram_is_a_degenerate_update(self):
        # under Y * 1e-160 the pooled Gram's diagonal is subnormal: the
        # squared loss names it at the first outer step, where it used to
        # run 50 iterations to error 0.094 (0.054 unscaled)
        data, _ = gen_model8(SimConfig(n=200, seed=3))
        with pytest.raises(
            DegenerateUpdateError,
            match="iteration 1: weighted cross-product matrix underflows: "
            "a diagonal entry is subnormal",
        ):
            qmave_fit(Dataset(data.X, data.Y * 1e-160), QmaveConfig(loss=LossSpec.squared()))


def far_row_data():
    """n=200 model data plus one row far out along theta0 with Y = 1e308:
    no window of the fit holds it, but a hand-made fit at it with a =
    -1e308 makes its pooled response Y_i - a_j overflow."""
    data, theta0 = gen_model8(SimConfig(n=200, seed=3))
    X = np.vstack([data.X, data.X.mean(axis=0) + 25.0 * theta0])
    return Dataset(X, np.append(data.Y, 1e308)), theta0


def with_far_fit(data, fits):
    """``fits`` plus a hand-made fit at the far row whose a is -1e308."""
    j, a, b, effw = fits
    return np.append(j, data.n - 1), np.append(a, -1e308), np.append(b, 1.0), np.append(effw, 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "loss", [LossSpec.squared(), LossSpec.quantile(0.5)], ids=["squared", "quantile"]
)
class TestOverflowingPooledRows:
    """Pooled rows that are not finite, whether the squared loss sums them
    a block of anchors at a time or the quantile loss builds its pooled
    problem, raise an error that names the overflow, with no numpy
    warning, and the unconverged tail of a fit never ranks an iterate by
    such an objective."""

    def test_objective_and_step_name_the_overflow(self, loss):
        data, theta0 = far_row_data()
        cfg = QmaveConfig(loss=loss, h=0.5)
        fits = with_far_fit(data, inner_step(data, theta0, cfg))
        message = "pooled rows are not finite: Y_i - a_j or b_j"
        with pytest.raises(DegenerateProblemError, match=message):
            outer_problem(data, theta0, fits, cfg)
        with pytest.raises(DegenerateProblemError, match=message):
            eq_objective(data, theta0, fits, cfg)
        with pytest.raises(DegenerateUpdateError, match=message):
            outer_step(data, theta0, fits, cfg)

    def test_unconverged_tail_skips_the_overflowing_objective(self, monkeypatch, loss):
        data, theta0 = far_row_data()
        cfg = QmaveConfig(loss=loss, init=theta0, tol=1e-15, max_iter=3)
        index_step, calls = fit_module.inner_step, []

        def tail_overflows(*args):
            calls.append(len(calls))
            fits = index_step(*args)
            return with_far_fit(data, fits) if len(calls) > cfg.max_iter else fits

        monkeypatch.setattr(fit_module, "inner_step", tail_overflows)
        fit = qmave_fit(data, cfg)
        assert len(calls) == cfg.max_iter + 1 and not fit.converged
        assert len(fit.objective_trace) == cfg.max_iter
        assert np.all(np.isfinite(fit.objective_trace))
        best = int(np.argmin(fit.objective_trace))
        assert fit.theta.tobytes() == fit.theta_trace[best].tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOverflowInOneBlock:
    """The squared loss sums its objective a block of anchors at a time
    (`fit._anchor_blocks`): only the block whose objective is not finite
    has its pooled rows checked, and a cell off every window, whose weight
    is 0, never enters the sum."""

    def test_one_overflowing_block_of_several_names_the_overflow(self, monkeypatch):
        data, theta0 = far_row_data()
        cfg = QmaveConfig(loss=LossSpec.squared(), h=0.5)
        fits = with_far_fit(data, inner_step(data, theta0, cfg))
        anchor_blocks, seen = fit_module._anchor_blocks, []

        def spy(*args):
            seen.append(anchor_blocks(*args))
            return seen[-1]

        monkeypatch.setattr(fit_module, "_BOX_CELLS", 400)
        monkeypatch.setattr(fit_module, "_anchor_blocks", spy)
        message = "pooled rows are not finite: Y_i - a_j or b_j"
        with pytest.raises(DegenerateProblemError, match=message):
            eq_objective(data, theta0, fits, cfg)
        with pytest.raises(DegenerateUpdateError, match=message):
            outer_step(data, theta0, fits, cfg)
        # the far anchor, last along the index, is a block of its own
        assert len(seen[0]) >= 5 and seen[0][-1] == (fits[0].size - 1, fits[0].size)
        # without it, every block sums
        normal = inner_step(data, theta0, cfg)
        assert np.isfinite(eq_objective(data, theta0, normal, cfg))

    def test_overflow_off_the_windows_is_not_summed(self):
        # three rows far out along theta0, 0.45 apart at h = 0.5: anchors
        # at the first and the last share a block, and the last row lies
        # off the first anchor's window, where its residual's square
        # overflows; in the window it is 8.1e307
        data, theta0 = gen_model8(SimConfig(n=200, seed=3))
        far = data.X.mean(axis=0) + np.array([25.0, 25.45, 25.9])[:, None] * theta0
        data = Dataset(np.vstack([data.X, far]), np.append(data.Y, np.zeros(3)))
        cfg = QmaveConfig(loss=LossSpec.squared(), h=0.5)
        j, a, b, effw = inner_step(data, theta0, cfg)
        fits = (
            np.append(j, [200, 202]),
            np.append(a, [0.0, 0.0]),
            np.append(b, [2e154, 0.0]),
            np.append(effw, [1.0, 1.0]),
        )
        want = outer_problem(data, theta0, fits, cfg).objective(theta0)
        assert 1e307 < want < np.inf
        assert eq_objective(data, theta0, fits, cfg) == pytest.approx(want, rel=1e-13, abs=0)
        with pytest.raises(DegenerateUpdateError, match="matrix is not finite"):
            outer_step(data, theta0, fits, cfg)


def moment_window_data(kind):
    """The window data of ``tools/same_results.py``: n=200, d=4, with
    ``theta`` and the bandwidth at ``width`` index sd of each kind."""
    rng = np.random.default_rng(17)
    X = rng.normal(size=(200, 4))
    theta = unit([1.0, -0.5, 2.0, 0.5])
    if kind in ("ties", "grid"):
        X = np.round(X * 4) / 4
    if kind == "grid":
        # index on a quarter grid: kernel edges fall exactly on rows
        theta = np.array([1.0, 0.0, 0.0, 0.0])
    elif kind == "duplicates":
        X[100:] = X[:100]
    elif kind == "shifted":
        X = X * 1e-3 + 1e6
    Y = np.round(X @ np.ones(4) + rng.standard_t(3, size=200), 1)
    return Dataset(X, Y), theta


MOMENT_CASES = [
    (kind, width)
    for kind in ("plain", "ties", "grid", "duplicates", "shifted")
    for width in (0.02, 0.1, 0.5, 3.0)
    if kind not in ("ties", "grid") or width > 0.02  # no such window holds a usable fit
]


def moment_case(kind, width, kernel):
    """Data, a ``theta`` a few ulps off unit length, the squared-loss
    index fits at every third row and their config."""
    data, theta = moment_window_data(kind)
    sd = np.std(data.X @ theta, ddof=1)
    h = {0.02: 0.25, 0.1: 0.5, 0.5: 0.75, 3.0: 3.0}[width] if kind == "grid" else width * sd
    cfg = QmaveConfig(loss=LossSpec.squared(), kernel=kernel, h=h)
    fits = index_fit_batch(data, theta, np.arange(0, 200, 3), h, cfg.loss, kernel)
    assert fits[0].size >= 2
    # the windows are taken at the unit theta, whose bytes differ
    tilt = theta * (1 + 8 * np.finfo(float).eps)
    assert _as_unit(tilt, "theta").tobytes() != tilt.tobytes()
    return data, tilt, fits, cfg


class TestWindowMomentStep:
    """The squared loss takes its index update from each anchor's window
    moments, a block of anchors at a time, and its objective cell by cell,
    with no pooled row formed: both agree with the pooled problem to
    rounding, on ties, duplicates, a quarter grid and X far from 0, and
    the blocks change only rounding."""

    @pytest.mark.parametrize("kernel", [EPA, KernelSpec.quartic()], ids=["epa", "quartic"])
    @pytest.mark.parametrize("kind, width", MOMENT_CASES)
    def test_matches_the_pooled_problem(self, kind, width, kernel):
        data, theta, fits, cfg = moment_case(kind, width, kernel)
        problem = outer_problem(data, theta, fits, cfg)
        beta = solve_weighted_ls(problem)
        assert estimation_error(outer_step(data, theta, fits, cfg), unit(beta)) <= 1e-13
        want = problem.objective(theta)
        assert eq_objective(data, theta, fits, cfg) == pytest.approx(want, rel=1e-13, abs=0)

    def test_shifted_windows_move_with_theta_bytes(self):
        # the shifted case has teeth: index values near 1e6 moved by
        # theta's last bits move the narrowest windows' weights
        data, theta, fits, cfg = moment_case("shifted", 0.02, EPA)
        moved = data.X @ theta - data.X @ _as_unit(theta, "theta")
        assert np.max(np.abs(moved)) > 1e-5 * cfg.h

    @pytest.mark.parametrize("kernel", [EPA, KernelSpec.quartic()], ids=["epa", "quartic"])
    @pytest.mark.parametrize("kind, width", MOMENT_CASES)
    def test_blocks_change_only_rounding(self, monkeypatch, kind, width, kernel):
        data, theta, fits, cfg = moment_case(kind, width, kernel)
        results = [(outer_step(data, theta, fits, cfg), eq_objective(data, theta, fits, cfg))]
        with monkeypatch.context() as patch:  # one anchor per block
            patch.setattr(fit_module, "_BOX_CELLS", 1)
            results.append((outer_step(data, theta, fits, cfg), eq_objective(data, theta, fits, cfg)))
        with monkeypatch.context() as patch:  # one block
            patch.setattr(fit_module, "_anchor_blocks", lambda lo, hi, cells: [(0, lo.size)])
            results.append((outer_step(data, theta, fits, cfg), eq_objective(data, theta, fits, cfg)))
        (step, objective), one, whole = results
        for other in (one, whole):
            assert other[1] == pytest.approx(objective, rel=1e-14, abs=0)
        # at 0.02 index sd the Gram's condition number is about 4e5, and
        # one block across windows that do not meet cancels digits in the
        # shift (5e-13 on the duplicates), which `_anchor_blocks` rules out
        assert estimation_error(one[0], step) <= (1e-14 if width > 0.02 else 1e-13)
        if width > 0.02:
            assert estimation_error(whole[0], step) <= 1e-14

    def test_blocks_hold_meeting_windows_within_the_budget(self):
        data, theta, fits, cfg = moment_case("plain", 0.5, EPA)
        t, _, lo, hi = _index_windows(data, theta, fits[0], cfg.h)
        walk = np.argsort(t[fits[0]], kind="stable")
        lo, hi = lo[walk], hi[walk]
        for cells in (1, 200, 2000, 10**6):
            blocks = fit_module._anchor_blocks(lo, hi, cells)
            assert [s for s, _ in blocks] == [0] + [e for _, e in blocks[:-1]]
            assert blocks[-1][1] == lo.size
            for s, e in blocks:
                assert e == s + 1 or (
                    lo[e - 1] < hi[s] and 3 * (e - s) * (hi[e - 1] - lo[s]) <= cells
                )
        assert len(fit_module._anchor_blocks(lo, hi, 10**6)) > 1  # windows that do not meet


class TestResponseAffineMap:
    """An affine map of Y maps every local fit and the outer response
    alike, so the fitted direction stays put."""

    @pytest.mark.parametrize("seed", [2, 3])
    @pytest.mark.parametrize("loss", TestDegenerateCovariates.LOSSES)
    def test_theta_is_unchanged_when_y_is_mapped(self, loss, seed):
        data, _ = gen_model8(SimConfig(n=200, noise=NoiseLaw.SCALED_NORMAL, seed=seed))
        cfg = QmaveConfig(loss=loss)
        theta = qmave_fit(data, cfg).theta
        for scale, shift in ((1e-6, 0.0), (1e6, 3.0)):
            mapped = qmave_fit(Dataset(data.X, scale * data.Y + shift), cfg).theta
            assert estimation_error(mapped, theta) <= 1e-8, (scale, shift)


class TestObjectiveMonotonicity:
    def test_inner_step_never_increases_pooled_objective(self):
        rng = np.random.default_rng(68)
        data, _ = gen_model8(SimConfig(n=80, noise=NoiseLaw.SCALED_NORMAL, seed=13))
        theta = unit(rng.normal(size=5))
        cfg = median_cfg(h=1.0)
        fits = inner_step(data, theta, cfg)
        obj_min = eq_objective(data, theta, fits, cfg)
        j, a, b, effw = fits
        # perturbed local coefficients can only do worse at the same theta
        for scale in (0.05, 0.3, 1.0):
            # one a draw, then one b draw, per anchor
            noise = scale * rng.normal(size=(j.size, 2))
            noisy = (j, a + noise[:, 0], b + noise[:, 1], effw)
            obj_noisy = eq_objective(data, theta, noisy, cfg)
            assert obj_min <= obj_noisy * (1 + 1e-6) + 1e-9

    def test_refit_after_theta_change_never_increases(self):
        data, _ = gen_model8(SimConfig(n=80, noise=NoiseLaw.SCALED_NORMAL, seed=14))
        cfg = median_cfg(h=1.0)
        rng = np.random.default_rng(69)
        theta_a = unit(rng.normal(size=5))
        theta_b = unit(rng.normal(size=5))
        fits_a = inner_step(data, theta_a, cfg)
        fits_b = inner_step(data, theta_b, cfg)
        # evaluate the old coefficients at theta_b, restricted to common anchors
        common = np.intersect1d(fits_a[0], fits_b[0])
        old = tuple(x[np.isin(fits_a[0], common)] for x in fits_a)
        new = tuple(x[np.isin(fits_b[0], common)] for x in fits_b)
        o_old = eq_objective(data, theta_b, old, cfg)
        o_new = eq_objective(data, theta_b, new, cfg)
        assert o_new <= o_old * (1 + 1e-6) + 1e-9


class TestInitLadder:
    @pytest.mark.parametrize("kernel", [KernelSpec.epanechnikov(), KernelSpec.quartic()])
    def test_median_window_count_matches_product_kernel(self, kernel):
        data, _ = gen_model8(SimConfig(n=200, noise=NoiseLaw.SCALED_NORMAL, seed=15))
        assert data.d == 5
        anchors = np.flatnonzero(trim_mask(data, TrimSpec()))
        base = default_bandwidth(
            BandwidthRule.full_dim(data.d), data.n, coordinate_dispersion(data.X)
        )
        h0s = [base * mult for mult in _INIT_LADDER]
        D = data.X[:, None, :] - data.X[None, anchors, :]
        direct = [
            np.median(np.count_nonzero(np.prod(kernel_eval(kernel, D / h0), axis=-1) > 0, axis=0))
            for h0 in h0s
        ]
        assert len(set(direct)) > 1
        np.testing.assert_array_equal(_median_window_count(data, anchors, h0s), direct)

    def test_probe_peak_memory_at_n1000(self):
        # one (256, n) block of box offsets is 2 MB; the probe must not
        # build the next block beside it
        data, _ = gen_model8(SimConfig(n=1000, seed=3))
        anchors = np.flatnonzero(trim_mask(data, TrimSpec()))
        base = default_bandwidth(
            BandwidthRule.full_dim(data.d), data.n, coordinate_dispersion(data.X)
        )
        tracemalloc.start()
        try:
            _median_window_count(data, anchors, [base * mult for mult in _INIT_LADDER])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6

    @pytest.mark.parametrize("noise", [NoiseLaw.SCALED_T1, NoiseLaw.SCALED_NORMAL])
    def test_auto_init_peak_memory_at_n200(self, noise):
        # the p = 6 quantile full fits run in blocks sized by the working
        # set of their interior point, about six design-sized arrays, so
        # its peak stays near 1.3 MiB
        data, _ = gen_model8(SimConfig(n=200, noise=noise, seed=3))
        cfg = QmaveConfig()
        fit_module._auto_init(data, cfg)  # one-time set-up stays out of the peak
        tracemalloc.start()
        try:
            fit_module._auto_init(data, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.8 * 2**20
