"""Losses, kernels and bandwidth rules."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qmave import (
    BandwidthRule,
    InvalidInputError,
    KernelSpec,
    LossSpec,
    NoiseLaw,
    QmaveConfig,
    SolverOptions,
    check_loss,
    check_subgradient,
    default_bandwidth,
    gen_design,
    kernel_eval,
    run_benchmark,
    weighted_quantile,
)
from qmave.core import _in_support


class TestLossSpec:
    def test_quantile_levels_validated(self):
        LossSpec.quantile(0.5)
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(InvalidInputError):
                LossSpec.quantile(bad)

    def test_squared_takes_no_parameter(self):
        LossSpec.squared()
        with pytest.raises(InvalidInputError):
            LossSpec("squared", 0.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            LossSpec("huber")


class TestCheckLoss:
    def test_positive_residual(self):
        assert check_loss(2.0, LossSpec.quantile(0.5)) == 1.0

    def test_negative_residual(self):
        assert check_loss(-4.0, LossSpec.quantile(0.25)) == pytest.approx(3.0)

    def test_zero_residual(self):
        assert check_loss(0.0, LossSpec.quantile(0.3)) == 0.0
        assert check_loss(0.0, LossSpec.squared()) == 0.0

    def test_squared(self):
        assert check_loss(-3.0, LossSpec.squared()) == 9.0

    def test_nonnegative_and_zero_only_at_zero(self):
        rng = np.random.default_rng(0)
        v = rng.normal(scale=5, size=1000)
        for loss in (LossSpec.quantile(0.13), LossSpec.squared()):
            vals = check_loss(v, loss)
            assert np.all(vals >= 0)
            assert np.all(vals[v != 0] > 0)

    def test_convexity(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            tau = rng.uniform(0.01, 0.99)
            loss = LossSpec.quantile(tau)
            v1, v2 = rng.normal(scale=10, size=2)
            t = rng.uniform()
            lhs = check_loss(t * v1 + (1 - t) * v2, loss)
            rhs = t * check_loss(v1, loss) + (1 - t) * check_loss(v2, loss)
            assert lhs <= rhs + 1e-12


class TestCheckSubgradient:
    def test_positive_branch(self):
        assert check_subgradient(1.0, 0.5) == 0.5

    def test_negative_branch(self):
        assert check_subgradient(-3.0, 0.9) == pytest.approx(-0.1)

    def test_zero_convention(self):
        assert check_subgradient(0.0, 0.5) == -0.5

    def test_matches_finite_difference_away_from_kink(self):
        rng = np.random.default_rng(2)
        step = 1e-7
        for _ in range(300):
            tau = rng.uniform(0.05, 0.95)
            v = rng.uniform(0.001, 5.0) * rng.choice([-1, 1])
            loss = LossSpec.quantile(tau)
            fd = (check_loss(v + step, loss) - check_loss(v - step, loss)) / (2 * step)
            assert abs(check_subgradient(v, tau) - fd) < 1e-5

    def test_tau_validated(self):
        with pytest.raises(InvalidInputError):
            check_subgradient(1.0, 1.5)


class TestKernels:
    def test_epanechnikov_at_zero(self):
        assert kernel_eval(KernelSpec.epanechnikov(), 0.0) == 0.75

    def test_compact_support(self):
        for kern in (KernelSpec.epanechnikov(), KernelSpec.quartic()):
            assert kernel_eval(kern, 1.2) == 0.0
            assert kernel_eval(kern, -1.0) == 0.0
            assert kernel_eval(kern, 1.0) == 0.0

    def test_symmetry(self):
        u = np.linspace(0, 2, 101)
        for kern in (KernelSpec.epanechnikov(), KernelSpec.quartic()):
            np.testing.assert_array_equal(kernel_eval(kern, u), kernel_eval(kern, -u))

    @pytest.mark.parametrize("kind", ["epanechnikov", "quartic"])
    def test_integrates_to_one(self, kind):
        kern = KernelSpec(kind)
        val, err = quad(lambda u: kernel_eval(kern, u), -1, 1)
        assert abs(val - 1.0) < 1e-10

    @pytest.mark.parametrize("kind", ["epanechnikov", "quartic"])
    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    def test_moment_weighted_kernel_is_lipschitz(self, kind, j):
        # finite-difference slopes of u^j K(u) stay bounded across the
        # support boundary
        kern = KernelSpec(kind)
        u = np.linspace(-1.5, 1.5, 60001)
        f = u**j * kernel_eval(kern, u)
        slopes = np.abs(np.diff(f) / np.diff(u))
        assert np.max(slopes) < 10.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            KernelSpec("gaussian")

    @pytest.mark.parametrize("kind", ["epanechnikov", "quartic"])
    def test_bytes_of_the_textbook_expression(self, kind):
        # edge values and NaN give the bytes of the formula written out;
        # 0-d input gives a float; the argument is never written
        def textbook(u):
            base = np.maximum(0.0, 1.0 - u * u)
            return 0.75 * base if kind == "epanechnikov" else (15.0 / 16.0) * base * base

        edge = np.nextafter(1.0, 0.0)
        u = np.array([0.0, 0.5, -0.5, edge, -edge, 1.0, -1.0, 1.2, -1.2, np.nan])
        kern, before = KernelSpec(kind), u.copy()
        for arg in (u, u.reshape(2, 5), u[::-1]):
            got = kernel_eval(kern, arg)
            assert got.shape == arg.shape
            assert got.tobytes() == textbook(arg).tobytes()
        assert u.tobytes() == before.tobytes()
        for x in u:
            for arg in (float(x), np.float64(x), np.array(x)):
                got = kernel_eval(kern, arg)
                assert type(got) is float
                assert np.float64(got).tobytes() == textbook(np.float64(x)).tobytes()

    @pytest.mark.parametrize("kind", ["epanechnikov", "quartic"])
    def test_support_is_exactly_where_the_kernel_is_positive(self, kind):
        # 2000 consecutive doubles on each side of -1 and of +1, every
        # power of two down to the smallest subnormal, non-finite values
        # and a random sweep
        parts = []
        for edge in (-1.0, 1.0):
            for toward in (-np.inf, np.inf):
                run = [edge]
                for _ in range(2000):
                    run.append(np.nextafter(run[-1], toward))
                parts.append(np.array(run))
        powers = np.ldexp(1.0, -np.arange(1075))
        rng = np.random.default_rng(50)
        parts += [powers, -powers, [0.0, -0.0, np.inf, -np.inf, np.nan], rng.uniform(-2, 2, 10**5)]
        u = np.concatenate(parts)
        inside = _in_support(u)
        np.testing.assert_array_equal(inside, kernel_eval(KernelSpec(kind), u) > 0)
        assert 0 < np.count_nonzero(inside) < u.size

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        h0=st.one_of(
            st.floats(min_value=2.0**-1022, allow_infinity=False),  # normal
            st.floats(min_value=0.0, max_value=2.0**-1022, exclude_min=True, exclude_max=True),
            st.integers(-1074, 1023).map(lambda k: math.ldexp(1.0, k)),
        ),
        draw=st.floats(min_value=0.0),
    )
    def test_box_comparison_is_the_support_of_the_ratio(self, h0, draw):
        # the full fits test a largest coordinate offset R >= 0 against
        # h0 > 0 as R < h0, in place of _in_support(R / h0)
        with np.errstate(over="ignore", under="ignore"):
            below = np.nextafter(h0, 0.0)
            R = np.array([0.0, below, np.nextafter(below, 0.0), h0, np.nextafter(h0, np.inf), draw])
            np.testing.assert_array_equal(R < h0, _in_support(R / h0))


class TestBandwidth:
    def test_index_rule_formula(self):
        h = default_bandwidth(BandwidthRule.index(), 200, 1.0)
        assert h == pytest.approx((math.log(200) / 200) ** 0.2, rel=1e-12)
        assert h == pytest.approx(0.48375068680785405, rel=1e-12)

    def test_full_dim_rule_formula(self):
        h = default_bandwidth(BandwidthRule.full_dim(5), 200, 1.0)
        assert h == pytest.approx((math.log(200) / 200) ** (1 / 9), rel=1e-12)
        assert h == pytest.approx(0.6680204763399041, rel=1e-12)

    def test_smallest_sample(self):
        h = default_bandwidth(BandwidthRule.index(), 2, 1.0)
        assert h == pytest.approx(0.8090196926711922, rel=1e-12)

    def test_scale_and_constant_multiply(self):
        base = default_bandwidth(BandwidthRule.index(), 50, 1.0)
        assert default_bandwidth(BandwidthRule.index(), 50, 2.5) == pytest.approx(
            2.5 * base
        )
        assert default_bandwidth(BandwidthRule.index(c_h=3.0), 50, 1.0) == pytest.approx(
            3.0 * base
        )

    def test_positive_for_all_n(self):
        for n in range(2, 200):
            assert default_bandwidth(BandwidthRule.index(), n, 1.0) > 0
            assert default_bandwidth(BandwidthRule.full_dim(3), n, 1.0) > 0

    def test_monotone_decreasing_in_n(self):
        for rule in (BandwidthRule.index(), BandwidthRule.full_dim(5)):
            hs = [default_bandwidth(rule, n, 1.0) for n in range(3, 400)]
            assert all(a > b for a, b in zip(hs, hs[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            default_bandwidth(BandwidthRule.index(), 1, 1.0)
        with pytest.raises(InvalidInputError):
            default_bandwidth(BandwidthRule.index(), 10, 0.0)
        for n in ("10", 2.5):
            with pytest.raises(InvalidInputError, match="n must be an integer"):
                default_bandwidth(BandwidthRule.index(), n, 1.0)
        with pytest.raises(InvalidInputError):
            BandwidthRule.index(c_h=0.0)
        with pytest.raises(InvalidInputError):
            BandwidthRule.full_dim(0)

    @pytest.mark.parametrize("c_h", [float("nan"), float("inf")])
    def test_non_finite_constant_raises(self, c_h):
        with pytest.raises(InvalidInputError, match="c_h must be finite and positive"):
            BandwidthRule.index(c_h=c_h)
        with pytest.raises(InvalidInputError, match="c_h must be finite and positive"):
            BandwidthRule.full_dim(3, c_h=c_h)


class TestDomainRules:
    """Each domain rule has one definition in ``core`` and names bad input,
    non-numeric input too, with an ``InvalidInputError``."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: LossSpec.quantile(None),
            lambda: LossSpec.quantile("abc"),
            lambda: weighted_quantile([1.0, 2.0], [1.0, 1.0], None),
            lambda: check_subgradient(1.0, "abc"),
            lambda: QmaveConfig(h="x"),
            lambda: BandwidthRule.index(c_h=None),
        ],
        ids=["tau-None", "tau-text", "weighted_quantile", "check_subgradient", "h", "c_h"],
    )
    def test_non_numeric_input_is_invalid(self, call):
        with pytest.raises(InvalidInputError):
            call()

    COUNT_SITES = {
        "max_iterations": lambda v: SolverOptions(max_iterations=v),
        "max_iter": lambda v: QmaveConfig(max_iter=v),
        "replications": lambda v: run_benchmark(
            [80], [NoiseLaw.SCALED_NORMAL], methods=("MAVE",), replications=v
        ),
        "n": lambda v: gen_design(v, 0),
    }

    @pytest.mark.parametrize("name", sorted(COUNT_SITES))
    def test_counts_share_one_rule(self, name):
        site = self.COUNT_SITES[name]
        for bad in (0, -3, True, 2.5, "10"):
            message = re.escape(f"{name} must be an integer >= 1, got {bad!r}")
            with pytest.raises(InvalidInputError, match=message):
                site(bad)
        site(np.int64(3))
