"""Trimming, the average-derivative initial estimate and the OPG fallback."""

import numpy as np
import pytest

from qmave import (
    Dataset,
    DegenerateDirectionError,
    InsufficientDataError,
    InvalidInputError,
    KernelSpec,
    TrimSpec,
    ade_initial_estimate,
    estimation_error,
    opg_direction,
    trim_mask,
)
from qmave.core import LossSpec
from qmave.localfit import full_fit_batch
from qmave.simulate import SimConfig, gen_model8

EPA = KernelSpec.epanechnikov()


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestTrimSpec:
    def test_alpha_range(self):
        TrimSpec(0.0)
        TrimSpec(0.49)
        for bad in (-0.01, 0.5, 0.9, "0.1", None):
            with pytest.raises(InvalidInputError, match="alpha must lie in"):
                TrimSpec(bad)


class TestTrimMask:
    def test_alpha_zero_keeps_all(self):
        rng = np.random.default_rng(40)
        data = Dataset(rng.normal(size=(25, 3)), rng.normal(size=25))
        assert trim_mask(data, TrimSpec(0.0)).all()

    def test_three_point_interpolated_quantiles(self):
        # X=[1,2,3], alpha=0.4: interpolated quantiles are 1.8 and 2.2,
        # keeping only the middle point
        data = Dataset(np.array([[1.0], [2.0], [3.0]]), np.zeros(3))
        mask = trim_mask(data, TrimSpec(0.4))
        np.testing.assert_array_equal(mask, [False, True, False])

    def test_expected_kept_fraction(self):
        rng = np.random.default_rng(41)
        data = Dataset(rng.uniform(size=(4000, 1)), np.zeros(4000))
        kept = trim_mask(data, TrimSpec(0.05)).mean()
        assert abs(kept - 0.9) < 0.05

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(42)
        data = Dataset(rng.normal(size=(200, 2)), np.zeros(200))
        counts = [
            trim_mask(data, TrimSpec(a)).sum() for a in (0.0, 0.05, 0.1, 0.2, 0.4)
        ]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestOpgDirection:
    def test_constant_slopes(self):
        slopes = np.tile([1.0, 0.0, 0.0], (5, 1))
        np.testing.assert_allclose(opg_direction(slopes), [1, 0, 0], atol=1e-12)

    def test_sign_fixed_for_mirrored_slopes(self):
        u = unit([-3.0, 1.0])
        direction = opg_direction(np.vstack([u, -u]))
        np.testing.assert_allclose(np.abs(direction), np.abs(u), atol=1e-12)
        assert direction[np.argmax(np.abs(direction))] > 0

    def test_matches_explicit_eigendecomposition(self):
        rng = np.random.default_rng(43)
        S = rng.normal(size=(20, 2))
        M = sum(np.outer(s, s) for s in S) / 20
        vals, vecs = np.linalg.eigh(M)
        ref = vecs[:, np.argmax(vals)]
        ref = ref if ref[np.argmax(np.abs(ref))] > 0 else -ref
        np.testing.assert_allclose(opg_direction(S), ref, atol=1e-10)

    def test_all_zero_raises(self):
        with pytest.raises(DegenerateDirectionError):
            opg_direction(np.zeros((4, 3)))


class TestAdeInitialEstimate:
    def test_linear_link_uses_ade(self):
        rng = np.random.default_rng(44)
        theta0 = unit([1.0, -2.0, 1.5])
        X = rng.normal(size=(400, 3))
        Y = X @ theta0 + 0.01 * rng.normal(size=400)
        est = ade_initial_estimate(Dataset(X, Y), 0.5, 1.0, TrimSpec(), EPA)
        assert est.method_used == "ADE"
        assert estimation_error(est.theta, theta0) < 0.1

    def test_even_link_falls_back_to_opg(self):
        # exactly symmetric design: the mean slope cancels pairwise
        rng = np.random.default_rng(45)
        theta0 = unit([2.0, 1.0, 0.0])
        half = rng.normal(size=(200, 3))
        X = np.vstack([half, -half])
        v = X @ theta0
        Y = v * v
        est = ade_initial_estimate(Dataset(X, Y), 0.5, 1.2, TrimSpec(), EPA)
        assert est.method_used == "OPG"
        assert estimation_error(est.theta, theta0) < 0.25

    def test_identical_slopes_keep_their_sign(self):
        # exactly linear data with a negative-leading coefficient: the ADE
        # direction is the normalised mean slope, no sign flip applied
        rng = np.random.default_rng(46)
        beta = np.array([-3.0, 1.0])
        X = rng.normal(size=(60, 2))
        Y = X @ beta
        est = ade_initial_estimate(Dataset(X, Y), 0.5, 2.0, TrimSpec(0.0), EPA)
        assert est.method_used == "ADE"
        np.testing.assert_allclose(est.theta, unit(beta), atol=1e-6)
        assert est.theta[0] < 0

    def test_unit_norm_and_counts(self):
        rng = np.random.default_rng(47)
        X = rng.normal(size=(120, 2))
        Y = X[:, 0] + 0.1 * rng.normal(size=120)
        est = ade_initial_estimate(Dataset(X, Y), 0.5, 1.5, TrimSpec(), EPA)
        assert np.linalg.norm(est.theta) == pytest.approx(1.0, abs=1e-12)
        assert 0 <= est.trimmed_count < 120
        assert est.mean_slope_norm >= 0

    def test_overflowing_slopes_raise(self):
        # slopes near 1e300 are finite, but their squares and norms are not
        rng = np.random.default_rng(44)
        X = rng.normal(size=(400, 3))
        Y = 1e300 * (X @ unit([1.0, -2.0, 1.5]) + 0.01 * rng.normal(size=400))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DegenerateDirectionError, match="squares are not finite"):
                ade_initial_estimate(Dataset(X, Y), 0.5, 1.0, TrimSpec(), EPA)

    def test_selection_invariant_to_response_scaling(self):
        rng = np.random.default_rng(48)
        theta0 = unit([1.0, 1.0])
        half = rng.normal(size=(100, 2))
        X = np.vstack([half, -half])
        for Y in (X @ theta0, (X @ theta0) ** 2):
            data1 = Dataset(X, Y)
            data5 = Dataset(X, 5.0 * Y)
            m1 = ade_initial_estimate(data1, 0.5, 1.5, TrimSpec(), EPA).method_used
            m5 = ade_initial_estimate(data5, 0.5, 1.5, TrimSpec(), EPA).method_used
            assert m1 == m5

    def test_insufficient_fits_raise(self):
        rng = np.random.default_rng(49)
        X = rng.normal(size=(30, 3)) * 100
        data = Dataset(X, rng.normal(size=30))
        with pytest.raises(InsufficientDataError):
            ade_initial_estimate(data, 0.5, 0.01, TrimSpec(), EPA)

    def test_tau_validated(self):
        rng = np.random.default_rng(50)
        data = Dataset(rng.normal(size=(30, 2)), rng.normal(size=30))
        with pytest.raises(InvalidInputError):
            ade_initial_estimate(data, 1.5, 1.0, TrimSpec(), EPA)

    @pytest.mark.parametrize("h0", [-2.0, 0.0, np.nan, np.inf])
    @pytest.mark.parametrize("entry", ["ade", "full_fit_batch"])
    def test_bandwidth_validated(self, entry, h0):
        # a negative h0 would fit at |h0|, a zero one divide by zero, and a
        # non-finite one leave no usable fit
        data, _ = gen_model8(SimConfig(n=200, seed=1))
        with pytest.raises(InvalidInputError, match="bandwidth must be finite and positive"):
            if entry == "ade":
                ade_initial_estimate(data, 0.5, h0, TrimSpec(), EPA)
            else:
                full_fit_batch(data, np.arange(data.n), h0, LossSpec.quantile(0.5), EPA)
