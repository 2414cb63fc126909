"""Trimming, the average-derivative initial estimate and the OPG fallback."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmave

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
from qmave.initial import _trim_bounds
from qmave.localfit import full_fit_batch
from qmave.simulate import SimConfig, gen_model8

EPA = KernelSpec.epanechnikov()
MEDIAN = LossSpec.quantile(0.5)


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


    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 400),
        d=st.integers(1, 3),
        alpha=st.one_of(st.sampled_from([0.0, 0.05, 0.25]), st.floats(0.0, 0.5, exclude_max=True)),
        scale=st.sampled_from([1e-5, 1e-2, 1.0, 1e3, 1e5]),
        shift=st.sampled_from([0.0, 1e6]),
        ties=st.booleans(),
        zeros=st.booleans(),
    )
    def test_bounds_are_numpy_quantiles(self, seed, n, d, alpha, scale, shift, ties, zeros):
        # one column sort and numpy's linear rule give np.quantile's values;
        # a bound may differ in the sign of a zero, so values and masks are
        # compared, not bytes
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        if ties:
            X = np.round(X * 2) / 2
        X = X * scale + shift
        if zeros:
            X[rng.random(size=X.shape) < 0.3] = rng.choice([0.0, -0.0])
        lo, hi = np.quantile(X, [alpha, 1.0 - alpha], axis=0)
        have_lo, have_hi = _trim_bounds(X, alpha)
        assert np.array_equal(have_lo, lo) and np.array_equal(have_hi, hi)
        data = Dataset(X, np.zeros(n))
        want = np.all((X >= lo) & (X <= hi), axis=1)
        np.testing.assert_array_equal(trim_mask(data, TrimSpec(alpha)), want)

    def test_midpoint_takes_numpys_upper_form(self):
        # at t = 0.5 the two forms of the linear rule round apart when the
        # neighbours differ in magnitude; numpy takes b - (b-a)(1-t)
        X = np.array([[-0.5369532353602852], [1000581.1181041964], [1000582.0]])
        lo, hi = _trim_bounds(X, 0.25)
        want = np.quantile(X, [0.25, 0.75], axis=0)
        assert lo[0] == want[0, 0] == 500290.2905754805 and hi[0] == want[1, 0]

    def test_fit_leaves_numpy_ma_unloaded(self):
        # np.quantile imports numpy.ma on a process's first call (17 ms);
        # a fresh interpreter's fits, under either loss, must not load it
        code = (
            "import sys, qmave as qm\n"
            "assert 'numpy.ma' not in sys.modules\n"
            "data, _ = qm.gen_model8(qm.SimConfig(n=200, seed=3))\n"
            "for loss in (qm.LossSpec.quantile(0.5), qm.LossSpec.squared()):\n"
            "    qm.qmave_fit(data, qm.QmaveConfig(loss=loss, max_iter=2))\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(qmave.__file__).parent.parent))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


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
        est = ade_initial_estimate(Dataset(X, Y), MEDIAN, 1.0, TrimSpec(), EPA)
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
        est = ade_initial_estimate(Dataset(X, Y), MEDIAN, 1.2, TrimSpec(), EPA)
        assert est.method_used == "OPG"
        assert estimation_error(est.theta, theta0) < 0.25

    def test_identical_slopes_keep_their_sign(self):
        # exactly linear data with a negative-leading coefficient: the ADE
        # direction is the normalised mean slope, no sign flip applied
        rng = np.random.default_rng(46)
        beta = np.array([-3.0, 1.0])
        X = rng.normal(size=(60, 2))
        Y = X @ beta
        est = ade_initial_estimate(Dataset(X, Y), MEDIAN, 2.0, TrimSpec(0.0), EPA)
        assert est.method_used == "ADE"
        np.testing.assert_allclose(est.theta, unit(beta), atol=1e-6)
        assert est.theta[0] < 0

    def test_unit_norm_and_counts(self):
        rng = np.random.default_rng(47)
        X = rng.normal(size=(120, 2))
        Y = X[:, 0] + 0.1 * rng.normal(size=120)
        est = ade_initial_estimate(Dataset(X, Y), MEDIAN, 1.5, TrimSpec(), EPA)
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
                ade_initial_estimate(Dataset(X, Y), MEDIAN, 1.0, TrimSpec(), EPA)

    def test_selection_invariant_to_response_scaling(self):
        rng = np.random.default_rng(48)
        theta0 = unit([1.0, 1.0])
        half = rng.normal(size=(100, 2))
        X = np.vstack([half, -half])
        for Y in (X @ theta0, (X @ theta0) ** 2):
            data1 = Dataset(X, Y)
            data5 = Dataset(X, 5.0 * Y)
            m1 = ade_initial_estimate(data1, MEDIAN, 1.5, TrimSpec(), EPA).method_used
            m5 = ade_initial_estimate(data5, MEDIAN, 1.5, TrimSpec(), EPA).method_used
            assert m1 == m5

    def test_insufficient_fits_raise(self):
        rng = np.random.default_rng(49)
        X = rng.normal(size=(30, 3)) * 100
        data = Dataset(X, rng.normal(size=30))
        with pytest.raises(InsufficientDataError):
            ade_initial_estimate(data, MEDIAN, 0.01, TrimSpec(), EPA)

    def test_tau_validated(self):
        # the level travels inside the loss, whose constructor checks it;
        # a bare level in the loss's place is named, valid or not
        rng = np.random.default_rng(50)
        data = Dataset(rng.normal(size=(30, 2)), rng.normal(size=30))
        for level in (0.5, 1.5):
            with pytest.raises(InvalidInputError, match="loss must be a LossSpec"):
                ade_initial_estimate(data, level, 1.0, TrimSpec(), EPA)

    @pytest.mark.parametrize("h0", [-2.0, 0.0, np.nan, np.inf])
    @pytest.mark.parametrize("entry", ["ade", "full_fit_batch"])
    def test_bandwidth_validated(self, entry, h0):
        # a negative h0 would fit at |h0|, a zero one divide by zero, and a
        # non-finite one leave no usable fit
        data, _ = gen_model8(SimConfig(n=200, seed=1))
        with pytest.raises(InvalidInputError, match="bandwidth must be finite and positive"):
            if entry == "ade":
                ade_initial_estimate(data, MEDIAN, h0, TrimSpec(), EPA)
            else:
                full_fit_batch(data, np.arange(data.n), h0, MEDIAN, EPA)
