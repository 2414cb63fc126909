"""Local-linear fits along an index and in full dimension."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qmave import (
    ConvergenceError,
    Dataset,
    InsufficientLocalDataError,
    InvalidInputError,
    KernelSpec,
    LossSpec,
    SolverOptions,
    WeightedRegressionProblem,
    local_linear_full_fit,
    local_linear_index_fit,
    qr_oracle,
    trim_mask,
)
from qmave import fit as fit_module
from qmave import localfit
from qmave.core import (
    BandwidthRule,
    check_loss,
    coordinate_dispersion,
    default_bandwidth,
    kernel_eval,
)
from qmave.fit import (
    QmaveConfig,
    _auto_init,
    eq_objective,
    estimation_error,
    inner_step,
    outer_problem,
    outer_step,
    resolve_bandwidth,
)
from qmave.initial import TrimSpec
from qmave.localfit import (
    _FULL_BLOCK,
    _box_offsets,
    _design,
    _index_windows,
    _pair_runs,
    _slots,
    full_fit_batch,
    index_fit_batch,
)
from qmave.simulate import SimConfig, gen_model8
from qmave.solver import _RANK_RTOL, _solve_ls_batch, _solve_qr_batch, solve_weighted_ls

EPA = KernelSpec.epanechnikov()
MEDIAN = LossSpec.quantile(0.5)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestDataset:
    def test_basic_shapes(self):
        d = Dataset(np.ones((5, 2)), np.arange(5))
        assert (d.n, d.d) == (5, 2)

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            Dataset(np.array([[1.0], [np.nan]]), [1, 2])

    def test_rejects_mismatch(self):
        with pytest.raises(InvalidInputError):
            Dataset(np.ones((3, 2)), [1, 2])

    def test_rejects_single_row(self):
        with pytest.raises(InvalidInputError):
            Dataset(np.ones((1, 2)), [1])

    def test_one_dimensional_x_is_one_column(self):
        d = Dataset(np.arange(5.0), np.arange(5))
        assert (d.n, d.d) == (5, 1)
        np.testing.assert_array_equal(d.X[:, 0], np.arange(5.0))

    def test_rejects_more_than_two_dimensions(self):
        with pytest.raises(InvalidInputError, match=r"\(4, 2, 3\)"):
            Dataset(np.ones((4, 2, 3)), np.arange(4))

    @pytest.mark.parametrize("bad", ["X", "Y"])
    def test_rejects_non_numeric_entries(self, bad):
        X, Y = [[1.0], ["a"], [3.0]], [1.0, 2.0, 3.0]
        if bad == "Y":
            X, Y = [[1.0], [2.0], [3.0]], [1.0, "b", 3.0]
        with pytest.raises(InvalidInputError, match=f"{bad} must be numeric"):
            Dataset(X, Y)

    @pytest.mark.parametrize("bad", ["X", "Y"])
    def test_rejects_complex_entries(self, bad):
        X, Y = np.ones((3, 2)), np.arange(3.0)
        if bad == "X":
            X = X + 1j
        else:
            Y = Y.astype(complex)
        with pytest.raises(InvalidInputError, match=f"{bad} must be real"):
            Dataset(X, Y)


class TestIndexFit:
    def test_exact_linear_data_interpolated(self):
        rng = np.random.default_rng(20)
        theta = unit([1.0, 2.0, -1.0])
        X = rng.normal(size=(40, 3))
        data = Dataset(X, X @ theta)
        x0 = X[7]
        fit = local_linear_index_fit(data, theta, x0, 1.0, MEDIAN, EPA)
        assert fit.a == pytest.approx(float(theta @ x0), abs=1e-8)
        assert fit.b == pytest.approx(1.0, abs=1e-8)
        assert fit.effective_weight > 0

    def test_constant_response(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(30, 2))
        data = Dataset(X, np.full(30, 4.25))
        fit = local_linear_index_fit(data, unit([1, 1]), X[0], 2.0, MEDIAN, EPA)
        assert fit.a == pytest.approx(4.25, abs=1e-10)
        assert fit.b == pytest.approx(0.0, abs=1e-10)

    def test_matches_oracle_on_induced_problem(self):
        rng = np.random.default_rng(22)
        for trial in range(10):
            X = rng.normal(size=(10, 2))
            Y = rng.normal(size=10)
            data = Dataset(X, Y)
            theta = unit(rng.normal(size=2))
            x0 = X[0]
            h = 1.5
            fit = local_linear_index_fit(data, theta, x0, h, MEDIAN, EPA)
            t = (X - x0) @ theta
            w = kernel_eval(EPA, t / h)
            keep = w > 0
            prob = WeightedRegressionProblem(
                np.column_stack([np.ones(keep.sum()), t[keep]]), Y[keep], w[keep], MEDIAN
            )
            o_fit = prob.objective([fit.a, fit.b])
            o_orc = prob.objective(qr_oracle(prob))
            assert abs(o_fit - o_orc) <= 1e-8 * (1 + abs(o_orc))

    def test_empty_window_raises(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        data = Dataset(X, np.arange(10, dtype=float))
        # a window of one row, and windows of no row under both losses
        with pytest.raises(InsufficientLocalDataError):
            local_linear_index_fit(data, np.array([1.0]), X[0], 1e-6, MEDIAN, EPA)
        for loss in (MEDIAN, LossSpec.squared()):
            with pytest.raises(InsufficientLocalDataError):
                local_linear_index_fit(data, np.array([1.0]), [100.0], 1.0, loss, EPA)

    def test_squared_loss_path(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(40, 2))
        theta = unit([2.0, 1.0])
        data = Dataset(X, 3.0 * (X @ theta) - 1.0)
        fit = local_linear_index_fit(data, theta, X[3], 1.0, LossSpec.squared(), EPA)
        assert fit.b == pytest.approx(3.0, abs=1e-8)

    def test_requires_unit_theta(self):
        data = Dataset(np.ones((4, 2)) + np.arange(8).reshape(4, 2), np.arange(4))
        with pytest.raises(InvalidInputError):
            local_linear_index_fit(data, np.array([1.0, 1.0]), data.X[0], 1.0, MEDIAN, EPA)

    def test_truncated_solve_raises_convergence_error(self):
        rng = np.random.default_rng(32)
        X = rng.normal(size=(30, 2))
        data = Dataset(X, rng.normal(size=30))
        opts = SolverOptions(max_iterations=1)
        with pytest.raises(ConvergenceError):
            local_linear_index_fit(data, unit([1.0, 1.0]), X[0], 2.0, MEDIAN, EPA, opts)
        with pytest.raises(ConvergenceError):
            local_linear_full_fit(data, X[0], 2.0, MEDIAN, EPA, opts)

    @pytest.mark.parametrize("h", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_invalid_bandwidth(self, h):
        data = Dataset(np.ones((4, 2)) + np.arange(8).reshape(4, 2), np.arange(4))
        with pytest.raises(InvalidInputError):
            local_linear_index_fit(data, unit([1.0, 1.0]), data.X[0], h, MEDIAN, EPA)
        with pytest.raises(InvalidInputError):
            local_linear_full_fit(data, data.X[0], h, MEDIAN, EPA)


class TestIndexFitProperties:
    def test_translation_invariance(self):
        rng = np.random.default_rng(24)
        X = rng.normal(size=(30, 2))
        Y = rng.normal(size=30)
        theta = unit([1.0, -1.0])
        x0 = X[2]
        c = 7.5
        f1 = local_linear_index_fit(Dataset(X, Y), theta, x0, 1.2, MEDIAN, EPA)
        f2 = local_linear_index_fit(Dataset(X, Y + c), theta, x0, 1.2, MEDIAN, EPA)
        t = (X - x0) @ theta
        w = kernel_eval(EPA, t / 1.2)
        keep = w > 0
        prob = WeightedRegressionProblem(
            np.column_stack([np.ones(keep.sum()), t[keep]]), Y[keep] + c, w[keep], MEDIAN
        )
        o_shifted = prob.objective([f2.a, f2.b])
        o_translate = prob.objective([f1.a + c, f1.b])
        assert abs(o_shifted - o_translate) <= 1e-8 * (1 + abs(o_shifted))

    def test_theta_negation_flips_slope(self):
        rng = np.random.default_rng(25)
        X = rng.normal(size=(30, 3))
        Y = rng.normal(size=30)
        theta = unit([1.0, 0.5, -0.5])
        x0 = X[4]
        f1 = local_linear_index_fit(Dataset(X, Y), theta, x0, 1.5, MEDIAN, EPA)
        f2 = local_linear_index_fit(Dataset(X, Y), -theta, x0, 1.5, MEDIAN, EPA)
        t = (X - x0) @ theta
        w = kernel_eval(EPA, t / 1.5)
        keep = w > 0
        prob = WeightedRegressionProblem(
            np.column_stack([np.ones(keep.sum()), t[keep]]), Y[keep], w[keep], MEDIAN
        )
        o1 = prob.objective([f1.a, f1.b])
        o2 = prob.objective([f2.a, -f2.b])
        assert abs(o1 - o2) <= 1e-8 * (1 + abs(o1))

    def test_weight_locality_bit_for_bit(self):
        rng = np.random.default_rng(26)
        X = rng.normal(size=(50, 2))
        Y = rng.normal(size=50)
        theta = unit([1.0, 1.0])
        x0 = np.zeros(2)
        h = 0.8
        t = (X - x0) @ theta
        inside = np.abs(t) < h
        assert 2 < inside.sum() < 50
        f_full = local_linear_index_fit(Dataset(X, Y), theta, x0, h, MEDIAN, EPA)
        f_sub = local_linear_index_fit(
            Dataset(X[inside], Y[inside]), theta, x0, h, MEDIAN, EPA
        )
        assert f_full.a == f_sub.a
        assert f_full.b == f_sub.b
        assert f_full.effective_weight == f_sub.effective_weight


class TestFullFit:
    def test_exact_affine_data(self):
        rng = np.random.default_rng(27)
        X = rng.normal(size=(50, 3))
        beta_star = np.array([2.0, -1.0, 0.5])
        data = Dataset(X, X @ beta_star + 5.0)
        x0 = X[11]
        fit = local_linear_full_fit(data, x0, 2.0, MEDIAN, EPA)
        assert fit.a == pytest.approx(float(beta_star @ x0 + 5.0), abs=1e-8)
        np.testing.assert_allclose(fit.b, beta_star, atol=1e-8)

    def test_empty_window_raises(self):
        X = np.vstack([np.zeros(2), np.ones((8, 2)) * 10])
        data = Dataset(X, np.arange(9, dtype=float))
        # a window of one row, and windows of no row under both losses
        with pytest.raises(InsufficientLocalDataError):
            local_linear_full_fit(data, np.zeros(2), 0.5, MEDIAN, EPA)
        for loss in (MEDIAN, LossSpec.squared()):
            with pytest.raises(InsufficientLocalDataError):
                local_linear_full_fit(data, [5.0, 5.0], 0.5, loss, EPA)

    def test_matches_oracle(self):
        rng = np.random.default_rng(28)
        X = rng.normal(size=(12, 2))
        Y = rng.normal(size=12)
        data = Dataset(X, Y)
        x0 = X[0]
        h0 = 2.5
        fit = local_linear_full_fit(data, x0, h0, MEDIAN, EPA)
        D = X - x0
        w = np.prod(kernel_eval(EPA, D / h0), axis=1)
        keep = w > 0
        prob = WeightedRegressionProblem(
            np.column_stack([np.ones(keep.sum()), D[keep]]), Y[keep], w[keep], MEDIAN
        )
        o_fit = prob.objective(np.concatenate([[fit.a], fit.b]))
        o_orc = prob.objective(qr_oracle(prob))
        assert abs(o_fit - o_orc) <= 1e-8 * (1 + abs(o_orc))

    def test_coplanar_window_raises(self):
        # all points share one coordinate: slope in that direction is
        # unidentifiable
        rng = np.random.default_rng(29)
        X = np.column_stack([rng.normal(size=12), np.zeros(12)])
        data = Dataset(X, rng.normal(size=12))
        with pytest.raises(InsufficientLocalDataError):
            local_linear_full_fit(data, np.zeros(2), 2.0, MEDIAN, EPA)


class TestBatchedFitsAgreeWithSingleFits:
    def test_index_batch(self):
        rng = np.random.default_rng(30)
        X = rng.normal(size=(60, 3))
        Y = rng.normal(size=60)
        data = Dataset(X, Y)
        theta = unit([1.0, 2.0, 0.5])
        anchors = np.arange(0, 60, 7)
        idx, a, b, effw = index_fit_batch(data, theta, anchors, 1.0, MEDIAN, EPA)
        assert idx.size > 0
        for k, j in enumerate(idx):
            single = local_linear_index_fit(data, theta, X[j], 1.0, MEDIAN, EPA)
            assert a[k] == pytest.approx(single.a, abs=1e-9)
            assert b[k] == pytest.approx(single.b, abs=1e-9)
            assert effw[k] == pytest.approx(single.effective_weight, rel=1e-12)

    def test_full_batch(self):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(50, 2))
        Y = rng.normal(size=50)
        data = Dataset(X, Y)
        anchors = np.arange(0, 50, 5)
        idx, a, B, effw = full_fit_batch(data, anchors, 1.8, MEDIAN, EPA)
        assert idx.size > 0
        for k, j in enumerate(idx):
            single = local_linear_full_fit(data, X[j], 1.8, MEDIAN, EPA)
            assert a[k] == pytest.approx(single.a, abs=1e-9)
            np.testing.assert_allclose(B[k], single.b, atol=1e-9)

    def test_batch_skips_unusable_anchors(self):
        X = np.array([[0.0], [0.01], [5.0], [5.01], [10.0]])
        Y = np.arange(5, dtype=float)
        data = Dataset(X, Y)
        idx, a, b, _ = index_fit_batch(
            data, np.array([1.0]), np.arange(5), 0.05, MEDIAN, EPA
        )
        assert 10 not in set(X[idx, 0])
        assert set(np.round(X[idx, 0]).astype(int)) <= {0, 5}


class TestRoundingOnlyWindows:
    """On quarter-grid X with a generic direction, rows whose exact index
    values are equal get computed index values that differ by rounding
    only; a window made of such rows carries no slope information."""

    @pytest.mark.parametrize("loss", [MEDIAN, LossSpec.squared()])
    def test_no_anchor_kept_on_a_rounding_only_window(self, loss):
        rng = np.random.default_rng(17)
        X = np.round(rng.normal(size=(200, 4)) * 4) / 4
        direction = np.array([2.0, -1.0, 4.0, 1.0])
        theta = direction / np.linalg.norm(direction)
        data = Dataset(X, np.round(X @ np.ones(4) + rng.standard_t(3, size=200), 1))
        exact = np.rint(4 * X).astype(np.int64) @ direction.astype(np.int64)
        t = X @ theta
        h = 0.02 * np.std(t, ddof=1)
        anchors = np.arange(0, 200, 3)
        flat = [j for j in anchors if np.all(exact[np.abs(t - t[j]) < h] == exact[j])]
        assert len(flat) > 40
        kept, _, b, _ = index_fit_batch(data, theta, anchors, h, loss, EPA)
        assert not np.isin(kept, flat).any(), b[np.isin(kept, flat)]


def _padded_gather(weights):
    """Pack positive-weight rows first along axis 0, preserving row order.

    ``weights`` is (n, m); returns ``(gather, inside)`` of shape (m, L)
    with L = max positive count: each column's positive rows in row order,
    then repeats of its last positive row, where ``inside`` is False.
    """
    count = np.count_nonzero(weights > 0, axis=0)
    slot = np.arange(max(int(count.max()), 1))
    order = np.argsort(weights <= 0, axis=0, kind="stable")[: slot.size].T
    last = np.minimum(slot, count[:, None] - 1)
    return np.take_along_axis(order, last, axis=1), slot < count[:, None]


def _local_objectives(Tg, Wg, Yg, a, b, loss):
    """Each stacked index problem's weighted loss at its fit (a, b)."""
    return np.sum(Wg * check_loss(Yg - a[:, None] - b[:, None] * Tg, loss), axis=1)


def scaled_screen(D, Wg, h):
    """Positions of the stacked problems whose weighted design in
    bandwidth units, ``[1, D/h]``, has an eigenvalue ratio above
    ``_RANK_RTOL``: the reference for the library's rank screen."""
    Zs = np.concatenate([np.ones(D.shape[:2] + (1,)), D / h], axis=2)
    eigs = np.linalg.eigvalsh(np.matmul(Zs.transpose(0, 2, 1), Zs * Wg[:, :, None]))
    return np.flatnonzero(eigs[:, 0] > _RANK_RTOL * eigs[:, -1])


def reference_fits(D, Wg, Yg, h, loss):
    """Screened stacked problems on the offsets ``D`` (B, L, k), solved in
    bandwidth units on ``[1, D/h]``: ``(kept, a, B, effective_weight)``
    with ``kept`` positions in B and the slopes ``B`` in the units of D."""
    sub = scaled_screen(D, Wg, h)
    Zb = np.concatenate([np.ones((sub.size, D.shape[1], 1)), D[sub] / h], axis=2)
    Wg, Yg = Wg[sub], Yg[sub]
    if loss.is_quantile:
        beta = _solve_qr_batch(Zb, Yg, Wg, loss.tau, SolverOptions())[0]
    else:
        beta = _solve_ls_batch(Zb, Yg, Wg)
    ok = np.all(np.isfinite(beta), axis=1)
    return sub[ok], beta[ok, 0], beta[ok, 1:] / h, np.sum(Wg, axis=1)[ok]


def dense_index_fits(data, theta, anchors, h, loss, kernel):
    """The index fits built on the dense (n, m) offset and weight
    matrices: the reference for windows.  Returns the fits and each
    anchor's window as (rows, T, W) in row order."""
    t = data.X @ theta
    T = t[:, None] - t[anchors][None, :]
    W = kernel_eval(kernel, T / h)
    pos = W > 0
    gather, inside = _padded_gather(W)
    Tg = np.take_along_axis(T.T, gather, axis=1)
    Wg = np.where(inside, np.take_along_axis(W.T, gather, axis=1), 0.0)
    kept, a, B, effw = reference_fits(Tg[:, :, None], Wg, data.Y[gather], h, loss)
    windows = [(np.flatnonzero(p), T[p, c], W[p, c]) for c, p in enumerate(pos.T)]
    return (anchors[kept], a, B[:, 0], effw), windows


def dense_pooled(data, theta, fits, h, loss, kernel):
    """The outer problem and pooled objective of ``fits`` on the dense
    (n, m) matrices: (row, anchor) pairs in row-major order, the rows
    ``(Z, y, w)`` and the objective over those rows at ``theta``."""
    X, Y, t = data.X, data.Y, data.X @ theta
    j, a, b, _ = fits
    T = t[:, None] - t[j][None, :]
    W = kernel_eval(kernel, T / h)
    ii, cc = np.nonzero(W > 0)
    Z, y, w = b[cc, None] * (X[ii] - X[j[cc]]), Y[ii] - a[cc], W[ii, cc]
    objective = float(np.sum(w * check_loss(y - Z @ theta, loss)))
    return (ii, cc), (Z, y, w), objective


def window_data(kind):
    rng = np.random.default_rng(40)
    X = rng.normal(size=(120, 3))
    theta = unit([1.0, -0.5, 2.0])
    if kind == "ties":
        # index values on a quarter grid, so kernel edges fall exactly on rows
        X, theta = np.round(X * 4) / 4, np.array([1.0, 0.0, 0.0])
    elif kind == "duplicates":
        X[60:] = X[:60]
    elif kind == "shifted":
        X = X * 1e-3 + 1e6
    Y = np.round(X @ np.ones(3) + rng.standard_t(3, size=120), 1)
    return Dataset(X, Y), theta


class TestSortedWindowsAreExact:
    """Index fits, outer problem and pooled objective read each anchor's
    kernel window as a run of the index-sorted rows.  Window contents
    must equal the dense (n, m) construction byte for byte; the solves and
    sums that now run in window order must agree to rounding."""

    @pytest.mark.parametrize("kind", ["ties", "duplicates", "shifted"])
    @pytest.mark.parametrize("width", [0.02, 0.1, 3.0])
    def test_matches_dense_construction(self, kind, width):
        data, theta = window_data(kind)
        sd = np.std(data.X @ theta, ddof=1)
        # on the quarter grid take widths that are grid multiples
        h = {0.02: 0.5, 0.1: 0.75, 3.0: 3.0}[width] if kind == "ties" else width * sd
        anchors = np.arange(1, 120, 2)
        for kernel in (EPA, KernelSpec.quartic()):
            for loss in (MEDIAN, LossSpec.squared()):
                fits, windows = dense_index_fits(data, theta, anchors, h, loss, kernel)
                got = index_fit_batch(data, theta, anchors, h, loss, kernel)
                assert fits[0].size >= 2
                assert got[0].tobytes() == fits[0].tobytes()
                # window contents: each anchor's (row, T, Y) set
                t, order, lo, hi = _index_windows(data, theta, anchors, h)
                pos, inside = _slots(lo, hi - lo, np.max(hi - lo))
                Z = _design((t[order][pos] - t[anchors][:, None])[:, :, None], h)
                gather = order[pos]
                assert len(windows) == anchors.size
                assert np.all(Z[:, :, 0] == 1.0)
                for k, (rows, T, _) in enumerate(windows):
                    by_row = np.argsort(gather[k, inside[k]], kind="stable")
                    slots = gather[k, inside[k]][by_row]
                    assert slots.tobytes() == rows.tobytes()
                    assert Z[k, inside[k], 1][by_row].tobytes() == (T / h).tobytes()
                    assert data.Y[slots].tobytes() == data.Y[rows].tobytes()
                # each anchor's local optimum, both evaluated on the dense
                # window; the slack of 8 ulps of the anchor's sum w|y| covers
                # shifted data, whose optima cancel to about 1e-11 of |y|
                kept = np.isin(anchors, fits[0])
                rows = [windows[k] for k in np.flatnonzero(kept)]
                np.testing.assert_allclose(got[3], [np.sum(W) for _, _, W in rows], rtol=1e-12)
                L = max(r.size for r, _, _ in rows)
                pad = np.zeros((len(rows), L))
                Tw, Ww, Yw = pad.copy(), pad.copy(), pad.copy()
                for k, (r, T, W) in enumerate(rows):
                    Tw[k, : r.size], Ww[k, : r.size], Yw[k, : r.size] = T, W, data.Y[r]
                want = _local_objectives(Tw, Ww, Yw, fits[1], fits[2], loss)
                have = _local_objectives(Tw, Ww, Yw, got[1], got[2], loss)
                slack = 8 * np.spacing(np.sum(Ww * np.abs(Yw), axis=1))
                assert np.all(np.abs(have - want) <= 1e-12 * np.abs(want) + slack)
                # outer problem: the dense rows after a lexsort by (row, anchor)
                cfg = QmaveConfig(loss=loss, kernel=kernel, h=h)
                (ii, cc), outer, objective = dense_pooled(data, theta, got, h, loss, kernel)
                problem = outer_problem(data, theta, got, cfg)
                rows_p, cols_p = index_pairs(data, theta, got[0], h)
                perm = np.lexsort((cols_p, rows_p))
                assert rows_p[perm].tobytes() == ii.tobytes()
                assert cols_p[perm].tobytes() == cc.tobytes()
                for want, have in zip(outer, (problem.Z, problem.y, problem.w)):
                    assert have[perm].tobytes() == want.tobytes()
                have = eq_objective(data, theta, got, cfg)
                assert have == pytest.approx(objective, rel=1e-12, abs=0)


def per_pair_runs(windows, step):
    """The (rows, cols) runs of the pairs of ``windows``, one searchsorted
    per pair: pair k lies in the window whose cumulative count first
    exceeds k, at its sorted position ``lo + k - start`` of that window.
    The reference for the run-length `_pair_runs`."""
    _, order, lo, hi = windows
    end = np.cumsum(hi - lo)
    total = int(end[-1]) if end.size else 0
    for k0 in range(0, total, step):
        k = np.arange(k0, min(k0 + step, total))
        cols = np.searchsorted(end, k, side="right")
        yield order[k + (lo - end + hi - lo)[cols]], cols


def index_pairs(data, theta, anchors, h):
    """Every (row, anchor) pair of the index windows of ``anchors``, as
    ``(rows, cols)`` in the order of the pooled rows."""
    windows = _index_windows(data, theta, anchors, h)
    return next(per_pair_runs(windows, data.n * len(anchors)))


class TestPairRuns:
    """`_pair_runs` forms each run's anchors by repeating them over the
    windows the run spans: the same (rows, cols) as one search per pair,
    for runs that start and end anywhere in a window."""

    @pytest.mark.parametrize("kind", ["plain", "ties", "duplicates"])
    def test_matches_per_pair_reference(self, kind):
        data, theta = window_data(kind)
        h = 0.75 if kind == "ties" else 0.1 * np.std(data.X @ theta, ddof=1)
        windows = _index_windows(data, theta, np.arange(1, 120, 2), h)
        size = windows[3] - windows[2]
        assert size[1] > 1  # so that a run can end inside it
        # steps of 1 and 7, one whose first boundary cuts the second
        # window in half, and every pair in one run
        for step in (1, 7, int(size[0] + size[1] // 2), int(size.sum())):
            have = list(_pair_runs(windows, step))
            want = list(per_pair_runs(windows, step))
            assert len(have) == len(want) == -(-int(size.sum()) // step)
            for (pos, span, count), (rows, cols) in zip(have, want):
                assert windows[1][pos].tobytes() == rows.tobytes()
                assert np.repeat(np.arange(span.start, span.stop), count).tobytes() == cols.tobytes()

    def test_no_anchors_no_run(self):
        data, theta = window_data("plain")
        windows = _index_windows(data, theta, np.empty(0, dtype=int), 0.5)
        assert list(_pair_runs(windows, 7)) == []


class TestIndexBlocks:
    """`index_fit_batch` runs its anchors in blocks, each padded to the
    longest window of all anchors: blocks of any size give the bytes of
    one block."""

    @pytest.mark.parametrize("kernel", [EPA, KernelSpec.quartic()])
    @pytest.mark.parametrize("loss", [MEDIAN, LossSpec.squared()])
    @pytest.mark.parametrize("kind", ["plain", "ties", "duplicates", "shifted", "isolated"])
    def test_blocks_change_no_byte(self, monkeypatch, kind, loss, kernel):
        data, theta = window_data("plain" if kind == "isolated" else kind)
        if kind == "isolated":
            # the first 16 rows on one far point: their 8 anchors fill the
            # first block of 7, and the rank screen drops every one
            X = data.X.copy()
            X[:16] = X[0] + 50.0
            data = Dataset(X, data.Y)
        h = 0.75 if kind == "ties" else 0.1 * np.std(data.X @ theta, ddof=1)
        anchors = np.arange(1, 120, 2)
        _, _, lo, hi = _index_windows(data, theta, anchors, h)
        _, windows = dense_index_fits(data, theta, anchors, h, loss, kernel)
        calls = []

        def spy(Z, Yg, Wg):
            # each block's design is [1, T/h] on its anchors' windows
            first = sum(calls)
            for k in range(Z.shape[0]):
                _, T, W = windows[first + k]
                inside = Wg[k] > 0
                assert np.all(Z[k, :, 0] == 1.0) and np.all(Wg[k, inside.sum() :] == 0)
                by_index = np.argsort(T, kind="stable")
                assert Z[k, inside, 1].tobytes() == (T[by_index] / h).tobytes()
                assert Wg[k, inside].tobytes() == W[by_index].tobytes()
            calls.append(Z.shape[0])
            return solve_ls(Z, Yg, Wg)

        solve_ls = localfit._solve_ls_batch
        monkeypatch.setattr(localfit, "_solve_ls_batch", spy)
        fits = {}
        # anchors per block: all 60 at once, 1, and 7 with a short last block
        for size in (anchors.size, 1, 7):
            monkeypatch.setattr(localfit, "_BLOCK_CELLS", size * 2 * np.max(hi - lo))
            calls.clear()
            fits[size] = index_fit_batch(data, theta, anchors, h, loss, kernel)
            assert calls == [min(size, anchors.size - k) for k in range(0, anchors.size, size)]
        want = fits[anchors.size]
        assert want[0].size >= 2
        if kind == "isolated":
            assert not np.isin(anchors[:8], want[0]).any()
        for size in (1, 7):
            for w, g in zip(want, fits[size]):
                assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("loss", [MEDIAN, LossSpec.squared()])
    def test_no_anchors(self, loss):
        data, theta = window_data("plain")
        idx, a, b, effw = index_fit_batch(data, theta, [], 0.5, loss, EPA)
        assert idx.dtype.kind == "i" and idx.shape == (0,)
        assert a.shape == b.shape == effw.shape == (0,)

    def test_peak_memory_at_n1000(self):
        data, theta = gen_model8(SimConfig(n=1000, seed=3))
        cfg = QmaveConfig(loss=LossSpec.squared())
        h = resolve_bandwidth(data, theta, cfg)
        anchors = np.flatnonzero(trim_mask(data, cfg.trim))
        tracemalloc.start()
        try:
            index_fit_batch(data, theta, anchors, h, cfg.loss, cfg.kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one stacked problem of every anchor peaks at about 12 MB
        assert peak < 4e6


def exact_pooled(data, theta, fits, h, loss, w):
    """The pooled objective of ``fits`` at ``theta`` in exact rational
    arithmetic, over the library's (row, anchor) pairs with their weights
    ``w``: ``sum w loss(Y_i - a_j - b_j (X_i - X_j)'theta)``."""
    j, a, b, _ = fits
    rows, cols = index_pairs(data, theta, j, h)
    th = [Fraction(v) for v in theta]
    total = Fraction(0)
    for i, c, wk in zip(rows.tolist(), cols.tolist(), w.tolist()):
        offset = sum((Fraction(x) - Fraction(x0)) * t for x, x0, t in zip(data.X[i], data.X[j[c]], th))
        r = Fraction(data.Y[i]) - Fraction(a[c]) - Fraction(b[c]) * offset
        if loss.is_quantile:
            tau = Fraction(loss.tau)
            total += Fraction(wk) * (tau * r if r > 0 else (tau - 1) * r)
        else:
            total += Fraction(wk) * r * r
    return float(total)


class TestPooledObjectiveIsExact:
    """The pooled objective is read off the outer problem's rows, whose
    offsets ``X_i - X_j`` are exact even where ``t = X theta`` rounds:
    on X shifted by 1e6 it must match an exact evaluation to rounding."""

    @pytest.mark.parametrize("kernel", [EPA, KernelSpec.quartic()])
    @pytest.mark.parametrize("loss", [MEDIAN, LossSpec.squared()])
    def test_matches_exact_sum_on_shifted_data(self, loss, kernel):
        data, theta = window_data("shifted")
        h = 0.02 * np.std(data.X @ theta, ddof=1)
        fits = index_fit_batch(data, theta, np.arange(1, 120, 2), h, loss, kernel)
        cfg = QmaveConfig(loss=loss, kernel=kernel, h=h)
        problem = outer_problem(data, theta, fits, cfg)
        assert problem.n >= 100
        exact = exact_pooled(data, theta, fits, h, loss, problem.w)
        assert eq_objective(data, theta, fits, cfg) == pytest.approx(exact, rel=1e-12, abs=0)


class TestChunkedSquaredStep:
    """The squared-loss outer step and pooled objective sum over chunks of
    the pooled rows instead of building the pooled problem: chunking
    changes only rounding, and the pooled problem assembled from chunks of
    any size has the same bytes."""

    @pytest.mark.parametrize("rows", [1, 7, None])
    @pytest.mark.parametrize("kernel", [EPA, KernelSpec.quartic()])
    @pytest.mark.parametrize("kind", ["model8", "shifted"])
    def test_matches_the_pooled_problem(self, monkeypatch, kind, kernel, rows):
        if kind == "model8":
            data, theta = gen_model8(SimConfig(n=100, seed=4))
            h = 0.5 * np.std(data.X @ theta, ddof=1)
        else:  # X * 1e-3 + 1e6
            data, theta = window_data("shifted")
            h = 0.1 * np.std(data.X @ theta, ddof=1)
        cfg = QmaveConfig(loss=LossSpec.squared(), kernel=kernel, h=h)
        fits = inner_step(data, theta, cfg)
        problem = outer_problem(data, theta, fits, cfg)
        # rows per chunk: 1, 7, or every pair in one chunk
        monkeypatch.setattr(fit_module, "_BOX_CELLS", data.d * (rows or problem.n))
        chunked = outer_problem(data, theta, fits, cfg)
        for want, have in zip((problem.Z, problem.y, problem.w), (chunked.Z, chunked.y, chunked.w)):
            assert have.tobytes() == want.tobytes()
        beta = solve_weighted_ls(problem)
        new = outer_step(data, theta, fits, cfg)
        assert estimation_error(new, beta / np.linalg.norm(beta)) <= 1e-12
        want = problem.objective(theta)
        assert eq_objective(data, theta, fits, cfg) == pytest.approx(want, rel=1e-13, abs=0)


def dense_full_problems(data, anchors, h0, kernel):
    """The stacked problems ``(block, D, W, Y)`` of the full fits, built on
    the dense (n, m, d) offset tensor and (n, m) product-kernel weights,
    one per block of anchors (a block is one stacked solve): the reference
    for the box windows."""
    for start in range(0, anchors.size, _FULL_BLOCK):
        block = anchors[start : start + _FULL_BLOCK]
        D = data.X[:, None, :] - data.X[None, block, :]
        W = np.prod(kernel_eval(kernel, D / h0), axis=-1)
        gather, inside = _padded_gather(W)
        Dg = np.take_along_axis(D.transpose(1, 0, 2), gather[:, :, None], axis=1)
        Wg = np.where(inside, np.take_along_axis(W.T, gather, axis=1), 0.0)
        yield block, Dg, Wg, data.Y[gather]


def dense_full_fits(data, anchors, h0, loss, kernel):
    """`reference_fits` on each of the `dense_full_problems`."""
    parts = []
    for block, Dg, Wg, Yg in dense_full_problems(data, anchors, h0, kernel):
        kept, a, B, effw = reference_fits(Dg, Wg, Yg, h0, loss)
        parts.append((block[kept], a, B, effw))
    return tuple(np.concatenate(part) for part in zip(*parts))


def underflow_data():
    """d=12 data whose last rows sit just inside the box of anchor 0 in
    every coordinate: each quartic factor is positive, their product
    underflows to 0."""
    rng = np.random.default_rng(41)
    X = rng.uniform(-0.05, 0.05, size=(40, 12))
    edge = X[0] + (1.0 - 1e-14) * rng.choice([-1.0, 1.0], size=(6, 12))
    X = np.vstack([X, edge])
    return Dataset(X, rng.normal(size=X.shape[0]))


class TestBoxFullFits:
    """Full fits take each anchor's rows from the box of largest
    coordinate offsets, block by block; every byte must equal the dense
    (n, m, d) construction."""

    @pytest.mark.parametrize("kernel", [EPA, KernelSpec.quartic()])
    @pytest.mark.parametrize("loss", [LossSpec.quantile(0.3), MEDIAN, LossSpec.squared()])
    @pytest.mark.parametrize(
        "case", ["n200", "n300_blocks", "ties", "underflow", "only_anchor", "every_row", "sorted"]
    )
    def test_matches_dense_construction(self, case, loss, kernel, monkeypatch):
        if case == "underflow":
            data, h0 = underflow_data(), 1.0
            D = data.X - data.X[0]
            factors = kernel_eval(KernelSpec.quartic(), D / h0)
            assert np.any(np.all(factors > 0, axis=1) & (np.prod(factors, axis=1) == 0))
        else:
            rng = np.random.default_rng(42)
            n = 300 if case == "n300_blocks" else 200
            X = rng.normal(size=(n, 3))
            if case == "ties":
                X = np.round(X * 2) / 2  # coordinate offsets land on the box edge
            if case == "sorted":
                X = X[np.argsort(X[:, 0])]
            data = Dataset(X, np.round(X @ [1.0, -1.0, 0.5] + rng.standard_t(3, size=n), 1))
            R = np.max(np.abs(X[:, None, :] - X[None, :, :]), axis=2)
            widths = {"ties": 1.5, "only_anchor": np.min(R[R > 0]), "every_row": np.max(R) * 1.01}
            h0 = widths.get(case, 1.2)
        anchors = np.arange(data.n)
        stacked = []

        def spy(Z, Yg, Wg):
            assert np.all(Z[:, :, 0] == 1.0)
            stacked.append((Z[:, :, 1:].copy(), Wg.copy(), Yg.copy()))
            return solve_ls(Z, Yg, Wg)

        solve_ls = localfit._solve_ls_batch
        monkeypatch.setattr(localfit, "_solve_ls_batch", spy)
        have = full_fit_batch(data, anchors, h0, loss, kernel)
        problems = list(dense_full_problems(data, anchors, h0, kernel))
        # a group of anchors runs in blocks of `_local_fits`: join one group's blocks
        calls = iter(stacked)
        for block, *want in problems:
            parts = []
            while sum(part[0].shape[0] for part in parts) < block.size:
                parts.append(next(calls))
            got = [np.concatenate(arrays) for arrays in zip(*parts)]
            want[0] = want[0] / h0  # the design holds the offsets in bandwidth units
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()
        assert next(calls, None) is None
        want = dense_full_fits(data, anchors, h0, loss, kernel)
        for w, h in zip(want, have):
            assert h.tobytes() == w.tobytes()
        L = stacked[0][0].shape[1]
        if case == "only_anchor":
            assert L == 1 and want[0].size == 0  # one row admits no fit
        else:
            assert want[0].size > 0
        if case == "every_row":
            assert L == data.n
        if case == "sorted":
            # the last anchor's box rows all sit past the first L columns
            assert np.all(R[-1, :L] >= h0)

    def test_auto_init_peak_memory(self):
        data, _ = gen_model8(SimConfig(n=2000, seed=7))
        tracemalloc.start()
        try:
            _auto_init(data, QmaveConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6


def box_data(kind):
    """n=120, d=3 data for the full fits: plain, on a half grid so that
    box edges fall on rows, or with the first 16 rows on one far point,
    whose 8 anchors fill the first block of 7 and fail the rank screen."""
    rng = np.random.default_rng(43)
    X = rng.normal(size=(120, 3))
    if kind == "ties":
        X = np.round(X * 2) / 2
    elif kind == "isolated":
        X[:16] = X[0] + 50.0
    return Dataset(X, np.round(X @ [1.0, -1.0, 0.5] + rng.standard_t(3, size=120), 1))


class TestFullBlocks:
    """`full_fit_batch` solves each group of ``_FULL_BLOCK`` anchors in
    blocks of ``_BLOCK_CELLS // L(d + 1)`` anchors, each padded to L, the
    group's longest window; the solver finishes each problem on its own,
    so blocks of any size give the bytes of one block."""

    @pytest.mark.parametrize("kernel", [EPA, KernelSpec.quartic()])
    @pytest.mark.parametrize("loss", [MEDIAN, LossSpec.squared()])
    @pytest.mark.parametrize("kind", ["plain", "ties", "isolated"])
    def test_blocks_change_no_byte(self, monkeypatch, kind, loss, kernel):
        data = box_data(kind)
        anchors = np.arange(1, 120, 2)
        calls = []

        def spy(Z, *rest):
            calls.append(Z.shape)
            return solve_ls(Z, *rest)

        solve_ls = localfit._solve_ls_batch
        monkeypatch.setattr(localfit, "_solve_ls_batch", spy)
        fits = {anchors.size: full_fit_batch(data, anchors, 1.5, loss, kernel)}
        assert len(calls) == 1
        width = calls[0][1]
        # anchors per block: 1, and 7 with a short last block
        for size in (1, 7):
            monkeypatch.setattr(localfit, "_BLOCK_CELLS", size * width * (data.d + 1))
            calls.clear()
            fits[size] = full_fit_batch(data, anchors, 1.5, loss, kernel)
            want = [min(size, anchors.size - k) for k in range(0, anchors.size, size)]
            assert calls == [(b, width, data.d + 1) for b in want]
        want = fits[anchors.size]
        assert want[0].size >= 2
        if kind == "isolated":
            assert not np.isin(anchors[:8], want[0]).any()
        for size in (1, 7):
            for w, g in zip(want, fits[size]):
                assert g.tobytes() == w.tobytes()

    def test_rejects_are_polished_alone(self, monkeypatch):
        # the vertex polish sweeps a problem again only while its own last
        # sweep improved; on this group one problem gains 9e-15 relative
        # in its first sweep and stops there, whether its block or the
        # whole group is polished with it
        data, _ = gen_model8(SimConfig(n=1000, seed=3))
        base = default_bandwidth(BandwidthRule.full_dim(5), 1000, coordinate_dispersion(data.X))
        args = (data, np.arange(256, 512), 2.25 * base, MEDIAN, KernelSpec.quartic())
        blocks = full_fit_batch(*args)
        monkeypatch.setattr(localfit, "_BLOCK_CELLS", 10**9)
        one = full_fit_batch(*args)
        for w, g in zip(one, blocks):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("loss, bound", [(LossSpec.squared(), 3e6), (MEDIAN, 4e6)])
    def test_peak_memory_at_n1000(self, loss, bound):
        # at the ladder rung auto-init takes here the fits peak at 1.32 MB
        # (squared loss) and 1.70 MB (tau = 0.5), 2.51 MB under either loss
        # with the box offsets whole; TestBoxChunks holds the tighter bounds
        data, _ = gen_model8(SimConfig(n=1000, seed=3))
        base = default_bandwidth(BandwidthRule.full_dim(5), 1000, coordinate_dispersion(data.X))
        anchors = np.flatnonzero(trim_mask(data, TrimSpec()))
        tracemalloc.start()
        try:
            full_fit_batch(data, anchors, 1.5 * base, loss, EPA)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


def chunk_box_offsets(monkeypatch, rows, n):
    """Set the chunk rule of `_box_offsets` to ``rows`` rows of n cells,
    and record each chunk ``(lo, rows)`` that the full fits or the ladder
    probe read."""
    monkeypatch.setattr(localfit, "_BOX_CELLS", (rows * n + 1) // 2)
    seen = []

    def spy(X, x0):
        for lo, Rk in _box_offsets(X, x0):
            seen.append((lo, Rk.shape[0]))
            yield lo, Rk

    monkeypatch.setattr(localfit, "_box_offsets", spy)
    monkeypatch.setattr(fit_module, "_box_offsets", spy)
    return seen


def probe_at_n1000():
    """The ladder probe's inputs at n=1000 (seed 3): data, trimmed anchors
    and the full-dimensional default bandwidth."""
    data, _ = gen_model8(SimConfig(n=1000, seed=3))
    base = default_bandwidth(BandwidthRule.full_dim(5), 1000, coordinate_dispersion(data.X))
    return data, np.flatnonzero(trim_mask(data, TrimSpec())), base


class TestBoxChunks:
    """The box offsets R are never whole: `_box_offsets` yields them a chunk
    of rows at a time, in buffers reused from chunk to chunk.  Every entry
    is formed alone, so chunks of any size give the same bytes."""

    @pytest.mark.parametrize("kernel", [EPA, KernelSpec.quartic()])
    @pytest.mark.parametrize("loss", [MEDIAN, LossSpec.squared()])
    @pytest.mark.parametrize("kind", ["plain", "ties", "isolated"])
    def test_full_fits_change_no_byte(self, monkeypatch, kind, loss, kernel):
        data = box_data(kind)
        anchors = np.arange(1, 120, 2)
        want = full_fit_batch(data, anchors, 1.5, loss, kernel)
        assert want[0].size >= 2
        # rows per chunk: 1, 7 with a short last chunk, and the whole group
        for rows in (1, 7, anchors.size):
            seen = chunk_box_offsets(monkeypatch, rows, data.n)
            have = full_fit_batch(data, anchors, 1.5, loss, kernel)
            assert seen == [(lo, min(rows, anchors.size - lo)) for lo in range(0, anchors.size, rows)]
            for w, g in zip(want, have):
                assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("n", [200, 1000])
    def test_probe_changes_no_byte(self, monkeypatch, n):
        data, _ = gen_model8(SimConfig(n=n, seed=15))
        anchors = np.flatnonzero(trim_mask(data, TrimSpec()))
        base = default_bandwidth(BandwidthRule.full_dim(5), n, coordinate_dispersion(data.X))
        h0s = [base * mult for mult in fit_module._INIT_LADDER]
        want = fit_module._median_window_count(data, anchors, h0s)
        assert len(set(want)) > 1
        for rows in (1, 7, anchors.size):
            seen = chunk_box_offsets(monkeypatch, rows, data.n)
            have = fit_module._median_window_count(data, anchors, h0s)
            assert seen == [(lo, min(rows, anchors.size - lo)) for lo in range(0, anchors.size, rows)]
            assert have.tobytes() == want.tobytes()

    @pytest.mark.parametrize("loss, bound", [(LossSpec.squared(), 1.5e6), (MEDIAN, 1.9e6)])
    def test_full_fits_peak_memory_at_n1000(self, loss, bound):
        # at the ladder rung auto-init takes here: with R whole (2.05 MB)
        # the full fits peaked at 2.51 MB under either loss
        data, anchors, base = probe_at_n1000()
        tracemalloc.start()
        try:
            full_fit_batch(data, anchors, 1.5 * base, loss, EPA)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_probe_peak_memory_at_n1000(self):
        # the probe over every rung and every anchor: with R whole it
        # peaked at 2.50 MB
        data, anchors, base = probe_at_n1000()
        tracemalloc.start()
        try:
            fit_module._median_window_count(
                data, anchors, [base * mult for mult in fit_module._INIT_LADDER]
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.35e6
