"""Data generation determinism/moments and the benchmark harness."""

import math

import numpy as np
import pytest

from qmave import (
    InvalidInputError,
    NoiseLaw,
    SimConfig,
    gen_design,
    gen_model8,
    gen_noise,
    run_benchmark,
)
from qmave.simulate import DEFAULT_THETA0, BenchmarkReport, derive_key


class TestGenDesign:
    def test_covariance_matches_target(self):
        X = gen_design(100_000, seed=1)
        target = 0.5 ** np.abs(np.subtract.outer(np.arange(5), np.arange(5)))
        sample = np.cov(X, rowvar=False)
        assert np.max(np.abs(sample - target)) < 0.02

    def test_unit_column_variances(self):
        X = gen_design(100_000, seed=2)
        assert np.all(np.abs(X.var(axis=0, ddof=1) - 1.0) < 0.02)

    def test_bitwise_determinism(self):
        a = gen_design(500, seed=42)
        b = gen_design(500, seed=42)
        assert a.tobytes() == b.tobytes()

    def test_seed_changes_stream(self):
        assert gen_design(10, seed=0).tobytes() != gen_design(10, seed=1).tobytes()


class TestGenNoise:
    def test_scaled_normal_sd(self):
        eps = gen_noise(NoiseLaw.SCALED_NORMAL, 100_000, seed=3)
        assert abs(eps.std() - 0.25) < 0.01

    def test_quartic_centered(self):
        eps = gen_noise(NoiseLaw.CENTERED_QUARTIC_NORMAL, 1_000_000, seed=4)
        assert abs(eps.mean()) < 0.01

    def test_t5_sd(self):
        # sd of sqrt(5)/20 * t(5) is sqrt(5)/20 * sqrt(5/3)
        eps = gen_noise(NoiseLaw.SCALED_T5, 1_000_000, seed=5)
        assert abs(eps.std() - math.sqrt(5) / 20 * math.sqrt(5 / 3)) < 0.005

    def test_t1_quartiles(self):
        # t(1) quartiles are +-1, so the scaled IQR is 0.1
        eps = gen_noise(NoiseLaw.SCALED_T1, 200_000, seed=6)
        iqr = np.quantile(eps, 0.75) - np.quantile(eps, 0.25)
        assert abs(iqr - 0.1) < 0.01

    def test_determinism_and_law_separation(self):
        a = gen_noise(NoiseLaw.SCALED_T1, 100, seed=7)
        b = gen_noise(NoiseLaw.SCALED_T1, 100, seed=7)
        c = gen_noise(NoiseLaw.SCALED_T5, 100, seed=7)
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() != c.tobytes()

    def test_bad_size_or_law_rejected(self):
        for n in (-1, 0, 2.5, "3", True):
            with pytest.raises(InvalidInputError, match="n must be an integer"):
                gen_noise(NoiseLaw.SCALED_T1, n, seed=7)
        with pytest.raises(InvalidInputError, match="law must be a NoiseLaw"):
            gen_noise("t1", 10, seed=7)


class TestGenModel8:
    def test_noiseless_range(self):
        data, _ = gen_model8(SimConfig(n=500, seed=8), noise_scale=0.0)
        assert np.all(data.Y > 0) and np.all(data.Y <= 1.0)

    def test_link_peak_at_zero_index(self):
        cfg = SimConfig(n=50, seed=9)
        data, theta0 = gen_model8(cfg, noise_scale=0.0)
        v = data.X @ theta0
        np.testing.assert_allclose(data.Y, np.exp(-5.0 * v * v))

    def test_reproducible_dataset(self):
        cfg = SimConfig(n=300, noise=NoiseLaw.SCALED_T1, seed=10)
        d1, t1 = gen_model8(cfg)
        d2, t2 = gen_model8(SimConfig(n=300, noise=NoiseLaw.SCALED_T1, seed=10))
        assert d1.X.tobytes() == d2.X.tobytes()
        assert d1.Y.tobytes() == d2.Y.tobytes()
        np.testing.assert_array_equal(t1, t2)

    def test_theta0_validated(self):
        with pytest.raises(InvalidInputError):
            SimConfig(n=10, theta0=np.ones(5))

    def test_size_and_noise_validated(self):
        for n in ("5", 2.5, None):
            with pytest.raises(InvalidInputError, match="n must be an integer"):
                SimConfig(n=n)
        with pytest.raises(InvalidInputError, match="need n >= 2"):
            SimConfig(n=1)
        with pytest.raises(InvalidInputError, match="noise must be a NoiseLaw"):
            SimConfig(n=200, noise="t1")


class TestRunBenchmark:
    def test_single_replication_sd_zero(self):
        # a numpy size is accepted and reported as a plain int
        report = run_benchmark(
            [np.int64(80)], [NoiseLaw.SCALED_NORMAL], replications=1, base_seed=1
        )
        for row in report.rows:
            assert row.sd_error == 0.0
            assert row.replications == 1
            assert type(row.n) is int
        report.to_json()

    @pytest.mark.parametrize("bad", [0, -3, True, 1.5])
    @pytest.mark.parametrize("name", ["replications", "workers"])
    def test_counts_must_be_positive_integers(self, name, bad):
        kw = {"replications": 1, "workers": 1, name: bad}
        with pytest.raises(InvalidInputError, match=f"{name} must be an integer >= 1"):
            run_benchmark([80], [NoiseLaw.SCALED_NORMAL], **kw)

    def test_deterministic_across_parallelism(self):
        kw = dict(
            ns=[80],
            laws=[NoiseLaw.SCALED_NORMAL, NoiseLaw.SCALED_T5],
            replications=3,
            base_seed=11,
        )
        seq = run_benchmark(workers=1, **kw)
        par = run_benchmark(workers=2, **kw)
        assert seq.to_csv() == par.to_csv()
        assert seq.to_json() == par.to_json()

    def test_cell_seeds_independent_of_other_laws(self):
        a = run_benchmark(
            [80], [NoiseLaw.SCALED_NORMAL, NoiseLaw.SCALED_T5], replications=2, base_seed=3
        )
        b = run_benchmark(
            [80], [NoiseLaw.SCALED_NORMAL, NoiseLaw.SCALED_T1], replications=2, base_seed=3
        )
        for method in ("MAVE", "qMAVE"):
            ra = a.cell(80, method, "normal")
            rb = b.cell(80, method, "normal")
            assert ra.mean_error == rb.mean_error
            assert ra.sd_error == rb.sd_error

    def test_csv_schema(self):
        report = run_benchmark([80], [NoiseLaw.SCALED_T5], replications=1, base_seed=5)
        lines = report.to_csv().splitlines()
        assert lines[0] == "n,method,noise,mean_error,sd_error,replications,excluded"
        assert len(lines) == 1 + 2  # header + one row per method
        import json

        payload = json.loads(report.to_json())
        assert set(payload["rows"][0]) == {
            "n",
            "method",
            "noise",
            "mean_error",
            "sd_error",
            "replications",
            "excluded",
            "flagged",
        }

    def test_row_order_fixed(self):
        report = run_benchmark(
            [80], [NoiseLaw.SCALED_T5, NoiseLaw.SCALED_NORMAL], replications=1, base_seed=6
        )
        keys = [(r.n, r.noise, r.method) for r in report.rows]
        assert keys == [
            (80, "t5", "MAVE"),
            (80, "t5", "qMAVE"),
            (80, "normal", "MAVE"),
            (80, "normal", "qMAVE"),
        ]

    @pytest.mark.parametrize("name", ["ns", "laws", "methods"])
    def test_empty_grid_axis_is_rejected(self, name):
        kw = {"ns": [80], "laws": [NoiseLaw.SCALED_T5], name: []}
        with pytest.raises(InvalidInputError, match=f"{name} is empty"):
            run_benchmark(replications=1, **kw)

    @pytest.mark.parametrize("bad", [12.9, 2.7, "x", 0, True])
    def test_bad_size_rejected(self, bad):
        # a size is never truncated: 12.9 would otherwise report an n=12 row
        with pytest.raises(InvalidInputError, match=r"ns\[1\] must be an integer >= 1"):
            run_benchmark([80, bad], [NoiseLaw.SCALED_T5], replications=1)

    @pytest.mark.parametrize("bad", ["t1", None])
    def test_bad_law_rejected(self, bad):
        with pytest.raises(InvalidInputError, match=r"laws\[1\] must be a NoiseLaw"):
            run_benchmark([80], [NoiseLaw.SCALED_T5, bad], replications=1)

    def test_bad_method_rejected(self):
        with pytest.raises(InvalidInputError):
            run_benchmark([80], [NoiseLaw.SCALED_T5], methods=("SIR",), replications=1)

    def test_derive_key_stable(self):
        assert derive_key("bench", 0, 200, "t1", 3) == derive_key("bench", 0, 200, "t1", 3)
        assert derive_key("a") != derive_key("b")
