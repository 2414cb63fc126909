"""Data generation and the Monte Carlo benchmark harness.

The benchmark regenerates the symmetric-bump model ``y = exp(-5 (theta0'
X)^2) + eps`` with an AR(1)-correlated Gaussian design at the default
index ``DEFAULT_THETA0``, fits both the check-loss and squared-loss
variants of the alternating estimator, and aggregates sign-invariant
estimation errors per (n, method, noise) cell.

All randomness flows through counter-based Philox streams keyed by hashes
of (purpose, seed, ...) so results are byte-identical regardless of how
replications are scheduled.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import asdict, astuple, dataclass, field, fields
from enum import Enum

import numpy as np

from .core import LossSpec, _check_count
from .errors import InvalidInputError, QmaveError
from .fit import QmaveConfig, estimation_error, qmave_fit
from .localfit import Dataset

__all__ = [
    "NoiseLaw",
    "SimConfig",
    "BenchmarkRow",
    "BenchmarkReport",
    "DEFAULT_THETA0",
    "derive_key",
    "gen_design",
    "gen_noise",
    "gen_model8",
    "run_benchmark",
]

DESIGN_DIM = 5

# Unit-norm default true index of `SimConfig`, and so of every benchmark
# replication.
DEFAULT_THETA0 = np.array([1.0, 2.0, 0.0, 0.0, 2.0]) / 3.0

METHODS = ("MAVE", "qMAVE")

# Iteration budget for benchmark fits: convergence slop at 1e-3 is two
# orders below the statistical error of any cell.
_BENCH_TOL = 1e-3
_BENCH_MAX_ITER = 30


class NoiseLaw(Enum):
    """The four benchmark noise distributions."""

    SCALED_T1 = "t1"
    CENTERED_QUARTIC_NORMAL = "quartic"
    SCALED_T5 = "t5"
    SCALED_NORMAL = "normal"


def _check_law(name, value):
    """Raise unless ``value`` is a `NoiseLaw` member."""
    if not isinstance(value, NoiseLaw):
        raise InvalidInputError(f"{name} must be a NoiseLaw, got {value!r}")


def derive_key(*parts) -> int:
    """128-bit Philox key from a canonical hash of the given parts."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode(), digest_size=16).digest()
    return int.from_bytes(digest, "little")


def _rng(*parts) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=derive_key(*parts)))


def _design_covariance() -> np.ndarray:
    idx = np.arange(DESIGN_DIM)
    return 0.5 ** np.abs(idx[:, None] - idx[None, :])


def gen_design(n: int, seed) -> np.ndarray:
    """n i.i.d. draws of a 5-dim Gaussian with covariance 0.5^|i-j|."""
    _check_count("n", n)
    rng = _rng("design", seed)
    L = np.linalg.cholesky(_design_covariance())
    return rng.standard_normal((n, DESIGN_DIM)) @ L.T


def gen_noise(law: NoiseLaw, n: int, seed) -> np.ndarray:
    """Deterministic draw of length n from one of the benchmark noises.

    t-variates are sampled as normal / sqrt(chi2/df) with the chi-square
    built from summed squared normals drawn in the same block.
    """
    _check_law("law", law)
    _check_count("n", n)
    rng = _rng("noise", law.value, seed)
    if law is NoiseLaw.SCALED_T1:
        block = rng.standard_normal((n, 2))
        return 0.05 * block[:, 0] / np.abs(block[:, 1])
    if law is NoiseLaw.SCALED_T5:
        block = rng.standard_normal((n, 6))
        chi2 = np.sum(block[:, 1:] ** 2, axis=1)
        return (math.sqrt(5.0) / 20.0) * block[:, 0] / np.sqrt(chi2 / 5.0)
    if law is NoiseLaw.CENTERED_QUARTIC_NORMAL:
        z = rng.standard_normal(n)
        return 0.1 * (z**4 - 3.0)
    z = rng.standard_normal(n)
    return z / 4.0


@dataclass
class SimConfig:
    """One simulated dataset: size, true index, noise law and seed."""

    n: int
    noise: NoiseLaw = NoiseLaw.SCALED_NORMAL
    seed: int = 0
    theta0: np.ndarray = field(default_factory=lambda: DEFAULT_THETA0.copy())

    def __post_init__(self):
        _check_count("n", self.n)
        if self.n < 2:
            raise InvalidInputError(f"need n >= 2, got {self.n}")
        _check_law("noise", self.noise)
        self.theta0 = np.asarray(self.theta0, dtype=float).ravel()
        if self.theta0.shape != (DESIGN_DIM,):
            raise InvalidInputError(f"theta0 must have length {DESIGN_DIM}")
        if abs(np.linalg.norm(self.theta0) - 1.0) > 1e-8:
            raise InvalidInputError("theta0 must be unit-norm")


def gen_model8(cfg: SimConfig):
    """Simulate ``Y = exp(-5 (theta0'X)^2) + eps``, with ``eps`` the draw
    ``gen_noise(cfg.noise, cfg.n, derive_key("model8", cfg.seed))``.

    Returns ``(Dataset, theta0)``.
    """
    X = gen_design(cfg.n, cfg.seed)
    eps = gen_noise(cfg.noise, cfg.n, derive_key("model8", cfg.seed))
    v = X @ cfg.theta0
    Y = np.exp(-5.0 * v * v) + eps
    return Dataset(X, Y), cfg.theta0.copy()


@dataclass
class BenchmarkRow:
    """One aggregate cell of the benchmark."""

    n: int
    method: str
    noise: str
    mean_error: float
    sd_error: float
    replications: int
    excluded: int

    @property
    def flagged(self) -> bool:
        """True when more than 10% of the replications were excluded."""
        return self.excluded > 0.1 * self.replications


@dataclass
class BenchmarkReport:
    """Benchmark results with stable CSV/JSON serialisations."""

    rows: list

    CSV_COLUMNS = tuple(f.name for f in fields(BenchmarkRow))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.CSV_COLUMNS)
        for r in self.rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in astuple(r)])
        return buf.getvalue()

    def to_json(self) -> str:
        rows = [{**asdict(r), "flagged": r.flagged} for r in self.rows]
        return json.dumps({"rows": rows}, indent=2, allow_nan=True)

    def cell(self, n: int, method: str, noise: str) -> BenchmarkRow:
        for r in self.rows:
            if r.n == n and r.method == method and r.noise == noise:
                return r
        raise KeyError((n, method, noise))


def _fit_config(method: str, tol: float, max_iter: int) -> QmaveConfig:
    if method == "qMAVE":
        loss = LossSpec.quantile(0.5)
    elif method == "MAVE":
        loss = LossSpec.squared()
    else:
        raise InvalidInputError(f"unknown method {method!r}")
    return QmaveConfig(loss=loss, tol=tol, max_iter=max_iter)


def _bench_rep(args):
    """One replication: simulate a dataset, fit each method on it."""
    n, law_value, methods, seed, tol, max_iter = args
    data, truth = gen_model8(SimConfig(n=n, noise=NoiseLaw(law_value), seed=seed))
    out = []
    for method in methods:
        try:
            result = qmave_fit(data, _fit_config(method, tol, max_iter))
            out.append((True, estimation_error(result.theta, truth)))
        except QmaveError as exc:
            out.append((False, f"{type(exc).__name__}: {exc}"))
    return out


def run_benchmark(
    ns,
    laws,
    methods=METHODS,
    replications: int = 100,
    base_seed: int = 0,
    workers: int = 1,
    tol: float = _BENCH_TOL,
    max_iter: int = _BENCH_MAX_ITER,
) -> BenchmarkReport:
    """Monte Carlo benchmark over a (n, noise law) grid.

    Every replication simulates `gen_model8` at the `SimConfig` default
    true index ``DEFAULT_THETA0``, and every method within a replication
    fits the same dataset; per-cell seeds are derived from ``(base_seed,
    n, law, rep)``, so the report is identical for any ``workers`` value
    and any scheduling order.
    Replications whose fit raises are excluded from the aggregates and
    counted in ``excluded``.  ``replications``, ``workers`` and each of
    ``ns`` must be integers >= 1, each of ``laws`` a `NoiseLaw`, and
    ``ns``, ``laws`` and ``methods`` nonempty.
    """
    _check_count("replications", replications)
    _check_count("workers", workers)
    ns, laws = list(ns), list(laws)
    for k, n in enumerate(ns):
        _check_count(f"ns[{k}]", n)
    for k, law in enumerate(laws):
        _check_law(f"laws[{k}]", law)
    ns, methods = [int(n) for n in ns], tuple(methods)
    for name, values in (("ns", ns), ("laws", laws), ("methods", methods)):
        if not values:
            raise InvalidInputError(f"{name} is empty: the benchmark grid needs at least one")
    for m in methods:
        _fit_config(m, tol, max_iter)  # validate names eagerly

    jobs = []
    for n in ns:
        for law in laws:
            for rep in range(replications):
                seed = derive_key("bench", base_seed, n, law.value, rep)
                jobs.append((n, law.value, methods, seed, tol, max_iter))

    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # a seventh of the import time

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_bench_rep, jobs, chunksize=4))
    else:
        results = [_bench_rep(job) for job in jobs]

    rows = []
    pos = 0
    for n in ns:
        for law in laws:
            block = results[pos : pos + replications]
            pos += replications
            for k, method in enumerate(methods):
                errors = [r[k][1] for r in block if r[k][0]]
                excluded = replications - len(errors)
                if errors:
                    mean = float(np.mean(errors))
                    sd = float(np.std(errors, ddof=1)) if len(errors) > 1 else 0.0
                else:
                    mean, sd = math.nan, math.nan
                rows.append(
                    BenchmarkRow(n, method, law.value, mean, sd, replications, excluded)
                )
    return BenchmarkReport(rows)
