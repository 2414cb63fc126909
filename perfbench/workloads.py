"""The workloads of the qmave benchmark.

A workload turns a seed into a numbered sequence of units.  One unit is
one call into the library (one benchmark grid, or one fit), and unit k
has the same inputs every time it runs for a given seed.  Each unit
returns a ``UnitResult`` naming its inputs, whose ``key`` must repeat
exactly whenever the same inputs are run again.

The library is reached only through its public names, looked up on the
``qmave`` package at call time, so that a traced run can wrap them.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import qmave as qm

LAWS = (
    qm.NoiseLaw.SCALED_T1,
    qm.NoiseLaw.CENTERED_QUARTIC_NORMAL,
    qm.NoiseLaw.SCALED_T5,
    qm.NoiseLaw.SCALED_NORMAL,
)

# Input i of seed s draws its data from seed s * UNIT_STRIDE + i.
UNIT_STRIDE = 1_000_000

# Warm-up data is the same for every seed, so set-up time does not vary
# with the seed.
WARMUP_SEED = -1

# A returned index must be unit-norm to this tolerance.
UNIT_NORM_TOL = 1e-9


@dataclass
class UnitResult:
    """Outcome of one unit: what must repeat, what was fit, what broke."""

    inputs: object  # equal for units that run the same inputs
    key: object
    attempted: int
    failed: int
    # method -> list of (mean estimation error, completed fits behind it)
    errors: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def weighted_error_mean(units, method):
    """Completed-fit-weighted mean estimation error of one method."""
    total = weight = 0.0
    for unit in units:
        for err, count in unit.errors.get(method, ()):
            total += err * count
            weight += count
    return total / weight if weight else None


class GridWorkload:
    """The paper's n=200 table: both methods, all four noise laws.

    A timed unit is one noise law's row of the table (unit k runs law
    k mod 4), so a unit lasts about a second and the host's speed can be
    sampled between units.  Timed units run each fit for a fixed number
    of iterations, as ``FitWorkload`` does; the accuracy units run all
    four laws at the benchmark config of ``run_benchmark`` (tol 1e-3,
    max_iter 30), the paper's table.
    """

    name = "grid_n200"
    methods = ("MAVE", "qMAVE")
    n = 200
    replications = 1  # per noise law and unit
    max_iter = 5
    tol = 1e-12
    pool = 24  # distinct inputs, six per law; timed units cycle through them
    accuracy_units = 1  # units behind error_mean_* and failed_share
    trace_units = 4  # units in one pass of a traced run: one per law

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        """Warm-up: one timed-config replication through every layer."""
        self._grid([qm.NoiseLaw.SCALED_NORMAL], WARMUP_SEED, self.tol, self.max_iter)

    def run_unit(self, k: int) -> UnitResult:
        k %= self.pool
        return self._unit(k, [LAWS[k % len(LAWS)]], self.tol, self.max_iter)

    def accuracy_unit(self, k: int) -> UnitResult:
        return self._unit(k, LAWS, None, None)

    def _grid(self, laws, base_seed, tol, max_iter):
        budget = {} if tol is None else {"tol": tol, "max_iter": max_iter}
        return qm.run_benchmark(
            ns=[self.n],
            laws=laws,
            methods=self.methods,
            replications=self.replications,
            workers=1,
            base_seed=base_seed,
            **budget,
        )

    def _unit(self, k, laws, tol, max_iter):
        text = self._grid(laws, self.seed * UNIT_STRIDE + k, tol, max_iter).to_csv()
        result = UnitResult(inputs=(k, len(laws), tol, max_iter), key=text, attempted=0, failed=0)
        rows = list(csv.DictReader(io.StringIO(text)))
        expected = {(m, law.value) for m in self.methods for law in laws}
        got = {(r["method"], r["noise"]) for r in rows}
        if got != expected or len(rows) != len(expected):
            result.problems.append(f"grid unit {k}: cells {sorted(got)}")
        for r in rows:
            reps, excl = int(r["replications"]), int(r["excluded"])
            err = float(r["mean_error"])
            result.attempted += reps
            result.failed += excl
            ok = reps == self.replications and 0 <= excl <= reps
            if excl < reps:
                ok = ok and 0.0 <= err <= math.sqrt(2.0)
                result.errors.setdefault(r["method"], []).append((err, reps - excl))
            if not ok:
                result.problems.append(f"grid unit {k}: bad row {r}")
        return result


class FitWorkload:
    """Single ``qmave_fit`` calls at n=1000, cycling the four noise laws.

    Each fit runs a fixed number of alternating iterations (``tol`` is
    set so small that it never stops early), so every unit does the same
    amount of work and the timing does not swing with the iteration
    count a dataset happens to need.
    """

    name = "fit_m1000"
    n = 1000
    max_iter = 5
    tol = 1e-12
    pool = 8  # distinct datasets; units cycle through them
    accuracy_units = 4
    trace_units = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.config = qm.QmaveConfig(
            loss=qm.LossSpec.squared(), tol=self.tol, max_iter=self.max_iter
        )
        self.datasets = []

    def setup(self):
        """Generate the dataset pool and warm up with one full-size fit."""
        self.datasets = [
            qm.gen_model8(
                qm.SimConfig(
                    n=self.n,
                    noise=LAWS[k % len(LAWS)],
                    seed=self.seed * UNIT_STRIDE + k,
                )
            )
            for k in range(self.pool)
        ]
        warmup, _ = qm.gen_model8(qm.SimConfig(n=self.n, seed=WARMUP_SEED))
        qm.qmave_fit(warmup, self.config)

    def accuracy_unit(self, k: int) -> UnitResult:
        return self.run_unit(k)

    def run_unit(self, k: int) -> UnitResult:
        inputs = k % self.pool
        data, theta0 = self.datasets[inputs]
        try:
            fit = qm.qmave_fit(data, self.config)
        except qm.QmaveError as exc:
            return UnitResult(inputs, f"{type(exc).__name__}: {exc}", attempted=1, failed=1)
        result = UnitResult(inputs, fit.theta.tobytes(), attempted=1, failed=0)
        theta = fit.theta
        finite = bool(theta.shape == (data.d,) and all(map(math.isfinite, theta)))
        norm = math.sqrt(float(theta @ theta)) if finite else math.nan
        if not (finite and abs(norm - 1.0) <= UNIT_NORM_TOL):
            result.problems.append(f"fit unit {k}: theta {theta!r} is not a unit vector")
            return result
        err = qm.estimation_error(theta, theta0)
        if not 0.0 <= err <= math.sqrt(2.0):
            result.problems.append(f"fit unit {k}: estimation error {err}")
        result.errors["MAVE"] = [(err, 1)]
        return result


WORKLOADS = {w.name: w for w in (GridWorkload, FitWorkload)}
