"""Check that two source trees of qmave compute the same bits.

Usage::

    python3 tools/same_results.py PARENT_TREE CHANGE_TREE

Each tree's ``src/`` runs in its own subprocess over one fixed set of
cases, and every case's output is reduced to a SHA-256 digest of its
bytes.  The cases:

- the n=200 four-law ``run_benchmark`` CSV and JSON reports at the
  benchmark config and at a fixed-iteration config (``tol=1e-12,
  max_iter=5``), and both reports of three hand-made rows: a NaN cell, a
  flagged cell and a plain one;
- ``qmave_fit`` theta, objective-trace bytes and iteration count for
  tau in {0.1, 0.5, 0.9}, both kernels and two datasets, plus one n=1000
  squared-loss (MAVE) fit, two more at the benchmark's timed config
  (``tol=1e-12, max_iter=5``, normal and t1 noise), whose traces end with
  the objective of the unconverged tail, and one n=1000 qMAVE fit at
  ``tol=1e-12, max_iter=2``;
- ``index_fit_batch`` and ``full_fit_batch`` for both losses, and at
  n=1000 (several anchor blocks, both kernels and both losses)
  ``full_fit_batch`` at every anchor and ``index_fit_batch`` at every
  trimmed anchor, at the default bandwidth and at a wide one whose
  windows hold nearly every row; ``full_fit_batch`` at every anchor also
  at the second and third rungs of ``_INIT_LADDER`` on two n=1000
  datasets, for tau in {0.5, 0.25} and the squared loss, both kernels;
- ``local_linear_full_fit`` and ``local_linear_index_fit`` (along the
  true index) for both losses at two bandwidths and four anchors: two
  rows, the data mean and a far point whose window is empty;
- the init ladder probe ``_median_window_count`` at every rung of
  ``_INIT_LADDER``, one digest per rung, at n=200 and n=1000, and the
  ``_auto_init`` theta at n=1000 for seeds 100-103 and both losses, so
  that a changed rung choice shows as its own case;
- ``kernel_eval`` of both kernels on edge values (0, +-0.5, the doubles
  next to and at +-1, +-1.2, inf, NaN) and a sweep over [-1.5, 1.5];
- ``index_fit_batch``, ``outer_problem`` (design, response and weight
  bytes), ``eq_objective`` and ``outer_step`` on adversarial n=200 data (index ties,
  index values and bandwidths on one grid so that kernel edges fall on
  rows, duplicate rows, ``X*1e-3 + 1e6``) with bandwidths from 0.02 to 3
  index standard deviations, both kernels and both losses, and directly
  at n=1000 for two directions;
- 120 seeded random stacked ``_solve_qr_batch`` solves with
  ``max_iterations`` between 1 and 200, ties, zero-weight rows, and
  responses and weights in both memory orders;
- four ``_solve_qr_batch`` calls shaped like the n=200 grid's: 126
  index problems of 78 rows with p=2 and 133 full-dimensional problems
  of 107 rows with p=6, zero-weight padding, tau in {0.5, 0.3}; and
  three more index calls at tau in {0.1, 0.25, 0.9};
- ``qr_oracle`` on 30 seeded problems of 3 to 12 rows and 1 to 4
  columns, with tied and duplicate rows and zero weights, so that its
  test for rows in general position is checked subset by subset;
- ``solve_weighted_qr`` on one 10 x 3 problem with an intercept, its
  design scaled by 1, 1e-150, 1e-160, 1e-165 and 1e-200, where the
  weighted Gram's diagonal goes subnormal and then underflows to 0:
  beta's bytes, or the error's type and message.

Prints each case whose digests differ (or that one tree lacks) and exits
1 if there is any, else 0.  Two reports help read a difference; the
verdict and the exit code rest on the bytes alone:

- The solver cases record each problem's check-loss objective, computed
  here from the returned coefficients, and its ``sum w|y|``.  When their
  bytes differ, the tool prints whether every objective of the change is
  at most the parent's times ``1 + 1e-12``, plus a few ulps of that sum,
  so an optimum of exactly 0 may come back as rounding on either side.
- The fit and window cases record a direction and objectives: a fit's
  theta and objective trace, and a window case's ``outer_step`` result
  and pooled objective.  For each such case whose bytes differ
  the tool prints the sign-invariant distance between the two directions
  and the largest relative change of the objectives.

A full pass takes about 19 seconds per tree, 39 for the pair, on a
2-core machine.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _grid_cases(qm):
    laws = list(qm.NoiseLaw)
    out = {}
    for label, budget in (("bench", {}), ("timed", {"tol": 1e-12, "max_iter": 5})):
        report = qm.run_benchmark(
            ns=[200], laws=laws, replications=2, workers=1, base_seed=7, **budget
        )
        out[f"grid/{label}"] = _digest(report.to_csv().encode())
        out[f"grid/{label}/json"] = _digest(report.to_json().encode())
    # a NaN cell, a flagged cell and a plain one, serialised both ways
    rows = [
        qm.BenchmarkRow(50, "MAVE", "t1", math.nan, math.nan, 3, 3),
        qm.BenchmarkRow(50, "qMAVE", "t1", 0.25, 0.0, 10, 2),
        qm.BenchmarkRow(200, "qMAVE", "normal", 0.1 / 3, 1e-17, 10, 1),
    ]
    report = qm.BenchmarkReport(rows)
    out["grid/edge_rows"] = _digest(report.to_csv().encode(), report.to_json().encode())
    return out


def _fit_cases(qm, np, details):
    out = {}
    kernels = {"epa": qm.KernelSpec.epanechnikov(), "quartic": qm.KernelSpec.quartic()}
    for seed in (2, 5):
        data, _ = qm.gen_model8(qm.SimConfig(n=200, noise=qm.NoiseLaw.SCALED_T5, seed=seed))
        for tau in (0.1, 0.5, 0.9):
            for kname, kernel in kernels.items():
                cfg = qm.QmaveConfig(loss=qm.LossSpec.quantile(tau), kernel=kernel)
                name = f"fit/qmave/seed{seed}/tau{tau}/{kname}"
                out[name] = _fit_or_error(qm, data, cfg, details, name)
    data, _ = qm.gen_model8(qm.SimConfig(n=1000, seed=3))
    cfg = qm.QmaveConfig(loss=qm.LossSpec.squared())
    out["fit/mave/n1000"] = _fit_or_error(qm, data, cfg, details, "fit/mave/n1000")
    # the benchmark's timed config: five iterations, unconverged, so the
    # objective of the tail iterate is recorded too
    for law in (qm.NoiseLaw.SCALED_NORMAL, qm.NoiseLaw.SCALED_T1):
        data, _ = qm.gen_model8(qm.SimConfig(n=1000, noise=law, seed=3))
        cfg = qm.QmaveConfig(loss=qm.LossSpec.squared(), tol=1e-12, max_iter=5)
        name = f"fit/mave/n1000/timed/{law.value}"
        out[name] = _fit_or_error(qm, data, cfg, details, name)
    # one qMAVE fit at n=1000: quantile index fits in several anchor blocks
    data, _ = qm.gen_model8(qm.SimConfig(n=1000, noise=qm.NoiseLaw.SCALED_T1, seed=3))
    cfg = qm.QmaveConfig(loss=qm.LossSpec.quantile(0.5), tol=1e-12, max_iter=2)
    out["fit/qmave/n1000/timed"] = _fit_or_error(qm, data, cfg, details, "fit/qmave/n1000/timed")
    return out


def _fit_or_error(qm, data, cfg, details, name):
    try:
        fit = qm.qmave_fit(data, cfg)
    except qm.QmaveError as exc:
        return _digest(type(exc).__name__, str(exc))
    details[name] = {"theta": fit.theta.tolist(), "objective": list(fit.objective_trace)}
    objective = b"".join(float(v).hex().encode() for v in fit.objective_trace)
    return _digest(fit.theta.tobytes(), objective, fit.iterations)


def _batch_cases(qm, np):
    from qmave.localfit import full_fit_batch, index_fit_batch

    data, theta0 = qm.gen_model8(qm.SimConfig(n=200, noise=qm.NoiseLaw.SCALED_T1, seed=11))
    anchors = np.arange(0, 200, 3)
    out = {}
    for lname, loss in (("q0.3", qm.LossSpec.quantile(0.3)), ("ls", qm.LossSpec.squared())):
        for kname, kernel in (("epa", qm.KernelSpec.epanechnikov()), ("quartic", qm.KernelSpec.quartic())):
            res = index_fit_batch(data, theta0, anchors, 0.3, loss, kernel)
            out[f"batch/index/{lname}/{kname}"] = _digest(*(np.asarray(v).tobytes() for v in res))
            res = full_fit_batch(data, anchors, 2.0, loss, kernel)
            out[f"batch/full/{lname}/{kname}"] = _digest(*(np.asarray(v).tobytes() for v in res))
    # single fits: at data points, off the data and far outside it (an
    # empty window)
    points = {"row0": data.X[0], "row50": data.X[50], "mean": data.X.mean(axis=0)}
    points["far"] = data.X[0] + 10.0
    single = {
        "full": (qm.local_linear_full_fit, (), (1.0, 2.0)),
        "index": (qm.local_linear_index_fit, (theta0,), (0.3, 0.6)),
    }
    for kind, (fit_at, args, bandwidths) in single.items():
        for lname, loss in (("q0.3", qm.LossSpec.quantile(0.3)), ("ls", qm.LossSpec.squared())):
            for pname, x0 in points.items():
                for h in bandwidths:
                    try:
                        fit = fit_at(data, *args, x0, h, loss, qm.KernelSpec.quartic())
                        got = (
                            float(fit.a).hex(),
                            np.asarray(fit.b).tobytes(),
                            float(fit.effective_weight).hex(),
                        )
                    except qm.QmaveError as exc:
                        got = (type(exc).__name__, str(exc))
                    out[f"single/{kind}/{lname}/{pname}/h{h}"] = _digest(*got)
    # every anchor at n=1000, in several anchor blocks; at h0 = 0.7 about
    # 7 in 10 windows hold a usable fit
    data, theta0 = qm.gen_model8(qm.SimConfig(n=1000, seed=3))
    for lname, loss in (("q0.5", qm.LossSpec.quantile(0.5)), ("ls", qm.LossSpec.squared())):
        for kname, kernel in (("epa", qm.KernelSpec.epanechnikov()), ("quartic", qm.KernelSpec.quartic())):
            res = full_fit_batch(data, np.arange(1000), 0.7, loss, kernel)
            out[f"batch/full/n1000/{lname}/{kname}"] = _digest(*(v.tobytes() for v in res))
    # the ladder rungs that auto-init reaches at n=1000, on two datasets:
    # every anchor, so four 256-anchor groups of many solver-sized blocks
    from qmave.core import BandwidthRule, coordinate_dispersion, default_bandwidth

    losses = (
        ("q0.5", qm.LossSpec.quantile(0.5)),
        ("q0.25", qm.LossSpec.quantile(0.25)),
        ("ls", qm.LossSpec.squared()),
    )
    for seed in (3, 11):
        ladder, _ = qm.gen_model8(qm.SimConfig(n=1000, seed=seed))
        base = default_bandwidth(BandwidthRule.full_dim(5), 1000, coordinate_dispersion(ladder.X))
        for mult in (1.5, 2.25):
            for lname, loss in losses:
                for kname, kernel in (("epa", qm.KernelSpec.epanechnikov()), ("quartic", qm.KernelSpec.quartic())):
                    res = full_fit_batch(ladder, np.arange(1000), base * mult, loss, kernel)
                    name = f"batch/full/n1000/seed{seed}/h0x{mult}/{lname}/{kname}"
                    out[name] = _digest(*(v.tobytes() for v in res))
    # every trimmed anchor at n=1000, in several anchor blocks: at the
    # default bandwidth, and at a wide one whose windows hold nearly every
    # row, so that a block holds few anchors
    from qmave.fit import resolve_bandwidth

    anchors = np.flatnonzero(qm.trim_mask(data, qm.TrimSpec()))
    default = resolve_bandwidth(data, theta0, qm.QmaveConfig())
    wide = 2.0 * float(np.std(data.X @ theta0, ddof=1))
    for hname, h in (("default", default), ("wide", wide)):
        for lname, loss in (("q0.5", qm.LossSpec.quantile(0.5)), ("ls", qm.LossSpec.squared())):
            for kname, kernel in (("epa", qm.KernelSpec.epanechnikov()), ("quartic", qm.KernelSpec.quartic())):
                res = index_fit_batch(data, theta0, anchors, h, loss, kernel)
                out[f"batch/index/n1000/{hname}/{lname}/{kname}"] = _digest(*(v.tobytes() for v in res))
    return out


def _init_cases(qm, np):
    from qmave.core import BandwidthRule, coordinate_dispersion, default_bandwidth
    from qmave.fit import _INIT_LADDER, _auto_init, _median_window_count

    out = {}
    for n in (200, 1000):
        data, _ = qm.gen_model8(qm.SimConfig(n=n, seed=5))
        scale = coordinate_dispersion(data.X)
        base = default_bandwidth(BandwidthRule.full_dim(data.d), data.n, scale)
        anchors = np.flatnonzero(qm.trim_mask(data, qm.TrimSpec()))
        counts = _median_window_count(data, anchors, [base * mult for mult in _INIT_LADDER])
        for k, count in enumerate(counts):
            out[f"init/probe/n{n}/rung{k}"] = _digest(count.tobytes())
    for seed in range(100, 104):
        data, _ = qm.gen_model8(qm.SimConfig(n=1000, seed=seed))
        for lname, loss in (("q0.5", qm.LossSpec.quantile(0.5)), ("ls", qm.LossSpec.squared())):
            try:
                theta = _auto_init(data, qm.QmaveConfig(loss=loss)).tobytes()
            except qm.QmaveError as exc:
                theta = (type(exc).__name__, str(exc))
            out[f"init/auto/n1000/seed{seed}/{lname}"] = _digest(theta)
    return out


def _kernel_cases(qm, np):
    edge = np.nextafter(1.0, 0.0)
    u = np.array([0.0, -0.0, 0.5, -0.5, edge, -edge, 1.0, -1.0, 1.2, -1.2, np.inf, np.nan])
    u = np.concatenate([u, np.linspace(-1.5, 1.5, 1001)])
    return {
        f"kernel/{kind}": _digest(qm.kernel_eval(qm.KernelSpec(kind), u).tobytes())
        for kind in ("epanechnikov", "quartic")
    }


def _index_step_digests(qm, np, data, theta, anchors, h, loss, kernel, fits=None):
    """Digests of the index fits, the outer problem built on them, the
    pooled objective and the outer step, all at bandwidth ``h``; with the
    step's direction (None when it raises) and the objective."""
    from qmave.fit import eq_objective, outer_problem, outer_step
    from qmave.localfit import index_fit_batch

    cfg = qm.QmaveConfig(loss=loss, kernel=kernel, h=h)
    if fits is None:
        fits = index_fit_batch(data, theta, anchors, h, loss, kernel)
    out = {"index": _digest(*(np.asarray(v).tobytes() for v in fits))}
    if not fits[0].size:
        return out, None
    problem = outer_problem(data, theta, fits, cfg)
    objective = float(eq_objective(data, theta, fits, cfg))
    out["outer"] = _digest(problem.Z.tobytes(), problem.y.tobytes(), problem.w.tobytes())
    out["objective"] = _digest(objective.hex())
    try:
        step = outer_step(data, theta, fits, cfg)
        out["step"], direction = _digest(step.tobytes()), step.tolist()
    except qm.QmaveError as exc:
        out["step"], direction = _digest(type(exc).__name__, str(exc)), None
    return out, {"theta": direction, "objective": [objective]}


def _window_cases(qm, np, details):
    from qmave.localfit import index_fit_batch

    kernels = (("epa", qm.KernelSpec.epanechnikov()), ("quartic", qm.KernelSpec.quartic()))
    losses = (("q0.5", qm.LossSpec.quantile(0.5)), ("ls", qm.LossSpec.squared()))
    out = {}
    for kind in ("plain", "ties", "grid", "duplicates", "shifted"):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(200, 4))
        theta = np.array([1.0, -0.5, 2.0, 0.5]) / np.linalg.norm([1.0, -0.5, 2.0, 0.5])
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
        data = qm.Dataset(X, Y)
        sd = float(np.std(data.X @ theta, ddof=1))
        for width in (0.02, 0.1, 0.5, 3.0):
            h = {0.02: 0.25, 0.1: 0.5, 0.5: 0.75, 3.0: 3.0}[width] if kind == "grid" else width * sd
            for kname, kernel in kernels:
                for lname, loss in losses:
                    digests = _index_step_digests(
                        qm, np, data, theta, np.arange(0, 200, 3), h, loss, kernel
                    )
                    _record(out, details, f"window/{kind}/{width}/{kname}/{lname}", *digests)
    data, theta0 = qm.gen_model8(qm.SimConfig(n=1000, seed=3))
    anchors = np.arange(1000)
    other = np.linspace(1.0, 2.0, 5) / np.linalg.norm(np.linspace(1.0, 2.0, 5))
    for tname, theta in (("truth", theta0), ("other", other)):
        for kname, kernel in kernels:
            h = 0.25 * float(np.std(data.X @ theta, ddof=1))
            fits = index_fit_batch(data, theta, anchors, h, qm.LossSpec.squared(), kernel)
            for lname, loss in losses:
                digests = _index_step_digests(qm, np, data, theta, anchors, h, loss, kernel, fits)
                _record(out, details, f"window/n1000/{tname}/{kname}/{lname}", *digests)
    return out


def _record(out, details, prefix, digests, detail):
    """Store one window case's part digests, each with the case's detail."""
    for part, value in digests.items():
        out[f"{prefix}/{part}"] = value
        if detail is not None:
            details[f"{prefix}/{part}"] = detail


# Slack within which a change's solver objective counts as no worse than
# the parent's: relative, plus this many ulps of the problem's sum w|y|.
OBJECTIVE_RTOL = 1e-12
OBJECTIVE_ULPS = 4


def _solver_cases(qm, np, objectives):
    rng = np.random.default_rng(20240601)
    out = {}
    for k in range(120):
        B = int(rng.integers(1, 13))
        p = int(rng.integers(1, 5))
        n = int(rng.integers(p + 1, 70))
        Z = rng.normal(size=(B, n, p))
        Z[:, :, 0] = 1.0
        y = rng.standard_t(3, size=(B, n))
        if k % 4 == 0:
            y = np.round(y, 1)  # ties
        w = rng.uniform(0.0, 2.0, size=(B, n))
        w[rng.random((B, n)) < 0.2] = 0.0
        if k % 2:
            y, w = np.asfortranarray(y), np.asfortranarray(w)
        tau = float(rng.choice([0.1, 0.25, 0.5, 0.75, 0.9]))
        opts = qm.SolverOptions(max_iterations=int(rng.integers(1, 201)))
        _solver_case(np, out, objectives, f"solver/{k:03d}", Z, y, w, tau, opts)
    # the shapes of the n=200 grid's calls: index fits (p = 2) and
    # full-dimensional fits (p = 6), windows padded with zero weights
    rng = np.random.default_rng(20261020)
    for kind, (B, n, p) in (("index", (126, 78, 2)), ("full", (133, 107, 6))):
        for tau in (0.5, 0.3):
            Z = rng.normal(size=(B, n, p))
            Z[:, :, 0] = 1.0
            y = np.matmul(Z, rng.normal(size=p)) + rng.standard_t(3, size=(B, n))
            w = rng.uniform(0.1, 1.0, size=(B, n))
            w[np.arange(n) >= rng.integers(n // 3, n + 1, size=(B, 1))] = 0.0
            name = f"solver/grid/{kind}/tau{tau}"
            _solver_case(np, out, objectives, name, Z, y, w, tau, qm.SolverOptions())
    # the index fits' shape at the quantile levels the grid does not run
    rng = np.random.default_rng(20261021)
    B, n = 126, 78
    for tau in (0.1, 0.25, 0.9):
        Z = rng.normal(size=(B, n, 2))
        Z[:, :, 0] = 1.0
        y = np.matmul(Z, rng.normal(size=2)) + rng.standard_t(3, size=(B, n))
        w = rng.uniform(0.1, 1.0, size=(B, n))
        w[np.arange(n) >= rng.integers(n // 3, n + 1, size=(B, 1))] = 0.0
        name = f"solver/grid/index/tau{tau}"
        _solver_case(np, out, objectives, name, Z, y, w, tau, qm.SolverOptions())
    return out


def _oracle_cases(qm, np):
    rng = np.random.default_rng(20261019)
    out = {}
    for k in range(30):
        p = int(rng.integers(1, 5))
        n = int(rng.integers(p + 2, 13))
        Z = rng.normal(size=(n, p))
        Z[:, 0] = 1.0
        y = rng.standard_t(3, size=n)
        if k % 3 == 0:
            Z, y = np.round(Z), np.round(y)  # tied rows and exact fits
        if k % 5 == 0:
            Z[n // 2 :], y[n // 2 :] = Z[: n - n // 2], y[: n - n // 2]  # duplicates
        w = rng.uniform(0.0, 2.0, size=n)
        w[rng.random(n) < 0.25] = 0.0
        tau = float(rng.choice([0.1, 0.5, 0.75]))
        problem = qm.WeightedRegressionProblem(Z, y, w, qm.LossSpec.quantile(tau))
        try:
            got = (qm.qr_oracle(problem).tobytes(),)
        except qm.QmaveError as exc:
            got = (type(exc).__name__, str(exc))
        out[f"oracle/{k:02d}"] = _digest(*got)
    return out


def _scale_cases(qm, np):
    out = {}
    for scale in (1.0, 1e-150, 1e-160, 1e-165, 1e-200):
        rng = np.random.default_rng(17)
        Z = rng.normal(size=(10, 3))
        Z[:, 0] = 1.0
        y, w = rng.normal(size=10), rng.uniform(0.5, 2.0, size=10)
        problem = qm.WeightedRegressionProblem(Z * scale, y, w, qm.LossSpec.quantile(0.3))
        try:
            got = (qm.solve_weighted_qr(problem).tobytes(),)
        except qm.QmaveError as exc:
            got = (type(exc).__name__, str(exc))
        out[f"scale/qr/{scale:g}"] = _digest(*got)
    return out


def _solver_case(np, out, objectives, name, Z, y, w, tau, opts):
    """Digest one ``_solve_qr_batch`` call; record its objectives."""
    from qmave.solver import _solve_qr_batch

    beta, obj, complete = _solve_qr_batch(Z, y, w, tau, opts)
    out[name] = _digest(beta.tobytes(), obj.tobytes(), bool(complete))
    r = y - np.matmul(Z, beta[:, :, None])[:, :, 0]
    rho = np.where(r > 0, tau * r, (tau - 1.0) * r)
    objectives[name] = {
        "objective": np.sum(w * rho, axis=1).tolist(),
        "scale": np.sum(w * np.abs(y), axis=1).tolist(),
    }


def _emit(src: str) -> None:
    """Child side: run every case on the library under ``src``."""
    sys.path.insert(0, src)
    import numpy as np

    import qmave as qm

    cases, objectives, details = {}, {}, {}
    cases.update(_solver_cases(qm, np, objectives))
    cases.update(_oracle_cases(qm, np))
    cases.update(_scale_cases(qm, np))
    cases.update(_batch_cases(qm, np))
    cases.update(_init_cases(qm, np))
    cases.update(_kernel_cases(qm, np))
    cases.update(_window_cases(qm, np, details))
    cases.update(_fit_cases(qm, np, details))
    cases.update(_grid_cases(qm))
    json.dump({"digests": cases, "objectives": objectives, "details": details}, sys.stdout)


def _run(tree: Path):
    src = tree / "src"
    if not (src / "qmave").is_dir():
        sys.exit(f"{tree}: no src/qmave")
    proc = subprocess.run(
        [sys.executable, __file__, "--emit", str(src.resolve())],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"{tree}: case run failed\n{proc.stderr}")
    return json.loads(proc.stdout)


def _no_worse(parent, change) -> bool:
    """Every objective of ``change`` is at most the parent's within the
    slack; a NaN on either side counts as worse."""
    return all(
        c <= p * (1.0 + OBJECTIVE_RTOL) + OBJECTIVE_ULPS * math.ulp(scale)
        for p, c, scale in zip(parent["objective"], change["objective"], parent["scale"])
    )


def _report_objectives(differ, parent_obj, change_obj) -> None:
    """Print whether every objective of the solver cases whose bytes
    differ is no worse than the parent's."""
    names = [k for k in differ if k in parent_obj and k in change_obj]
    if not names:
        return
    worse = [k for k in names if not _no_worse(parent_obj[k], change_obj[k])]
    for name in worse:
        print(f"WORSE OBJECTIVE {name}")
    verdict = "yes" if not worse else f"no ({len(worse)} cases)"
    print(
        f"{len(names)} solver cases differ; every objective <= parent x "
        f"(1 + {OBJECTIVE_RTOL:g}) + {OBJECTIVE_ULPS} ulps of sum w|y|: {verdict}"
    )


def _report_details(differ, parent_det, change_det) -> None:
    """For each fit or window case whose bytes differ, print the
    sign-invariant distance between the two directions and the largest
    relative change of the objectives."""
    for name in (k for k in differ if k in parent_det and k in change_det):
        p, c = parent_det[name], change_det[name]
        if p["theta"] is None or c["theta"] is None:
            dist = "n/a"
        else:
            dist = min(
                math.dist(p["theta"], c["theta"]),
                math.dist(p["theta"], [-v for v in c["theta"]]),
            )
            dist = f"{dist:.3g}"
        if len(p["objective"]) != len(c["objective"]):
            change = f"trace length {len(p['objective'])} -> {len(c['objective'])}"
        else:
            rel = max(
                (abs(b - a) / abs(a) if a else abs(b) for a, b in zip(p["objective"], c["objective"])),
                default=0.0,
            )
            change = f"{rel:.3g}"
        print(f"  {name}: theta distance {dist}, objective relative change {change}")


def main(argv) -> int:
    if len(argv) == 3 and argv[1] == "--emit":
        _emit(argv[2])
        return 0
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = _run(Path(argv[1])), _run(Path(argv[2]))
    parent, change = old["digests"], new["digests"]
    differ = sorted(k for k in parent.keys() | change.keys() if parent.get(k) != change.get(k))
    for name in differ:
        print(f"DIFFERS {name}")
    _report_details(differ, old["details"], new["details"])
    _report_objectives(differ, old["objectives"], new["objectives"])
    print(f"{len(parent.keys() | change.keys()) - len(differ)} same, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
