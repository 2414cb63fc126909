"""Run one workload of the qmave benchmark and print its metrics.

    python3 perfbench/run.py --workload grid_n200 --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: the library is imported from
``src/``.  With ``--trace 0`` it measures the end-to-end metrics of
``BENCHMARK.json`` with tracing off; with ``--trace 1`` it measures the
per-layer metrics by wrapping library functions from outside (see
``tracing.py``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the full record (every metric, the checks, the
environment), which is also written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

T_START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = 1  # one thread keeps runs steady on a shared machine
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MB = 1024 * 1024


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("grid_n200", "fit_m1000"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=ROOT / "perfbench" / "out",
                    help="directory for the full record (and spans of a traced run)")
    return ap.parse_args(argv)


def configure_blas():
    """Cap the BLAS pool at BLAS_THREADS (and nproc) before numpy loads."""
    threads = max(1, min(BLAS_THREADS, os.cpu_count() or 1))
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def environment(blas_threads, load):
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # the record is informational; older numpy lacks dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads,
        "loadavg_start": list(load),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))
        ),
    }


def repeat_problems(units):
    """Units that ran the same inputs must give identical outputs."""
    first = {}
    return [
        f"inputs {u.inputs}: output differs from an earlier run"
        for u in units
        if u.key != first.setdefault(u.inputs, u.key)
    ]


def timed_run(workload, seconds):
    """Closed loop of units for ``seconds``, then the untimed accuracy
    units, the first of them under tracemalloc.

    Timed units cycle through a pool of inputs; the loop runs the whole
    pool at least once and repeats one input.  The reference job of
    ``hostspeed`` runs before every unit and after the last.  A unit's
    normalised time is its duration scaled by NOMINAL_S over the mean
    of the two reference runs around it; ``norm_fits_per_s`` is the
    pool's fits over the sum, across inputs, of the median normalised
    time of each input.
    """
    from hostspeed import NOMINAL_S, Reference

    reference = Reference()
    units, durations, refs = [], [], [reference.seconds()]
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        units.append(workload.run_unit(len(units)))
        t1 = time.perf_counter()
        durations.append(t1 - t0)
        refs.append(reference.seconds())
        if t1 - start >= seconds and len(units) > workload.pool:
            break
    elapsed = t1 - start
    raw, normalised = {}, {}
    for i, (d, u) in enumerate(zip(durations, units)):
        scale = NOMINAL_S / ((refs[i] + refs[i + 1]) / 2)
        raw.setdefault(u.inputs, []).append(d)
        normalised.setdefault(u.inputs, []).append(d * scale)
    fits = {u.inputs: u.attempted - u.failed for u in units}
    raw_s = {i: statistics.median(v) for i, v in raw.items()}
    norm_s = {i: statistics.median(v) for i, v in normalised.items()}

    tracemalloc.start()
    try:
        accuracy = [workload.accuracy_unit(0)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    accuracy += [workload.accuracy_unit(k) for k in range(1, workload.accuracy_units)]

    from workloads import weighted_error_mean

    attempted = sum(u.attempted for u in accuracy)
    single = [i for i in norm_s if fits[i] == 1]
    report = {
        "norm_fits_per_s": (sum(fits.values()) / sum(norm_s.values()), "1/s"),
        "fits_per_s": (sum(u.attempted - u.failed for u in units) / sum(durations), "1/s"),
        "fit_s_p50": (statistics.median(raw_s[i] for i in single) if single else None, "s"),
        "norm_fit_s_p50": (statistics.median(norm_s[i] for i in single) if single else None, "s"),
        "host_ref_s": (statistics.mean(refs), "s"),
        "peak_mem_mb": (peak / MB, "MB"),
        "error_mean_qmave": (weighted_error_mean(accuracy, "qMAVE"), "1"),
        "error_mean_mave": (weighted_error_mean(accuracy, "MAVE"), "1"),
        "failed_share": (sum(u.failed for u in accuracy) / attempted, "ratio"),
        "timed_s": (elapsed, "s"),
        "timed_units": (len(units), "count"),
        "timed_inputs": (len(norm_s), "count"),
    }
    everything = units + accuracy
    problems = [p for u in everything for p in u.problems] + repeat_problems(everything)
    return {
        "report": report,
        "unit_durations_s": durations,
        "reference_s": refs,
        "problems": problems,
        "attempted": sum(u.attempted for u in units),
        "failed": sum(u.failed for u in units),
    }


def traced_run(workload, seconds, out_dir, tag):
    """Pairs of (untraced, traced) passes over the trace units until
    ``seconds`` have passed; per-layer metrics are medians over the
    traced passes, overhead the median traced-minus-untraced time."""
    from tracing import Tracer, layer_metrics, median_metrics, spans_json, theta_problems

    ks = range(workload.trace_units)
    passes, overhead, share, problems, dumps, units = [], [], [], [], [], []
    tracer = Tracer()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain = [workload.run_unit(k) for k in ks]
        t1 = time.perf_counter()
        with tracer:
            traced = [workload.run_unit(k) for k in ks]
        t2 = time.perf_counter()
        units += plain + traced
        passes.append(layer_metrics(tracer.spans, tracer.absent))
        problems += theta_problems(tracer.spans)
        dumps.append(spans_json(tracer.spans, t1))
        overhead.append((t2 - t1) - (t1 - t0))
        share.append(overhead[-1] / (t1 - t0))
        if t2 - start >= seconds:
            break
    metrics = median_metrics(passes)
    counts = [n for n, v in metrics.items() if not n.endswith("_s") and v is not None]
    for name in counts:
        if any(p[name] != passes[0][name] for p in passes):
            problems.append(f"{name} differs between identical traced passes")
    metrics["trace.overhead_s"] = statistics.median(overhead)
    metrics["trace.overhead_share"] = statistics.median(share)
    problems += [p for u in units for p in u.problems] + repeat_problems(units)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"spans-{tag}.json").write_text(
        json.dumps({"absent": sorted(tracer.absent), "passes": dumps})
    )
    return {
        "report": {name: (value, None) for name, value in metrics.items()},
        "problems": problems,
        "absent": sorted(tracer.absent),
        "attempted": sum(u.attempted for u in units),
        "failed": sum(u.failed for u in units),
    }


def main(argv=None):
    args = parse_args(argv)
    load = os.getloadavg()
    blas_threads = configure_blas()
    if not (SRC / "qmave" / "__init__.py").is_file():
        print(f"error: no qmave sources under {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import qmave

    import_s = time.perf_counter() - T_START
    if Path(qmave.__file__).resolve().parent != SRC / "qmave":
        print(f"error: imported qmave from {qmave.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result = traced_run(workload, args.seconds, args.out, tag)
        wanted = spec["per_layer"]
    else:
        result = timed_run(workload, args.seconds)
        result["report"]["setup_s"] = (setup_s, "s")
        wanted = spec["end_to_end"]

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    report = {
        name: {"value": value, "unit": unit or units.get(name)}
        for name, (value, unit) in result["report"].items()
    }
    metrics = {}
    for m in wanted:
        if m["name"] not in report:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 2
        metrics[m["name"]] = {"value": report[m["name"]]["value"], "unit": m["unit"]}
    final = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": environment(blas_threads, load),
        "setup_runs_s": setups,
        "import_s": import_s,
        "report": report,
        "unit_durations_s": result.get("unit_durations_s", []),
        "reference_s": result.get("reference_s", []),
        "absent": result.get("absent", []),
        "problems": result["problems"],
        "result": final,
    }
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(record))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
