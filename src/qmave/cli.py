"""Command-line front end: fit an index from CSV, simulate benchmark
data, or run the Monte Carlo benchmark grid.

Every error surfaces as a single-line ``error: ...`` diagnostic with a
nonzero exit status; usage errors exit with status 2 via argparse.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from .core import LossSpec
from .errors import InvalidInputError, QmaveError
from .fit import QmaveConfig, qmave_fit
from .initial import TrimSpec
from .localfit import Dataset
from .simulate import NoiseLaw, SimConfig, gen_model8, run_benchmark

__all__ = ["main", "parse_dataset_csv", "run_cli"]


def parse_dataset_csv(path: str, y_column) -> Dataset:
    """Read a headed CSV into a Dataset.

    ``y_column`` selects the response by header name (or 0-based column
    index when given as an integer); the remaining columns become X in
    header order.  Row numbers in error messages are 1-based data rows,
    header excluded.  The sample size is left to the estimator:
    `qmave_fit` needs n >= 2(d+1).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidInputError(f"{path}: empty file, header row required")
        header = [h.strip() for h in header]
        if isinstance(y_column, int) or (
            isinstance(y_column, str) and y_column not in header and y_column.isdigit()
        ):
            y_idx = int(y_column)
            if not (0 <= y_idx < len(header)):
                raise InvalidInputError(
                    f"column index {y_idx} out of range for {len(header)} columns"
                )
        else:
            if y_column not in header:
                raise InvalidInputError(f"column {y_column!r} not found in header")
            y_idx = header.index(y_column)
        if len(header) < 2:
            raise InvalidInputError("need at least one covariate column besides y")
        rows = []
        for rownum, raw in enumerate(reader, start=1):
            if not raw:
                continue
            if len(raw) != len(header):
                raise InvalidInputError(
                    f"row {rownum}: expected {len(header)} cells, got {len(raw)}"
                )
            parsed = []
            for cell, name in zip(raw, header):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise InvalidInputError(
                        f"row {rownum}, column {name!r}: could not parse {cell!r}"
                    )
            rows.append(parsed)
    if not rows:
        raise InvalidInputError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=float)
    return Dataset(np.delete(arr, y_idx, axis=1), arr[:, y_idx])


def _library_type(make):
    """An argparse type that builds a flag's value from its text with the
    library's own constructor ``make``: a value it rejects is a usage error."""

    def parse(text):
        try:
            return make(text)
        except (ValueError, QmaveError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmave",
        description="Single-index quantile regression via alternating "
        "local-linear fits.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    fit = sub.add_parser("fit", help="estimate the index direction from a CSV file")
    fit.add_argument("--input", required=True, help="CSV file with a header row")
    fit.add_argument("--y-col", required=True, help="response column name or index")
    fit.add_argument("--tau", type=_library_type(LossSpec.quantile), default="0.5")
    fit.add_argument("--loss", choices=("quantile", "squared"), default="quantile")
    fit.add_argument(
        "--h",
        type=_library_type(lambda s: QmaveConfig(h=None if s == "auto" else float(s)).h),
        default="auto",
        help='bandwidth, or "auto"',
    )
    fit.add_argument("--trim", type=_library_type(lambda s: TrimSpec(float(s))), default="0.05")
    fit.add_argument("--out", required=True, help="report file to write")
    fit.add_argument("--format", choices=("csv", "json"), default="json")

    sim = sub.add_parser("simulate", help="generate benchmark-model data")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument(
        "--noise", choices=[l.value for l in NoiseLaw], default="normal"
    )
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="CSV file to write")

    bench = sub.add_parser("benchmark", help="run the Monte Carlo benchmark grid")
    bench.add_argument("--ns", default="200", help="comma-separated sample sizes")
    bench.add_argument(
        "--noises", default="t1,quartic,t5,normal", help="comma-separated noise names"
    )
    bench.add_argument("--reps", type=int, default=100)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--workers", type=int, default=1)
    bench.add_argument("--out", required=True, help="report file to write")
    bench.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _fit_report_json(result) -> str:
    return json.dumps(
        {
            "theta": result.theta.tolist(),
            "iterations": result.iterations,
            "converged": result.converged,
            "objective_trace": result.objective_trace,
            "theta_trace": [t.tolist() for t in result.theta_trace],
        },
        indent=2,
    )


def _fit_report_csv(result) -> str:
    d = result.theta.size
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["iteration", "converged", "objective"] + [f"theta_{k + 1}" for k in range(d)]
    )
    for i, theta in enumerate(result.theta_trace):
        obj = repr(result.objective_trace[i]) if i < len(result.objective_trace) else ""
        writer.writerow([i, result.converged, obj] + [repr(float(v)) for v in theta])
    return buf.getvalue()


def _cmd_fit(args) -> int:
    data = parse_dataset_csv(args.input, args.y_col)
    loss = args.tau if args.loss == "quantile" else LossSpec.squared()
    cfg = QmaveConfig(loss=loss, h=args.h, trim=args.trim)
    result = qmave_fit(data, cfg)
    text = _fit_report_json(result) if args.format == "json" else _fit_report_csv(result)
    with open(args.out, "w") as fh:
        fh.write(text)
    print(
        f"fit: converged={result.converged} iterations={result.iterations} "
        f"theta={np.array2string(result.theta, precision=6)} -> {args.out}"
    )
    return 0


def _cmd_simulate(args) -> int:
    law = NoiseLaw(args.noise)
    data, theta0 = gen_model8(SimConfig(n=args.n, noise=law, seed=args.seed))
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{k + 1}" for k in range(data.d)] + ["y"])
        for i in range(data.n):
            writer.writerow(
                [repr(float(v)) for v in data.X[i]] + [repr(float(data.Y[i]))]
            )
    meta = {
        "n": args.n,
        "noise": law.value,
        "seed": args.seed,
        "theta0": theta0.tolist(),
    }
    meta_path = args.out + ".meta.json"
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2)
    print(f"simulate: wrote {data.n} rows -> {args.out} (meta: {meta_path})")
    return 0


def _cmd_benchmark(args) -> int:
    try:
        ns = [int(s) for s in args.ns.split(",") if s]
        laws = [NoiseLaw(s.strip()) for s in args.noises.split(",") if s.strip()]
    except ValueError as exc:
        raise InvalidInputError(str(exc)) from exc
    report = run_benchmark(
        ns, laws, replications=args.reps, base_seed=args.seed, workers=args.workers
    )
    text = report.to_csv() if args.format == "csv" else report.to_json()
    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"benchmark: {len(report.rows)} cells -> {args.out}")
    return 0


def run_cli(args) -> int:
    """Dispatch a parsed argument namespace; returns the exit status."""
    handlers = {
        "fit": _cmd_fit,
        "simulate": _cmd_simulate,
        "benchmark": _cmd_benchmark,
    }
    try:
        return handlers[args.subcommand](args)
    except (QmaveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return run_cli(args)


if __name__ == "__main__":
    sys.exit(main())
