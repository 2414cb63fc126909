"""Check that the benchmark prints a well-formed result for every run.

Usage::

    python3 tools/check_bench_output.py [--seconds S] [--seed N]

Runs ``perfbench/run.py`` from this checkout on every workload of
``BENCHMARK.json``, once with ``--trace 0`` and once with ``--trace 1``,
each in its own process, with its records written to a temporary
directory.  A run passes when:

- it exits 0;
- the last line of its standard output is strict JSON (no ``NaN`` or
  ``Infinity``) with ``correct: true``;
- every metric that ``BENCHMARK.json`` names for that mode
  (``end_to_end`` untraced, ``per_layer`` traced) is a finite number.
  A traced metric reads ``null`` when the function it wraps is gone.

Prints one line per run and exits 1 if any run fails, else 0.
``--seconds`` defaults to the benchmark's ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name}")


def check_output(returncode, stdout, wanted):
    """Problems with one run's exit code and standard output; ``wanted``
    are the metric names the run must report as finite numbers."""
    if returncode != 0:
        return [f"exit status {returncode}"]
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1], parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"last line is not strict JSON: {exc}"]
    if not isinstance(result, dict):
        return ["last line is not a JSON object"]
    problems = [] if result.get("correct") is True else ["correct is not true"]
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return problems + ["no metrics object"]
    for name in wanted:
        value = (metrics.get(name) or {}).get("value")
        finite = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (finite and math.isfinite(value)):
            problems.append(f"metric {name} is {value!r}, not a finite number")
    return problems


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    modes = {0: spec["end_to_end"], 1: spec["per_layer"]}
    failed = 0
    with tempfile.TemporaryDirectory() as out:
        for workload in spec["workloads"]:
            for trace, metrics in modes.items():
                cmd = [
                    *spec["command"],
                    "--workload", workload["name"],
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(trace),
                    "--out", out,
                ]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                problems = check_output(proc.returncode, proc.stdout, [m["name"] for m in metrics])
                label = f"{workload['name']} --trace {trace}"
                print(f"{'FAIL' if problems else 'ok'} {label}: {len(metrics)} metrics")
                for problem in problems:
                    print(f"  {problem}")
                if problems and proc.stderr.strip():
                    print("  stderr: " + proc.stderr.strip().splitlines()[-1])
                failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
