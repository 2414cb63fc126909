"""Print the tracemalloc peak of each stage of a qmave fit.

Usage::

    python3 tools/stage_peaks.py TREE --seed N [--workload grid_n200|fit_m1000]

Runs the first accuracy unit of a benchmark workload from ``TREE/src``
and ``TREE/perfbench/workloads.py``, under tracemalloc, as
``perfbench/run.py`` measures its ``peak_mem_mb``: after the workload's
set-up, with tracing started just before the unit.  The workload is
``grid_n200`` (the default: the n=200 table, all four noise laws, both
methods, at the benchmark config) or ``fit_m1000`` (one squared-loss
fit at n=1000).  The stages are the functions

- ``_auto_init``: the initial estimate, which holds the next two;
- ``_median_window_count``: the init ladder probe;
- ``full_fit_batch``: the full-dimensional local fits of the initial
  estimate (wrapped in ``qmave.initial``, which calls it);
- ``inner_step``: the local index fits of an iteration (a tree whose
  ``qmave_fit`` ran them through ``_index_step`` prints ``not called``);
- ``_outer``: the pooled index update of an iteration;
- ``outer_problem``: the build of the quantile loss's pooled problem,
  inside ``_outer`` and ``eq_objective`` (the squared loss builds none);
- ``eq_objective``: the objective of an unconverged fit's last iterate.

A stage's peak is the largest traced memory while any of its calls ran,
in MB of 2^20 bytes like ``peak_mem_mb``, counting what its caller held.
A stage whose function the tree lacks prints ``absent``.  The next line
is the peak of the whole unit.  The last line gives the minor page
faults (``getrusage``) of one untraced repeat of the unit.  They are
indicative only: the count follows the process's allocation history, so
the same unit reads differently after other work in the same process.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import resource
import sys
import tracemalloc
from pathlib import Path

# stage -> the qmave module whose global the stage's callers look up
STAGES = {
    "_auto_init": "fit",
    "_median_window_count": "fit",
    "full_fit_batch": "initial",
    "inner_step": "fit",
    "_outer": "fit",
    "outer_problem": "fit",
    "eq_objective": "fit",
}
MB = 1024 * 1024


class Peaks:
    """Per-stage tracemalloc peaks: each call's own peak, taken by
    resetting tracemalloc's peak at its entry, is folded into its stage,
    into the stages of the calls that enclose it and into the total."""

    def __init__(self):
        self.stage = {}
        self.calls = {}
        self.open = []
        self.total = 0

    def _fold(self, names):
        peak = tracemalloc.get_traced_memory()[1]
        self.total = max(self.total, peak)
        for name in names:
            self.stage[name] = max(self.stage.get(name, 0), peak)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._fold(self.open)
            tracemalloc.reset_peak()
            self.open.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._fold(self.open)
                self.open.pop()
                self.calls[name] = self.calls.get(name, 0) + 1

        return traced

    def finish(self):
        self._fold(self.open)


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(tree: Path, seed: int, workload_name: str):
    """``(peaks, present, faults)`` of the first accuracy unit of the
    workload: its stage peaks, the stages the tree has, and the minor
    faults of an untraced repeat of the unit."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed)
    workload.setup()
    peaks = Peaks()
    originals = []
    for name, module in STAGES.items():
        mod = importlib.import_module(f"qmave.{module}")
        if hasattr(mod, name):
            originals.append((mod, name, getattr(mod, name)))
            setattr(mod, name, peaks.wrap(name, getattr(mod, name)))
    tracemalloc.start()
    try:
        workload.accuracy_unit(0)
        peaks.finish()
    finally:
        tracemalloc.stop()
        for mod, name, fn in originals:
            setattr(mod, name, fn)
    before = minor_faults()
    workload.accuracy_unit(0)
    return peaks, [name for _, name, _ in originals], minor_faults() - before


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree", type=Path, help="root of a qmave source checkout")
    ap.add_argument("--seed", type=int, required=True, help="the workload's seed")
    ap.add_argument("--workload", choices=("grid_n200", "fit_m1000"), default="grid_n200")
    args = ap.parse_args(argv)
    peaks, present, faults = measure(args.tree.resolve(), args.seed, args.workload)
    for name in STAGES:
        if name not in present:
            print(f"{name:<20} absent")
        elif name not in peaks.stage:
            print(f"{name:<20} not called")
        else:
            print(f"{name:<20} {peaks.stage[name] / MB:.3f} MB  ({peaks.calls[name]} calls)")
    print(f"{'overall':<20} {peaks.total / MB:.3f} MB")
    print(f"{'minor faults':<20} {faults} in one untraced repeat of the unit (indicative)")


if __name__ == "__main__":
    main()
