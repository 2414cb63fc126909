"""Print the tracemalloc peak of each stage of a qmave fit.

Usage::

    python3 tools/stage_peaks.py TREE --seed N

Runs the first accuracy unit of the ``grid_n200`` workload (the n=200
table, all four noise laws, both methods, at the benchmark config) from
``TREE/src`` and ``TREE/perfbench/workloads.py``, under tracemalloc, as
``perfbench/run.py`` measures its ``peak_mem_mb``: after the workload's
set-up, with tracing started just before the unit.  The stages are the
``qmave.fit`` functions

- ``_auto_init``: the initial estimate (ladder probe and full fits);
- ``inner_step``: the local index fits of an iteration (a tree whose
  ``qmave_fit`` ran them through ``_index_step`` prints ``not called``);
- ``_outer``: the pooled index update of an iteration;
- ``eq_objective``: the objective of an unconverged fit's last iterate.

A stage's peak is the largest traced memory while any of its calls ran,
in MB of 2^20 bytes like ``peak_mem_mb``, counting what its caller held.
A stage whose function the tree lacks prints ``absent``.  The last line
is the peak of the whole unit.
"""

from __future__ import annotations

import argparse
import functools
import sys
import tracemalloc
from pathlib import Path

STAGES = ("_auto_init", "inner_step", "_outer", "eq_objective")
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


def measure(tree: Path, seed: int):
    """``(peaks, present)`` of the first ``grid_n200`` accuracy unit."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import qmave.fit
    from workloads import GridWorkload

    workload = GridWorkload(seed)
    workload.setup()
    peaks = Peaks()
    present = [name for name in STAGES if hasattr(qmave.fit, name)]
    for name in present:
        setattr(qmave.fit, name, peaks.wrap(name, getattr(qmave.fit, name)))
    tracemalloc.start()
    try:
        workload.accuracy_unit(0)
        peaks.finish()
    finally:
        tracemalloc.stop()
    return peaks, present


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree", type=Path, help="root of a qmave source checkout")
    ap.add_argument("--seed", type=int, required=True, help="the workload's seed")
    args = ap.parse_args(argv)
    peaks, present = measure(args.tree.resolve(), args.seed)
    for name in STAGES:
        if name not in present:
            print(f"{name:<14} absent")
        elif name not in peaks.stage:
            print(f"{name:<14} not called")
        else:
            print(f"{name:<14} {peaks.stage[name] / MB:.3f} MB  ({peaks.calls[name]} calls)")
    print(f"{'overall':<14} {peaks.total / MB:.3f} MB")


if __name__ == "__main__":
    main()
