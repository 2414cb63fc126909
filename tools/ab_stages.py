"""Time the stages of a qmave fit for two source trees in one process.

Usage::

    python3 tools/ab_stages.py PARENT CHANGE --workload grid_n200|fit_m1000
        [--seed N] [--rounds R] [--units U]

Each tree's ``src/qmave`` is imported under a package name of its own
(``qmave_parent``, ``qmave_change``), and each tree's own
``perfbench/workloads.py`` is bound to it, so the two run the
benchmark's timed units side by side in one interpreter and one heap.
Both workloads are set up first.  Each round then runs units 0..U-1 of
one tree and then of the other, and the order of the trees alternates
from round to round.

The stages are the functions ``_auto_init``, ``inner_step``, ``_outer``
and ``eq_objective`` of ``qmave.fit``, wrapped where ``qmave_fit`` looks
them up and keyed by the loss of their config, so a ``grid_n200`` unit
reports its squared (MAVE) and quantile (qMAVE) calls apart.  For each
stage the tool prints, per tree, the number of calls and the median
[first quartile, third quartile] of one call's wall time in ms, then the
ratio of the change's median to the parent's.  The last line does the
same for whole units.  BLAS runs on one thread, as in ``perfbench/run.py``.

The figures support stage-level statements; the gated end-to-end
metrics still come from ``perfbench/run.py``, one process per run.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

STAGES = ("_auto_init", "inner_step", "_outer", "eq_objective")
SIDES = ("parent", "change")


def _load(name, path, package=False):
    """The module at ``path`` under the name ``name``; a package when
    ``package``, so that its relative imports resolve under that name."""
    search = [str(path.parent)] if package else None
    spec = importlib.util.spec_from_file_location(name, path, submodule_search_locations=search)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Tree:
    """One source tree: its qmave package, its workload, and the wall
    times of its stage calls and units."""

    def __init__(self, side, root: Path, workload: str, seed: int):
        self.side = side
        self.qm = _load(f"qmave_{side}", root / "src" / "qmave" / "__init__.py", package=True)
        saved = sys.modules.get("qmave")
        sys.modules["qmave"] = self.qm  # the workloads module imports qmave by name
        try:
            workloads = _load(f"workloads_{side}", root / "perfbench" / "workloads.py")
        finally:
            if saved is None:
                del sys.modules["qmave"]
            else:
                sys.modules["qmave"] = saved
        self.workload = workloads.WORKLOADS[workload](seed)
        self.calls = {}
        self.units = []
        fit = sys.modules[f"qmave_{side}.fit"]
        for name in STAGES:
            setattr(fit, name, self._timed(name, getattr(fit, name)))

    def _timed(self, name, fn):
        @functools.wraps(fn)
        def timed(*args):
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                key = f"{name}/{args[-1].loss.kind}"  # every stage takes cfg last
                self.calls.setdefault(key, []).append(time.perf_counter() - start)

        return timed

    def run(self, units):
        for k in range(units):
            start = time.perf_counter()
            self.workload.run_unit(k)
            self.units.append(time.perf_counter() - start)


def summary(times):
    """``(median, first quartile, third quartile)`` of ``times``."""
    if len(times) < 2:
        return times[0], times[0], times[0]
    q1, q2, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return q2, q1, q3


def report(name, parent, change):
    cells = []
    for times in (parent, change):
        if times:
            med, q1, q3 = (1e3 * v for v in summary(times))
            cells.append(f"{len(times):4d} x {med:9.3f} [{q1:.3f}, {q3:.3f}]")
        else:
            cells.append(f"{'not called':>30}")
    ratio = f"{summary(change)[0] / summary(parent)[0]:.3f}" if parent and change else "n/a"
    print(f"{name:<22} {cells[0]:>34} {cells[1]:>34}  {ratio}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="root of the parent source checkout")
    ap.add_argument("change", type=Path, help="root of the changed source checkout")
    ap.add_argument("--workload", choices=("grid_n200", "fit_m1000"), required=True)
    ap.add_argument("--seed", type=int, default=1, help="the workload's seed")
    ap.add_argument("--rounds", type=int, default=6, help="alternated rounds")
    ap.add_argument("--units", type=int, default=4, help="timed units per tree per round")
    args = ap.parse_args(argv)
    trees = [
        Tree(side, root.resolve(), args.workload, args.seed)
        for side, root in zip(SIDES, (args.parent, args.change))
    ]
    for tree in trees:
        tree.workload.setup()
    for tree in trees:  # the set-up's calls are not timed stages
        tree.calls.clear()
    for r in range(args.rounds):
        for tree in trees if r % 2 == 0 else trees[::-1]:
            tree.run(args.units)
    print(f"{args.workload}, seed {args.seed}, {args.rounds} rounds of {args.units} units")
    print(f"{'stage/loss':<22} {'parent: calls x ms [q1, q3]':>34} {'change':>34}  ratio")
    parent, change = trees
    for key in sorted(parent.calls.keys() | change.calls.keys()):
        report(key, parent.calls.get(key, []), change.calls.get(key, []))
    report("unit", parent.units, change.units)


if __name__ == "__main__":
    main()
