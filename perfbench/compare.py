"""Compare two sets of benchmark records, parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the records ``run.py`` writes (``--out``), one per
workload, seed and trace setting; runs of the two sides are paired by
seed.  For every workload and metric it prints each side's median and
quartiles and how many pairs the change won.  A gated end-to-end metric
gets a verdict: ``gain`` when the change wins at least nine tenths of
the pairs and the medians differ by more than the parent's quartile
distance, ``REGRESSION`` when the change's median is worse than the
parent's by more than the bound in BENCHMARK.json, ``unresolved`` when
the parent's own spread is wider than that bound.  Any change in the
estimation errors or the failed share is flagged ``MOVED``.  The exit
code is 1 when anything regressed or moved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ACCURACY = ("error_mean_qmave", "error_mean_mave", "failed_share")
UNGATED_BETTER = {
    "fits_per_s": "higher",
    "fit_s_p50": "lower",
    "norm_fit_s_p50": "lower",
    **{name: "lower" for name in ACCURACY},
}


def load(directory):
    records = {}
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.startswith("spans-"):
            continue
        rec = json.loads(path.read_text())
        records[(rec["workload"], rec["trace"], rec["seed"])] = rec
    return records


def summary(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def fmt(v):
    return "-" if v is None else f"{v:.4g}"


def compare(parent, change, spec):
    gated = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    better.update(UNGATED_BETTER)
    bad = False
    groups = sorted({key[:2] for key in parent} | {key[:2] for key in change})
    for workload, trace in groups:
        a_recs = {k[2]: r for k, r in parent.items() if k[:2] == (workload, trace)}
        b_recs = {k[2]: r for k, r in change.items() if k[:2] == (workload, trace)}
        print(f"\n== {workload} trace={trace}: parent {len(a_recs)} runs, change {len(b_recs)} runs")
        print(f"{'metric':34} {'unit':6} {'parent p50 [q1, q3]':30} "
              f"{'change p50 [q1, q3]':30} {'delta':>8} {'wins':>7}  verdict")
        names = sorted({n for r in [*a_recs.values(), *b_recs.values()] for n in r["report"]})
        for name in names:
            a = {s: r["report"].get(name, {}).get("value") for s, r in a_recs.items()}
            b = {s: r["report"].get(name, {}).get("value") for s, r in b_recs.items()}
            unit = next((r["report"][name]["unit"] for r in [*a_recs.values(), *b_recs.values()]
                         if name in r["report"]), "")
            av = [v for v in a.values() if v is not None]
            bv = [v for v in b.values() if v is not None]
            if not av or not bv:
                print(f"{name:34} {unit or '':6} absent or undefined on "
                      f"{'parent' if not av else 'change'}")
                continue
            (am, aq1, aq3), (bm, bq1, bq3) = summary(av), summary(bv)
            pairs = [(a[s], b[s]) for s in a if s in b and a[s] is not None and b[s] is not None]
            sign = {"lower": -1.0, "higher": 1.0}.get(better.get(name), 0.0)
            wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
            delta = (bm - am) / abs(am) if am else None
            verdict = ""
            if name in ACCURACY and any(x != y for x, y in pairs):
                verdict, bad = "MOVED", True
            elif name in gated and trace == 0 and delta is not None:
                bound = gated[name]["bound"]
                worse = -sign * delta
                if pairs and wins >= 0.9 * len(pairs) and abs(bm - am) > aq3 - aq1 and worse < 0:
                    verdict = "gain"
                elif worse > bound:
                    verdict, bad = "REGRESSION", True
                elif (aq3 - aq1) / abs(am) > bound and wins < len(pairs):
                    verdict = "unresolved"
                else:
                    verdict = "same"
            print(f"{name:34} {unit or '':6} "
                  f"{fmt(am) + ' [' + fmt(aq1) + ', ' + fmt(aq3) + ']':30} "
                  f"{fmt(bm) + ' [' + fmt(bq1) + ', ' + fmt(bq3) + ']':30} "
                  f"{'-' if delta is None else f'{100 * delta:+.1f}%':>8} "
                  f"{f'{wins}/{len(pairs)}' if sign else '-':>7}  {verdict}")
    lines = [
        statistics.median(r["env"]["src_lines"] for r in side.values()) if side else None
        for side in (parent, change)
    ]
    print(f"\nsrc/ lines (informational, not gated): parent {fmt(lines[0])}, change {fmt(lines[1])}")
    return bad


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    if not parent or not change:
        print("error: each directory needs at least one record", file=sys.stderr)
        return 2
    return 1 if compare(parent, change, spec) else 0


if __name__ == "__main__":
    sys.exit(main())
