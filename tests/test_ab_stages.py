"""Smoke test of ``tools/ab_stages.py``: one round, the same tree on both
sides."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_round_of_the_same_tree():
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "tools" / "ab_stages.py"),
            str(ROOT),
            str(ROOT),
            "--workload",
            "fit_m1000",
            "--rounds",
            "1",
            "--units",
            "1",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "fit_m1000, seed 1, 1 rounds of 1 units"
    rows = {line.split()[0]: line.split() for line in lines[2:]}
    # one squared-loss fit of 5 iterations a side, unconverged at tol 1e-12
    calls = {"_auto_init/squared": 1, "inner_step/squared": 6, "_outer/squared": 5,
             "eq_objective/squared": 1, "unit": 1}
    assert set(rows) == set(calls)
    for stage, count in calls.items():
        row = rows[stage]
        # calls x median [q1, q3], for each side, then the ratio
        assert row[1] == row[6] == str(count), row
        assert float(row[-1]) > 0
