"""A fixed reference job that measures how fast the host runs right now.

On a shared machine the same fit can take 1.0 s in one minute and 1.5 s
in the next: another tenant on the same physical core slows every
instruction, and the process's own CPU time counts the slowdown too.
``run.py`` runs the reference job before every timed unit and after the
last one, and scales each unit's time by how long the jobs around it
took, so the gated figure reads as on a host where the job takes
``NOMINAL_S``.

A slowdown does not hit all code alike, so the job mixes the shapes of
work the library does: stacked small solves, elementwise exponentials
over an n x m array (the kernel matrices), a dense product, and a Python
loop of small numpy calls (the per-anchor work of small fits).  A job of
any one shape alone followed the library less closely.

The job uses numpy and plain Python only, never qmave, so a change to
the library cannot move it, and it allocates nothing large, so how the
process has used its heap cannot either.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# About the mean time of the job on the 2-core Xeon VM the benchmark was
# written on; the scale is a constant, so normalised figures of any two
# commits compare directly.
NOMINAL_S = 0.045


class Reference:
    """The reference job with its inputs and output buffers."""

    def __init__(self):
        rng = np.random.default_rng(20080317)
        self.systems = rng.standard_normal((400, 6, 6)) + 6.0 * np.eye(6)
        self.rhs = rng.standard_normal((400, 6, 1))
        self.grid = rng.standard_normal((1000, 300))
        self.grid_out = np.empty_like(self.grid)
        self.dense = rng.standard_normal((300, 300))
        self.dense_out = np.empty_like(self.dense)
        self.small = rng.standard_normal(6)
        self.expected = self._job()  # also warms the job up

    def _job(self) -> float:
        s = 0.0
        for _ in range(40):
            s += float(np.linalg.solve(self.systems, self.rhs)[0, 0, 0])
        for _ in range(12):
            np.multiply(self.grid, self.grid, out=self.grid_out)
            np.multiply(self.grid_out, -0.5, out=self.grid_out)
            s += float(np.exp(self.grid_out, out=self.grid_out).sum())
        for _ in range(4):
            s += float(np.matmul(self.dense, self.dense, out=self.dense_out).sum())
        a = self.small
        for i in range(8000):
            s += float(a @ a) + abs(a[i % 6])
        return s

    def seconds(self) -> float:
        """Wall seconds of one run of the job."""
        t0 = perf_counter()
        value = self._job()
        elapsed = perf_counter() - t0
        if value != self.expected:
            raise RuntimeError("reference job gave a different result")
        return elapsed
