"""A fixed task that does not call dakr, timed between the benchmark's
windows so that a run can tell how fast the shared host ran during it.

The host's speed moves by 20-40% in spells that last minutes, so two runs
of the same program a few minutes apart can differ by more than any
bound a comparison could use.  The task does the kinds of work dakr does
per probe (a block of ``cdist`` rows, then a stable sort, a uniqueness
check and a kernel sum per row, driven from Python) on fixed inputs; how
long it takes around a moment of a run, against ``REFERENCE_S``, is the
host's slowdown at that moment.  ``run.py`` divides each timed window by
the slowdown around it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy.spatial.distance import cdist

# About the task's median time in the runs of the first baseline (an Intel
# Xeon virtual machine with two vCPUs; numpy 2.4.6, scipy 1.17.1).  Timings
# are reported as if the run had gone at that speed.
REFERENCE_S = 0.008

_SEED = 1805_07698
_REFS, _ROWS, _DIM = 1000, 32, 64


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(_SEED)
        self.refs = rng.random((_REFS, _DIM))
        self.rows = rng.random((_ROWS, _DIM))
        self.ids = np.arange(_REFS, dtype=np.int64)

    def window(self) -> float:
        """Run the task once; returns its time in seconds."""
        t0 = perf_counter()
        for row in cdist(self.rows, self.refs):
            order = np.argsort(row, kind="stable")
            np.unique(self.ids[order])
            float(np.exp(-row[order] / row[order[-1]]).sum())
        return perf_counter() - t0
