"""A fixed calibration kernel that tracks the host's current speed.

The bench host shares its physical machine with other tenants.  Its
cores slow down by up to 2.3 times: mostly cache and memory-bandwidth
contention, with a few percent of stolen time.  The speed changes
within a second, and a slow spell can also last the whole run.  No
statistic over the epochs of one run filters that.  So the runner
times this kernel right after every epoch, untimed, where it meets the
caches and the contention that epoch met.  It then scales every host
time by :meth:`Calibration.factor`.  The result is host time at the
reference speed.  The kernel lives in the benchmark, so no change to
the program under test can move it.

The kernel mixes what an epoch does: interpreter work on a dict, many
small NumPy calls, and a pass over an array larger than the L2 cache.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Median time of the kernel run right after an epoch on the bench host
#: (KVM guest, Intel Xeon, 2 vCPUs, Python 3.11.7, NumPy 2.4.6),
#: over the spread measurements in ``bench/README.md``.
REFERENCE_S = 1.0e-3


class Calibration:
    """Kernel times, and the speed factor they give."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self._small = np.linspace(0.0, 1.0, 64)
        # 4 MiB, beyond the L2 cache; updated in place, so the kernel
        # adds only this array to the run's memory.
        self._big = np.linspace(0.0, 1.0, 1 << 19)

    def run(self, times: int = 1) -> None:
        """Time the kernel ``times`` times."""
        for _ in range(times):
            began = time.perf_counter()
            table = {}
            for i in range(1500):
                key = i & 63
                table[key] = table.get(key, 0) + i
            small = self._small
            for _ in range(30):
                small = np.sqrt(small * 1.0001 + 0.5)
            np.multiply(self._big, 1.0000001, out=self._big)
            self.times.append(time.perf_counter() - began)

    def factor(self) -> float:
        """``REFERENCE_S / median kernel time``.

        Multiply a host time by it, or divide a rate, to get the value
        at the reference speed; below 1 on a slow host.
        """
        return REFERENCE_S / statistics.median(self.times)
