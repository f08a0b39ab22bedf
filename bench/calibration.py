"""Scaling of measured times to a reference machine speed.

On a shared host the speed of the same code drifts with the neighbours' load:
on a 2-vCPU Xeon KVM guest one operation's wall time swings by up to 1.8x over
tens of seconds, so raw times of runs made minutes apart are not comparable.  The benchmark
therefore times a fixed kernel -- interpreter-bound dictionary work and sparse
vector-matrix products, sharing no code with codexpand -- in a gap before and
after every timed interval, and scales each interval to the reference speed:

    reported = measured * REFERENCE_S / median(kernel times in both gaps)

A reported second is a second on a machine that runs the kernel in
REFERENCE_S.  Raw times are printed and recorded alongside.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import Counter

import numpy as np
from scipy import sparse

#: Kernel time at the reference speed.  It only fixes the unit: a round value
#: within the kernel's range (0.08-0.14 s) on the machine that recorded
#: baseline.json.
REFERENCE_S = 0.1
#: Kernel runs per gap.
SAMPLES = 5
_DICT_UPDATES = 100_000
_SPARSE_STEPS = 1500
_SPARSE_SIZE = 1_000


class Calibration:
    """Kernel times in the gaps between timed intervals."""

    def __init__(self) -> None:
        offsets = range(-4, 5)
        self.matrix = sparse.diags(
            [np.full(_SPARSE_SIZE - abs(k), 1.0 / len(offsets)) for k in offsets],
            list(offsets), format="csr")
        self.gaps: list[list[float]] = []

    def _kernel(self) -> None:
        counts: Counter = Counter()
        for i in range(_DICT_UPDATES):
            counts[(i * 7919) % 1013, i & 7] += 1
        vector = np.ones(_SPARSE_SIZE)
        for _ in range(_SPARSE_STEPS):
            vector = vector @ self.matrix

    def gap(self) -> None:
        """Time the kernel SAMPLES times, after collecting the garbage of
        whatever ran before, so that no sample pays for it."""
        gc.collect()
        samples = []
        for _ in range(SAMPLES):
            started = time.perf_counter()
            self._kernel()
            samples.append(time.perf_counter() - started)
        self.gaps.append(samples)

    def scale(self, interval: int) -> float:
        """Factor to the reference speed for the interval after gap ``interval``."""
        return REFERENCE_S / statistics.median(self.gaps[interval] + self.gaps[interval + 1])

    def scaled(self, values: list[float]) -> list[float]:
        """One measured value per interval, each scaled to the reference speed."""
        return [v * self.scale(k) for k, v in enumerate(values)]

    def kernel_s(self) -> float:
        """Median kernel time over every gap."""
        return statistics.median(s for gap in self.gaps for s in gap)
