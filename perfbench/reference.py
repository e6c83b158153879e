"""Machine-speed reference for the end-to-end timings.

The benchmark runs on a shared 2-core host whose speed drifts by tens of
percent within minutes, for whole runs at a time.  A fixed kernel from this
directory does the same kinds of work as the package: numpy element-wise
arithmetic and transcendentals on a block, a `math.fsum` over `tolist()`,
and JSON round trips.  It is timed between jobs throughout a run, and the
end-to-end times of a workload that uses it are rescaled to the machine
speed at which the kernel takes `NOMINAL_S`.  A workload whose jobs use two pool threads runs two copies of
a numpy-heavier kernel at once instead, so that the sample also sees the
slower of the two cores.  Both kernels were chosen by measurement: their
ratio to job time varied least across runs.  The kernels never change, so
the rescaling means the same for any commit of the package.  Raw wall
times are kept in the detail record.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Kernel time, by thread count, that the reported timings are scaled to:
# about the median on the host where the benchmark was written.
NOMINAL_S = {1: 0.025, 2: 0.050}
EVERY_S = 0.5      # sampling interval between jobs

_DOC = {f"k{i}": [i * 0.5, str(i), {"a": i}] for i in range(600)}


def kernel() -> float:
    """Single-thread reference: block arithmetic, fsum and JSON."""
    x = np.arange(1 << 15, dtype=np.float64) * 0.6180339887498949
    total = 0.0
    for _ in range(5):
        y = x - np.floor(x)
        total += math.fsum((np.cos(2.0 * np.pi * y) * y + y * y).tolist())
        x = x + 0.1
    doc = _DOC
    for _ in range(4):
        doc = json.loads(json.dumps(doc))
    return total + len(doc)


def block_kernel() -> float:
    """Per-thread reference for two-thread jobs: engine-sized blocks of
    numpy work, which releases the GIL, so two copies overlap."""
    x = np.arange(1 << 16, dtype=np.float64) * 0.6180339887498949
    total = 0.0
    for _ in range(3):
        y = x - np.floor(x)
        z = np.cos(2.0 * np.pi * y) * y + np.sin(2.0 * np.pi * y) * y * y
        total += math.fsum(z.tolist())
        x = x + 0.1
    doc = _DOC
    for _ in range(2):
        doc = json.loads(json.dumps(doc))
    return total + len(doc)


class Reference:
    """Kernel timings of one run: ``kernel`` alone for ``threads`` = 1,
    ``threads`` copies of ``block_kernel`` at once for more, and no
    samples and a scale of 1 for 0."""

    def __init__(self, threads: int = 1):
        self.threads = threads
        self.samples: list[float] = []
        self._due = 0.0

    def sample(self):
        if not self.threads:
            return
        t0 = time.perf_counter()
        if self.threads == 1:
            kernel()
        else:
            with ThreadPoolExecutor(self.threads) as pool:
                for f in [pool.submit(block_kernel) for _ in range(self.threads)]:
                    f.result()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self._due = t1 + EVERY_S

    def sample_if_due(self):
        if time.perf_counter() >= self._due:
            self.sample()

    def scale(self) -> float:
        """Factor that converts this run's wall seconds to reference seconds."""
        if not self.threads:
            return 1.0
        return NOMINAL_S[self.threads] / statistics.median(self.samples)
