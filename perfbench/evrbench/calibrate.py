"""Machine-speed calibration for host times.

The CPU this benchmark runs on changes speed by up to 1.5x for seconds at
a time (shared cores), and the change slows every kind of work alike, CPU
time included.  So every host time is measured next to a short, fixed
calibration kernel (a pure-Python loop plus small numpy operations, the
two kinds of work the simulator does) and reported at *reference speed*:
``raw_seconds * REFERENCE_SECONDS / kernel_seconds``, with the kernel
timed right after the work it calibrates.  A change to the program moves
the reported time by the same factor as the raw time; a change in machine
speed does not.  Raw times are printed next to the reported ones.
"""

from __future__ import annotations

import time

import numpy as np

#: The kernel's time on the reference machine (Intel Xeon, 2 vCPUs,
#: Python 3.11, numpy 2.4) when it runs at full speed.
REFERENCE_SECONDS = 0.002


def kernel_seconds(repeats: int = 2) -> float:
    """Fastest of ``repeats`` timings of the calibration kernel."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for value in range(30000):
            total += value * value
        values = np.arange(256.0)
        for _ in range(200):
            values = values * 1.0000001 + 0.5
        best = min(best, time.perf_counter() - start)
    return best
