"""Machine-speed calibration for the benchmark's timings.

The machine this benchmark was written on switches, about every second,
between two speeds some 1.6x apart (other tenants of the host), so raw
times of identical runs differ by a quarter.  Every latency is therefore
scaled to a reference speed: a fixed pure-Python kernel is timed every
``SAMPLE_EVERY_S`` from a SIGALRM handler, inside requests as well as
between them, and a request's latency is multiplied by ``KERNEL_REF_S``
over the mean kernel time of the samples taken during it and the nearest
one on each side.  The time spent in samples is taken out of the latency.
The kernel is the benchmark's own code, so no change to forminv speeds it
up or slows it down.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left, bisect_right
from typing import Callable, Dict, List, Optional, Tuple

KERNEL_REF_S = 0.0025  # kernel time at the reference speed (a fixed scale)
SAMPLE_EVERY_S = 0.05


def kernel() -> int:
    """Fixed calibration work: a list-of-ints DP and a dict polynomial
    product, the two shapes of work that dominate forminv."""
    dp = [[0] * 48 for _ in range(10)]
    dp[0][0] = 1
    for part in range(1, 6):
        for c in range(1, 10):
            row, prev = dp[c], dp[c - 1]
            for w in range(part, 48):
                row[w] += prev[w - part]
    poly = {(i, j): i * j + 1 for i in range(9) for j in range(9)}
    acc: Dict[Tuple[int, int], int] = {}
    get = acc.get
    for (a, b), c in poly.items():
        for (x, y), e in poly.items():
            k = (a + x, b + y)
            acc[k] = get(k, 0) + c * e
    return len(acc) + dp[-1][-1]


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Speedometer:
    """Samples the kernel time while in use as a context manager.

    A sample runs between two bytecodes of whatever code is executing, so it
    lies wholly before, inside or after any interval timed around a call.
    ``on_sample(seconds)``, if given, is told how long each sample took.
    """

    def __init__(self, on_sample: Optional[Callable[[float], None]] = None):
        self.starts: List[float] = []
        self.kernel_s: List[float] = []
        self.on_sample = on_sample
        self._previous = None

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        kernel()
        spent = time.perf_counter() - t0
        self.starts.append(t0)
        self.kernel_s.append(spent)
        if self.on_sample is not None:
            self.on_sample(spent)

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def sampling_in(self, t0: float, t1: float) -> float:
        """Seconds spent sampling between t0 and t1."""
        return sum(self.kernel_s[bisect_left(self.starts, t0) : bisect_right(self.starts, t1)])

    def scale(self, t0: float, t1: float) -> float:
        """Reference speed over the speed measured between t0 and t1."""
        lo = max(bisect_right(self.starts, t0) - 1, 0)
        hi = bisect_left(self.starts, t1) + 1
        window = self.kernel_s[lo:hi]
        return KERNEL_REF_S * len(window) / sum(window)
