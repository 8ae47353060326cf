"""Host-speed reference for timing on a shared machine.

On a shared host the speed of one core changes by up to 2x within
seconds, because of other tenants, so raw times of the same work spread
far more between runs than any useful regression bound. During set-up and
the timed section a SIGALRM sampler runs a fixed reference kernel every
``PERIOD_S``. The kernel mixes interpreter-bound hashing with small numpy
calls, like the package's hot paths. An interval's time is then reported
in reference seconds: its wall time minus the sampler's own time, scaled
by ``REFERENCE_S`` over the median kernel time sampled in and next to the
interval. The kernel belongs to the benchmark, so a change to the package
moves reference seconds as it moves wall seconds; perfbench/README.md
names the two kinds of change for which the raw wall times, kept in every
result file, should be compared as well.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
REFERENCE_S = 0.75e-3  # median kernel time in the workloads on the host the bounds were set on

_BYTES = bytes(range(256)) * 8
_MATRIX = np.random.default_rng(0).normal(size=(64, 64))
_VECTOR = np.ones(64)
_IDS = np.arange(200) % 37


def kernel() -> None:
    h = 0xCBF29CE484222325
    for b in _BYTES:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    for _ in range(20):
        float(np.dot(_MATRIX @ _VECTOR, _VECTOR))
        np.unique(_IDS, return_counts=True)


class HostSpeed:
    """Context manager that samples the reference kernel while it is active."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def raw_seconds(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1) without the sampler's own kernel runs."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        return (t1 - t0) - sum(self.durations[lo:hi])

    def scale(self, seconds: float) -> float:
        """Reference seconds of work timed just before sampling began."""
        return seconds * REFERENCE_S / statistics.median(self.durations)

    def reference_seconds(self, t0: float, t1: float) -> float:
        """``raw_seconds`` scaled by the median kernel time in and next to [t0, t1).

        The median, not the mean, so that a kernel run stretched by a single
        preemption does not rescale a whole interval.
        """
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        near = self.durations[lo:hi] or self.durations[max(lo - 1, 0):lo + 1]
        if not near:
            return t1 - t0
        return self.raw_seconds(t0, t1) * REFERENCE_S / statistics.median(near)
