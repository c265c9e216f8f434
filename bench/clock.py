"""Durations normalized to a nominal machine speed.

On a shared host the machine's speed swings by up to 2x for seconds at a
time. A fixed reference kernel, timed at the start and end of every
measured segment, tracks that speed: each segment's duration is rescaled to
a machine on which the kernel takes ``KERNEL_S``. The kernel's own time is
never counted.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

KERNEL_S = 0.002  # nominal reference-kernel time that normalized durations assume


def calibrate() -> float:
    """Seconds the reference kernel takes right now.

    The kernel mixes what the program spends its time on: numpy scalar
    indexing in interpreted loops, integer arithmetic, dict and tuple churn,
    and small array operations.
    """
    start = perf_counter()
    a, u = np.arange(64.0), np.zeros(65)
    acc, s, seen = 0.0, 0, {}
    for i in range(2000):
        acc += a[i & 63] - u[i % 65]
        s += i * i % 7
        seen[i % 97] = (s, acc)
    for _ in range(100):
        a = np.sqrt(a * a + 1.0)
    return perf_counter() - start


class Clock:
    """A stopwatch split into segments, each normalized by the kernel times at its two ends."""

    def __init__(self):
        self.restart()

    def restart(self) -> None:
        self.raw = self.normalized = 0.0
        self._kernel = calibrate()
        self._start = perf_counter()

    def split(self) -> None:
        """Close the running segment, calibrate, and open the next one."""
        elapsed = perf_counter() - self._start
        kernel = calibrate()
        self.raw += elapsed
        self.normalized += elapsed * KERNEL_S * 2 / (self._kernel + kernel)
        self._kernel = kernel
        self._start = perf_counter()

    def splitting(self, fn):
        """fn, with a split just before each call: long batches get calibration points inside."""

        def split_then_call(*args, **kwargs):
            self.split()
            return fn(*args, **kwargs)

        return split_then_call
