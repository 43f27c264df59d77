"""A speed probe: fixed bursts of work that time the machine's current speed.

On a shared 2-vCPU virtual machine the speed of one process drifted by up
to a third within a minute. The cause was contention on the host: the
process's CPU time drifted with its wall time, and steal time stayed near 0.
A burst slows down with the machine, so work time divided by burst time is
steadier than wall time.
"""

from __future__ import annotations

import signal
import time

import numpy as np


class SpeedProbe:
    """Times a fixed burst of work at the start and then every ``interval`` seconds.

    The bursts run from SIGALRM in the main thread, in between the
    workload's own bytecodes. A burst mixes integer arithmetic, dict updates
    and small matrix products, the kinds of work schedlab does.
    """

    REFERENCE_BURST_S = 0.004
    interval = 0.05
    _weights = np.random.default_rng(0).standard_normal((64, 64)) * 0.1

    def __init__(self):
        self.total = 0.0
        self.count = 0

    @classmethod
    def _burst(cls) -> None:
        s = 0
        for i in range(24_000):
            s += i * i % 7
        table: dict[int, int] = {}
        for i in range(6_000):
            key = i * 7919 % 1021
            table[key] = table.get(key, 0) + 1
        h = np.ones(64)
        for _ in range(200):
            h = np.tanh(h @ cls._weights)

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        self._burst()
        self.total += time.perf_counter() - t0
        self.count += 1

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, wall: float) -> float:
        return scaled_seconds(wall, self.total, self.count)


def scaled_seconds(wall: float, burst_total: float, burst_count: int) -> float:
    """Wall time less the bursts, in seconds on a machine where a burst takes 4 ms."""
    return (wall - burst_total) * SpeedProbe.REFERENCE_BURST_S * burst_count / burst_total
