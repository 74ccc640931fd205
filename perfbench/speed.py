"""How fast the machine runs, sampled while a round runs.

Other tenants of the machine slow it by up to 1.8x, in phases of seconds to
minutes that nothing inside the VM reports.  A SpeedSampler times a short
fixed probe every INTERVAL_S from a SIGALRM handler, so the samples follow
the phases through even a long set-up.  quiet_seconds(a, b) is the wall time
of [a, b] less the probes inside it, rescaled by the probe's quiet time over
its mean time within WINDOW_S of [a, b]: the time [a, b] would have taken on
a quiet machine.  A single probe varies by about 25 %, so a span's speed
takes the mean of the probes in and around it.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.1
# Probes within WINDOW_S of a span set its speed.
WINDOW_S = 1.0
# probe() on this machine when no other tenant disturbs it.
QUIET_PROBE_S = 0.0015


def probe() -> float:
    """Seconds taken by a fixed mix of small numpy operations and Python
    calls, like the stepper's.  A step-like kernel at the large cloud's size
    tracked the set-up worse and the march no better."""
    a, b, acc = np.linspace(0.0, 1.0, 144), np.ones(144), 0.0
    start = perf_counter()
    for i in range(300):
        c = a * b + 0.5
        acc += float(c.max()) + i % 7
        b = np.maximum(c, 0.1) / (1.0 + c)
    return perf_counter() - start


class SpeedSampler:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, probe seconds)
        self._previous = None

    def _sample(self, *_):
        start = perf_counter()
        self.samples.append((start, probe()))

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def quiet_seconds(self, a: float, b: float) -> float:
        busy = sum(d for s, d in self.samples if a <= s < b)
        near = [d for s, d in self.samples if a - WINDOW_S <= s <= b + WINDOW_S]
        return (b - a - busy) * QUIET_PROBE_S / statistics.fmean(near)
