"""Timing at a fixed reference CPU speed.

On a shared virtual machine the CPU alternates between a fast and a slow
state, about 1.7x apart; it switches every few seconds and can stay slow for
minutes.  The wall time of one and the same cold pass therefore spread by
25-35 % between runs, more than any useful regression bound.

``SpeedClock`` times a section of code and also reports it at a fixed
reference speed.  While the section runs, a SIGALRM every ``INTERVAL_S``
seconds times a tiny pure-Python reference loop (the fastest of three runs,
so that a cold cache does not count) and scales the wall time of the slice
since the previous sample by ``REF_S`` over that time.  A slice in which the
CPU ran slow is shortened by as much as the reference loop slowed, so the sum
reads the same whichever state the section met.  The time the handler itself
takes is left out.  The handler runs only between bytecodes, so a long call
into numpy ends its slice late, and that slice is scaled by the speed measured
at its end.

On a 2-vCPU VM, the scaled time of repeated cold passes of catalog-sweep and
window-lift had a coefficient of variation of 0.017, against 0.08-0.10 for
their wall times, over four minutes in which the reference loop's median
per pass ranged from 13 to 22 microseconds.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.01
# Time of the reference loop on the host's fast state (about 13-14 us on the
# 2-vCPU VM the benchmark was written on).  Any constant works: it only sets
# the unit, so that scaled seconds read close to wall seconds on a fast CPU.
REF_S = 13.5e-6


def _reference_loop() -> None:
    d: dict = {}
    for i in range(60):
        k = (i % 7, i % 5)
        d[k] = (d.get(k, 0) + i * 7) % 5


def _reference_time() -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedClock:
    """Context manager: ``wall_s`` and ``scaled_s`` of the section it wraps."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self.samples = 0
        self._slice_start = 0.0
        self._handler_s = 0.0

    def _sample(self, *_signal) -> None:
        now = time.perf_counter()
        self.scaled_s += (now - self._slice_start) * REF_S / _reference_time()
        self.samples += 1
        self._slice_start = time.perf_counter()
        self._handler_s += self._slice_start - now

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = self._slice_start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()  # close the last slice
        signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = self._slice_start - self._start - self._handler_s
