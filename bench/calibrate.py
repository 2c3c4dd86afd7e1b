"""A fixed loop that tells how fast the machine runs at this moment.

The benchmark runs on a few cores of a shared host whose speed changes
by up to half within a second and whose average drifts by 20-35 % over
tens of seconds; that moves every pass of every workload alike. The loop
below does a fixed amount of the same kind of work the engine does
(Python bytecode around many small numpy calls) and uses nothing from
``reelsim``. ``SpeedSampler`` runs it at a fixed period while commands
run, so the loops sample the machine's speed evenly over the same time
the commands take, and keeps its own time out of the commands' time. A
mean time multiplied by ``REFERENCE_S / mean loop time`` is that time at
the reference speed: the machine's typical speed when the benchmark was
written. That product is what ``wall_s`` reports.

Importing is other work: it drifts by 16-28 % over tens of minutes
apart from the loop's speed. ``setup_s`` is scaled the same way by
``IMPORT_CODE`` instead, a fresh interpreter importing the libraries
``reelsim.cli`` spends most of its import in (numpy, scipy.special),
run next to each set-up interpreter.

    python3 bench/calibrate.py

prints the mean loop time of this machine now, to compare with
``REFERENCE_S``.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

STEPS = 4000
# One loop every PERIOD_S of wall time: about a tenth of the run.
PERIOD_S = 0.4

# Typical mean loop time on the reference machine (2 cores, Python 3.11.7,
# numpy 2.4.6; the run means in README.md lie between 32 and 41 ms).
REFERENCE_S = 0.038

IMPORT_CODE = """
import time
start = time.perf_counter()
import numpy, scipy.special
print(time.perf_counter() - start)
"""
# Typical IMPORT_CODE time on the reference machine (scipy 1.17.1).
IMPORT_REFERENCE_S = 0.48


def _work() -> float:
    matrix = np.full((3, 3), 0.05) + np.eye(3) * 0.8
    vector = np.full(3, 0.5)
    table: dict[int, float] = {}
    total = 0.0
    for step in range(STEPS):
        vector = np.clip(matrix @ vector + 0.01, 0.0, 1.0)
        total += float(vector.sum())
        table[step % 97] = table.get(step % 97, 0.0) + total
    return total


def loop_s() -> float:
    """Seconds one run of the fixed loop takes now."""
    start = perf_counter()
    _work()
    return perf_counter() - start


def to_reference(seconds: float, measured_s: float, reference_s: float = REFERENCE_S) -> float:
    """A time measured while the calibration (by default the loop) took
    measured_s, at the speed where it takes reference_s."""
    return seconds * reference_s / measured_s


class SpeedSampler:
    """While entered, runs the loop every PERIOD_S from a SIGALRM handler
    (between bytecodes of the main thread) and records each loop's time.
    ``clock`` is ``perf_counter`` less the time spent in the handler, so
    intervals measured with it leave the sampling out."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.loops: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def clock(self) -> float:
        while True:
            spent = self.spent
            now = perf_counter()
            if spent == self.spent:  # no handler ran in between
                return now - spent

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        try:
            self.loops.append(loop_s())
        finally:
            self.spent += perf_counter() - start
            self._busy = False

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s / 2, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


if __name__ == "__main__":
    loop_s()
    print(f"{statistics.mean(loop_s() for _ in range(50)):.5f} s (reference {REFERENCE_S} s)")
