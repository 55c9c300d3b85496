"""The machine's speed, sampled on a timer while requests run.

The host this benchmark runs on is shared. Its speed changes for every
process alike, and not slowly: a fixed piece of work flips between two
speeds about 1.7x apart within seconds, and the share of time spent in
each changes from minute to minute. Process CPU time tracks wall time
through this, so it is the CPU that slows, not the scheduler that
withholds it.

A Sampler therefore times a fixed piece of work that calls no futurecone
code (``calibrate``) on a SIGALRM timer while requests run: in the same
thread, between the program's own bytecodes, once every TICK_S of time
spent in requests, counted across requests. A request's own time is
its wall time less the time spent in ticks. Times are scaled to
reference seconds by STEP_REF_S over the mean time per calibration
step, averaged as the program experiences it: the harmonic mean over
ticks, since work done per second is proportional to 1 / (time per
step). A reference second is one in which a calibration step takes
STEP_REF_S; a change to the program moves scaled times exactly as it
moves measured ones.
"""
from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# A tick times TICK_STEPS calibration steps (about 1 ms) every TICK_S.
TICK_STEPS = 40
TICK_S = 0.02
STEP_REF_S = 3e-5


def calibrate(steps: int) -> float:
    """Seconds per step of a fixed piece of work that uses no futurecone code.

    Small-array numpy calls and scalar math, like the program's own hot
    paths, so that it slows down with the machine as they do.
    """
    v = np.array([1.0, 2.0, 3.0])
    total = 0.0
    start = time.perf_counter()
    for i in range(steps):
        w = np.cross(v, v + i)
        total += float(np.linalg.norm(w)) + math.sin(i * 1e-3)
    return (time.perf_counter() - start) / steps


class Sampler:
    """Calibration ticks on a wall-clock timer, on only while armed."""

    def __init__(self) -> None:
        self.ticks: list[float] = []
        self.spent = 0.0
        self._previous = None
        # time left to the next tick when last disarmed, so that ticks
        # keep one pace over requests shorter than TICK_S
        self._left = TICK_S

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.ticks.append(calibrate(TICK_STEPS))
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self._left, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        self._left = signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)[0] or TICK_S
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, call):
        """Run call() with ticks on; return its result and its own time
        in seconds, which is its wall time less the ticks'."""
        spent = self.spent
        start = time.perf_counter()
        with self:
            result = call()
        elapsed = time.perf_counter() - start
        return result, elapsed - (self.spent - spent)


def scale(ticks: list[float]) -> float:
    """Reference seconds per measured second over these ticks."""
    return STEP_REF_S * statistics.fmean(1.0 / t for t in ticks)
