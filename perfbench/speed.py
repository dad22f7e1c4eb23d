"""Scale measured times to a reference speed of the machine.

On a shared machine the same code can run up to 1.9 times slower from one
moment to the next, with the slow share drifting over minutes, so raw wall
time differs by a quarter between runs of identical work.  `SpeedProbe` samples
the machine's speed while an operation runs, from the same thread: every
20 ms SIGALRM interrupts the operation and times a fixed probe kernel,
written in the same style as the code the workload spends its time in.  The
probe's own time is taken out of the operation's, and the operation's time
is scaled by REFERENCE_S over the probe's mean time, i.e. to what it would
have taken had the probe kernel run at REFERENCE_S throughout.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

INTERVAL_S = 0.02
# a probe kernel's time on the reference machine (2-core Xeon VM; see
# README.md) in the slower of its two speeds, the more common one
REFERENCE_S = 3.0e-4

_X = np.linspace(0.0, 1.0, 32)
_GRID = np.linspace(0.0, 1.0, 4096)
_XS = np.linspace(0.0, 1.0, 512)
_YS = _XS * _XS


def _loops(n: int) -> float:
    acc, bins = 0.0, {}
    for i in range(n):
        bins[i % 7] = bins.get(i % 7, 0.0) + float(_X[i % 32])
        acc += math.sqrt(i) + float((_X * (i % 5) + 0.5).sum())
    return acc + sum(bins.values())


def _passes(n: int) -> float:
    acc = 0.0
    for i in range(n):
        t = _GRID * (i + 1) + 0.5
        acc += float(np.interp(t * 0.5, _XS, _YS).sum()) + float((t * t).min())
    return acc


def kernel(numpy_share: float):
    """A probe kernel of about 0.2-0.35 ms in the style of a workload's code.

    numpy_share of its time goes to numpy passes over 4096-element arrays,
    the rest to interpreted loops over dicts, floats and small arrays.  The
    loops run about 1.9x slower in the slow state, the passes about 1.5x;
    the share matches how strongly the workload's own code slows down.
    """
    loops, passes = round(60 * (1.0 - numpy_share)), round(6 * numpy_share)
    return lambda: _loops(loops) + _passes(passes)


class SpeedProbe:
    def __init__(self, kernel):
        self._kernel = kernel  # from kernel(numpy_share)
        self._samples: list[float] = []
        self._spent = 0.0

    def _sample(self, *_):
        t = time.perf_counter()
        self._kernel()
        d = time.perf_counter() - t
        self._samples.append(d)
        self._spent += d

    def measure(self, fn):
        """Call fn(); returns (its result, raw seconds, seconds at reference speed).

        Raw seconds exclude the probe's own time.
        """
        n0, spent0 = len(self._samples), self._spent
        previous = signal.signal(signal.SIGALRM, self._sample)
        t = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            elapsed = time.perf_counter() - t
            signal.signal(signal.SIGALRM, previous)
        raw = elapsed - (self._spent - spent0)
        if len(self._samples) == n0:  # shorter than one interval
            self._sample()
        during = self._samples[n0:]
        return result, raw, raw * REFERENCE_S / (sum(during) / len(during))
