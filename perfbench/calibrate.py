"""Fixed reference work that measures how fast the host runs Python now.

On a shared host the same code can take twice as long from one second to
the next.  Each iteration times this work right after set-up, and samples
it every ``SAMPLE_EVERY_S`` of wall time while the verdict runs, in the
iteration's own process; ``run.py`` scales the program's times by it.  The
work uses only the standard library and the arithmetic the package leans
on (``Fraction`` pairs in a ``__slots__`` class, tuple hashing, dict
updates), so it slows with the host the way the program does, but no
change to the package can make it faster or slower.  The collector is off
while it runs, so the number of objects the package keeps alive does not
change its time.
"""
from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# Steps of the set-up calibration: about 0.1 s on an unloaded core of a
# 2-core x86-64 host with CPython 3.11.
STEPS = 1500
# Steps of one sample taken while the verdict runs, and the wall time
# between the end of one sample and the start of the next.
SAMPLE_STEPS = 40
SAMPLE_EVERY_S = 0.05


class _Pair:
    """a + b*w with w*w = w - 1, the shape of the package's hot objects."""

    __slots__ = ("a", "b")

    def __init__(self, a, b) -> None:
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __mul__(self, o: "_Pair") -> "_Pair":
        a, b, c, d = self.a, self.b, o.a, o.b
        return _Pair(a * c - b * d, a * d + b * c + b * d)

    def __add__(self, o: "_Pair") -> "_Pair":
        return _Pair(self.a + o.a, self.b + o.b)

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __eq__(self, o: object) -> bool:
        return isinstance(o, _Pair) and self.a == o.a and self.b == o.b


def calibrate(steps: int = STEPS) -> float:
    """Seconds per step of the fixed reference work, timed now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        seen = {}
        x = _Pair(Fraction(1, 3), Fraction(2, 5))
        for i in range(steps):
            y = _Pair(Fraction(i % 7 + 1, i % 5 + 2), i % 3)
            x = x * y + y
            x = _Pair(x.a.limit_denominator(1000),
                      x.b.limit_denominator(1000))
            seen[x] = seen.get(x, 0) + 1
            seen[tuple(sorted((i * 31 + k) % 97 for k in range(12)))] = i
        return (time.perf_counter() - start) / steps
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Samples the reference work from a SIGALRM handler while code runs.

    Samples are evenly spaced in wall time, so their mean follows the
    host's average slowness over the interval, which is what the wall time
    of the code between them pays.  ``busy_s`` is the time the samples
    took, for the caller to subtract.
    """

    def __init__(self) -> None:
        self.samples = []
        self.busy_s = 0.0
        self._running = False

    def _tick(self, _signum, _frame) -> None:
        if not self._running:
            return
        start = time.perf_counter()
        self.samples.append(calibrate(SAMPLE_STEPS))
        self.busy_s += time.perf_counter() - start
        # One-shot timer armed after each sample, so samples never nest.
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def start(self) -> None:
        self._running = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def stop(self) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
