"""Host-speed calibration: the time metrics are scaled to a reference speed.

The benchmark's host is a shared VM whose effective CPU speed drifts by
±20% in phases of seconds to minutes; process time follows wall time and no
steal time is recorded, so the drift is in the speed of the CPU, not in
time spent off it.  Medians within a run do not remove a drift that lasts
the whole run.  So, while it measures, a process samples the host's speed:
a SIGALRM handler runs a short fixed kernel, written here and using no
qcartan code, every SAMPLE_EVERY_S seconds of wall time, and records how
long it took.  An interval's time is then

    raw_s    = elapsed_s - time spent in samples inside the interval
    scaled_s = raw_s * REF_KERNEL_S / (mean kernel time of the samples
               taken from WINDOW_S before the interval to WINDOW_S after)

The scaled time is the time the work would take on a host where the kernel
takes REF_KERNEL_S.  A change to the program changes raw_s and not the
kernel's time, so it shows in the scaled time in full.  Sampling inside an
operation, not only between operations, matters for the cold workloads:
one AIII n = 5 operation lasts about 10 s, and the speed at its two ends
said little about the speed in between.

The kernel does what the engine's inner loops do: integer-polynomial
products on tuples, content gcds, Fraction sums, and dict lookups keyed by
tuples over a table of 30,000 entries, so that its speed follows the
engine's when neighbours compete for caches.  A 25 ms version of it, run
between product rounds and AIII n = 4 operations for four to five minutes,
brought the spread (Q3 - Q1)/median of 30-second window medians from
0.25-0.37 raw to 0.04-0.08 scaled; a Fraction-only kernel reached 0.09.

The handler adds a few frames to whatever the engine is doing; if that
meets the recursion limit, the sample is dropped and the engine is not
disturbed.
"""

from __future__ import annotations

import signal
from bisect import bisect_left
from fractions import Fraction
from math import gcd
from time import perf_counter

SAMPLE_EVERY_S = 0.1
SAMPLE_SIZE = 300           # kernel steps per sample, about 3 ms here
WINDOW_S = 0.5
# the kernel's median time per sample on the reference host, a 2-vCPU
# Linux VM with Python 3.11.7, so that scaled times read about as raw ones
REF_KERNEL_S = 0.003

_TABLE = {(i % 7, i % 11, i % 13, i): (i % 5 + 1, i % 3 - 1, 1)
          for i in range(30000)}
_KEYS = list(_TABLE)


def _pmul(a: tuple, b: tuple) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _primitive(a: tuple) -> tuple:
    g = 0
    for c in a:
        g = gcd(g, c)
    return tuple(c // g for c in a) if g > 1 else a


def kernel():
    """Fixed work, the same on every call."""
    acc = {}
    x = 12345
    f = Fraction(0)
    for n in range(SAMPLE_SIZE):
        x = (1103515245 * x + 12345) & 0x7fffffff
        key = _KEYS[x % len(_KEYS)]
        other = _KEYS[(x >> 7) % len(_KEYS)]
        r = _primitive(_pmul(_TABLE[key], _TABLE[other]))
        k = (key[0], other[1], n % 17)
        old = acc.get(k)
        acc[k] = r if old is None else _primitive(
            tuple(a + b for a, b in zip(old, r)) + old[len(r):])
        f = Fraction(r[0], r[-1] or 1) + Fraction(n + 1, 7)
    return len(acc), f


class Sampler:
    """Samples of the kernel's time, taken from a SIGALRM handler while the
    sampler is entered as a context manager (main thread only)."""

    def __init__(self):
        self.at, self.took = [], []

    def _sample(self, signum, frame):
        try:
            t0 = perf_counter()
            kernel()
            t1 = perf_counter()
        except RecursionError:
            return
        self.at.append(t0)
        self.took.append(t1 - t0)

    def __enter__(self):
        for _ in range(20):           # warm-up, not recorded
            kernel()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def _span(self, t0: float, t1: float) -> slice:
        return slice(bisect_left(self.at, t0), bisect_left(self.at, t1))

    def own_s(self, t0: float, t1: float) -> float:
        """Time the samples took inside [t0, t1)."""
        return sum(self.took[self._span(t0, t1)])

    def raw_s(self, t0: float, t1: float) -> float:
        """Elapsed time of [t0, t1) without the samples inside it."""
        return t1 - t0 - self.own_s(t0, t1)

    def factor(self, t0: float, t1: float) -> float:
        """REF_KERNEL_S over the mean kernel time of the samples from
        WINDOW_S before t0 to WINDOW_S after t1, or of the nearest sample
        if there is none."""
        if not self.at:
            raise ValueError("no speed samples")
        took = self.took[self._span(t0 - WINDOW_S, t1 + WINDOW_S)]
        if not took:
            i = min(bisect_left(self.at, t0), len(self.at) - 1)
            took = [self.took[i]]
        return REF_KERNEL_S * len(took) / sum(took)

    def scaled_s(self, t0: float, t1: float) -> float:
        return self.raw_s(t0, t1) * self.factor(t0, t1)
