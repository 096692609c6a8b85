"""Machine-speed calibration for the timings.

The shared machine switches between speed regimes that differ by up to
about 1.4x and last from seconds to a minute, longer than one run, so
repetition alone cannot make two runs agree.  Each timed interval is
therefore divided by the current speed factor: the time of a fixed blend
of kernels (interpreter loop, `Fraction` arithmetic, object allocation,
numpy on small arrays and on large arrays: the kinds of code the package
runs) relative to its time at the reference speed.  The kernels are the benchmark's own
code, so a change to `shrinktargets` cannot move them.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

import numpy as np

_RNG = np.random.default_rng(12345)
_BIG = _RNG.random(100_000)
_SMALL = _RNG.random(64) + 0.1


def _python():
    d, s = {}, 0
    for i in range(12_000):
        s += (i * i) % 7
        d[i & 255] = s
    return s


def _fraction():
    x = Fraction(0)
    for k in range(1, 170):
        x = 1 / (k % 5 + 1 + x) + Fraction(1, k)
    return x


def _numpy_small():
    x = _SMALL.copy()
    z = np.exp(2j * np.pi * x)
    for _ in range(150):
        x = 1.0 / x
        x = x - np.floor(x) + 0.1
        z = z * (z - 0.5) / (1 - 0.5 * z)
    return x, z


def _alloc():
    xs = [(i, i * 0.5) for i in range(7_500)]
    return sum(a for a, _ in xs)


def _numpy_big():
    a = _BIG
    for _ in range(3):
        a = np.sqrt(a + 1.0)
    return a


# kernel -> its seconds at the reference speed (2-core Xeon, fast regime)
KERNELS = ((_python, 0.0020), (_fraction, 0.0018), (_alloc, 0.00215),
           (_numpy_small, 0.00175), (_numpy_big, 0.0022))


def speed_factor() -> float:
    """Current slowdown against the reference speed (1.0 = reference).

    Each kernel runs twice and the second, warm run is timed, so the
    caches the measured code left behind do not count.
    """
    total = 0.0
    for kernel, ref in KERNELS:
        kernel()
        t0 = time.perf_counter()
        kernel()
        total += (time.perf_counter() - t0) / ref
    return total / len(KERNELS)


class Clock:
    """Speed factor sampled every `every` seconds of wall time.

    While the clock is entered, a timer signal samples `speed_factor` in
    the middle of whatever runs, so a long operation is calibrated across
    regime switches inside it.  `scaled(start, end)` is the work done in
    that interval at the reference speed: the time spent sampling is taken
    out, and each piece of the rest is divided by the factor interpolated
    linearly between the samples around it.
    """

    def __init__(self, every: float = 0.2):
        self.every = every
        self.points = []         # (time, factor)
        self.pauses = []         # (start, end) of each sample
        self._busy = False

    def sample(self, *_signal_args):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            f = speed_factor()
            t1 = time.perf_counter()
            self.points.append(((t0 + t1) / 2, f))
            self.pauses.append((t0, t1))
        finally:
            self._busy = False

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def factor_at(self, t: float) -> float:
        pts = self.points
        i = bisect.bisect_left(pts, (t,))
        if i == 0:
            return pts[0][1]
        if i == len(pts):
            return pts[-1][1]
        (ta, fa), (tb, fb) = pts[i - 1], pts[i]
        return fa + (fb - fa) * (t - ta) / (tb - ta)

    def work(self, start: float, end: float) -> list:
        """Pieces of [start, end] not spent sampling."""
        pieces, lo = [], start
        for p0, p1 in self.pauses:
            if p1 <= lo or p0 >= end:
                continue
            if p0 > lo:
                pieces.append((lo, p0))
            lo = max(lo, p1)
        if lo < end:
            pieces.append((lo, end))
        return pieces

    def raw(self, start: float, end: float) -> float:
        return sum(b - a for a, b in self.work(start, end))

    def scaled(self, start: float, end: float) -> float:
        total = 0.0
        cuts = [t for t, _ in self.points]
        for a, b in self.work(start, end):
            inner = cuts[bisect.bisect_right(cuts, a):bisect.bisect_left(cuts, b)]
            edges = [a, *inner, b]
            for x, y in zip(edges, edges[1:]):
                total += (y - x) / self.factor_at((x + y) / 2)
        return total
