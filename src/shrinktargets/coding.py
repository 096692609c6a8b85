"""Symbolic itineraries and exact cylinder intervals.

A depth-n cylinder is the set of points whose first n+1 digits agree with a
given word.  One PrefixWalk yields the cylinders of every prefix of a word,
adding one factor per digit, and every cylinder in the package comes from
such a walk.  Endpoints are exact rationals for DAryShift, MarkovLinear and
GaussMap.  Gauss endpoints grow exponentially, so beyond depth
EXACT_DEPTH_CAP they are rounded to PRECISION_BITS bits and the cylinder is
marked inexact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from typing import Optional, Sequence

from .maps import BoundaryHit, GaussMap, InadmissibleDigit, MapError, MapModel

EXACT_DEPTH_CAP = 64
PRECISION_BITS = 256


@dataclass(frozen=True)
class Cylinder:
    word: tuple
    left: Fraction
    right: Fraction
    map_id: str
    exact: bool = True
    precision_bits: Optional[int] = None

    @property
    def depth(self) -> int:
        return len(self.word) - 1

    @property
    def length(self) -> Fraction:
        return self.right - self.left

    def to_json(self) -> dict:
        rec = {
            "word": list(self.word),
            "left": f"{self.left.numerator}/{self.left.denominator}",
            "right": f"{self.right.numerator}/{self.right.denominator}",
            "depth": self.depth,
        }
        if not self.exact:
            rec["precision_bits"] = self.precision_bits
        return rec

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def orbit_digits(m: MapModel, x):
    """Digits i_0, i_1, ... of x, one evaluate per digit read."""
    digs = []
    while True:
        try:
            digs.append(m.digit_of(x))
        except BoundaryHit as e:
            raise BoundaryHit(len(digs), tuple(digs), e.reason) from None
        yield digs[-1]
        x = m.evaluate(x)


def itinerary(m: MapModel, x, n: int):
    """Digits (i_0, ..., i_n) of x; raises BoundaryHit with the partial word."""
    return tuple(islice(orbit_digits(m, x), n + 1))


class PrefixWalk:
    """The cylinders P(0), P(1), ... of one digit sequence, one factor per digit.

    The state after t digits is the integer matrix (a, b, c, d) of the
    composed inverse branches y -> (a*y + b)/(c*y + d); P(t) is its image of
    the block of digit t.  A new digit multiplies in one branch: for affine
    maps A <- A + B*a, B <- B*b, the branch restricted to the next digit's
    block so that a block endpoint never selects its neighbour's branch; for
    the Gauss map the convergent recurrence p_t = a_t p_{t-1} + p_{t-2}, and
    the same for q_t (Khinchin).  Blaschke maps have no exact forward step
    and compose their float inverse branches right-to-left per depth.

    Digits are read, endpoints computed and Cylinders built only on demand.
    A walk takes its depth-0 cylinder from cylinder_from_word, so a tracer
    on that function sees every walk; cylinder_from_word walks unseeded.
    """

    def __init__(self, m: MapModel, digits, seeded: bool = True):
        self.map = m
        self.word = []
        self._next = iter(digits).__next__
        self._seeded = seeded
        self._exact = hasattr(m, "branch_affine") or isinstance(m, GaussMap)
        self._mats = []         # composed branches per depth
        self._ends = {}         # depth -> (left, right, precision bits or None)

    def _read(self, t: int):
        m, word = self.map, self.word
        while len(word) <= t:
            d = self._next()
            if not word:
                if self._seeded:
                    c = cylinder_from_word(m, (d,))
                    self._ends[0] = (c.left, c.right, c.precision_bits)
                self._mats.append((1, 0, 0, 1))
            elif not m.admissible(word[-1], d):
                raise InadmissibleDigit(
                    f"digit not admissible: transition {word[-1]}->{d} forbidden")
            elif self._exact:
                e, f, g, h = self._branch(word[-1], d)
                a, b, c, k = self._mats[-1]
                self._mats.append((a * e + b * g, a * f + b * h, c * e + k * g, c * f + k * h))
            word.append(d)

    def _branch(self, prev: int, d: int):
        """Integer matrix of the inverse branch from digit prev onto digit d's block."""
        if isinstance(self.map, GaussMap):
            return 0, 1, 1, prev
        self.map.block_interval(d)
        A, B = self.map.branch_affine(prev, d)
        L = math.lcm(A.denominator, B.denominator)
        return B.numerator * (L // B.denominator), A.numerator * (L // A.denominator), 0, L

    def _endpoints(self, t: int):
        """(left, right, precision bits or None) of P(t), computed once."""
        if t not in self._ends:
            self._read(t)
            m, (lo, hi) = self.map, self.map.block_interval(self.word[t])
            if self._exact:
                a, b, c, d = self._mats[t]
                lo, hi = sorted(Fraction(a * e.numerator + b * e.denominator,
                                         c * e.numerator + d * e.denominator) for e in (lo, hi))
                bits = PRECISION_BITS if isinstance(m, GaussMap) and t > EXACT_DEPTH_CAP else None
                if bits:
                    lo, hi = (Fraction(round(e * (1 << bits)), 1 << bits) for e in (lo, hi))
            else:
                for d in reversed(self.word[:t]):
                    a, b = m.inverse_branch(d, lo), m.inverse_branch(d, hi)
                    lo, hi = (a, b) if a <= b else (b, a)
                lo, hi, bits = Fraction(float(lo)), Fraction(float(hi)), 53
            self._ends[t] = lo, hi, bits
        return self._ends[t]

    def digits(self, n: int) -> tuple:
        self._read(n)
        return tuple(self.word[:n + 1])

    def bounds(self, t: int):
        """(left, right) of the depth-t cylinder."""
        return self._endpoints(t)[:2]

    def cylinder(self, t: int) -> Cylinder:
        lo, hi, bits = self._endpoints(t)
        return Cylinder(tuple(self.word[:t + 1]), lo, hi, self.map.key(),
                        exact=bits is None, precision_bits=bits)


def cylinder_from_word(m: MapModel, word: Sequence[int]) -> Cylinder:
    """Exact interval of the cylinder with the given digit word."""
    word = tuple(word)
    if not word:
        raise ValueError("empty word")
    return PrefixWalk(m, word, seeded=False).cylinder(len(word) - 1)


def prefix_walk(m: MapModel, x0) -> PrefixWalk:
    """The walk of a target that has one, or along the itinerary of a point."""
    return x0.walk() if hasattr(x0, "walk") else PrefixWalk(m, orbit_digits(m, x0))


def locate_cylinder(m: MapModel, x, n: int) -> Cylinder:
    """P(n, x): the depth-n cylinder containing x."""
    cyl = prefix_walk(m, x).cylinder(n)
    assert cyl.left <= x <= cyl.right
    return cyl


def periodic_point(m: MapModel, period_word: Sequence[int]):
    """Exact point whose itinerary repeats the given word.

    Only for maps with affine branches (DAryShift, MarkovLinear): walks
    w + w[:1], so the branches close around the period, and solves the
    fixed-point equation x = (a*x + b)/d of the composed branches.
    """
    w = tuple(period_word)
    if not hasattr(m, "branch_affine"):
        raise MapError(f"periodic points need affine branches, not {m.kind}")
    walk = PrefixWalk(m, w + w[:1], seeded=False)
    walk.digits(len(w))
    a, b, _, d = walk._mats[len(w)]
    return Fraction(b, d - a)


class WordTarget:
    """A target point x_0 known through its digit word (possibly irrational).

    Provides exact nested brackets [lo, hi] via cylinder endpoints, which is
    all the containment tests need.  A finite word repeats periodically; on
    a map with affine branches its point is then the exact rational
    ``value``.
    """

    def __init__(self, m: MapModel, digits, value=None):
        self.map = m
        if callable(digits):
            self._fn = digits
        else:
            seq = tuple(digits)
            self._fn = lambda k: seq[k % len(seq)]
            if value is None and hasattr(m, "branch_affine"):
                try:
                    value = periodic_point(m, seq)
                except (MapError, IndexError):
                    pass  # the word does not close into an admissible cycle
        self.value = value

    def digits(self, n: int) -> tuple:
        return tuple(self._fn(k) for k in range(n + 1))

    def walk(self) -> PrefixWalk:
        return PrefixWalk(self.map, map(self._fn, count()))

    def cylinder(self, n: int) -> Cylinder:
        return self.walk().cylinder(n)

    def bracket(self, n: int):
        return self.walk().bounds(n)


def refine_depth(m: MapModel, x0, r) -> int:
    """Smallest t with P(t, x0) inside the closed ball of radius r about x0."""
    return refine_schedule_to_depths(m, x0, (r,))[0]


def _bracketed_containment(walk: PrefixWalk, t: int, r) -> bool:
    """P(t, x0) inside the closed ball about the center bracketed by deeper
    cylinders of the same walk."""
    left, right = walk.bounds(t)
    for extra in range(t + 8, t + 201, 8):
        lo, hi = walk.bounds(extra)
        # certified yes: even the worst center position fits
        if hi - r <= left and right <= lo + r:
            return True
        # certified no: even the best center position fails
        if lo - r > left or right > hi + r:
            return False
    raise RuntimeError("containment test failed to resolve")


def refine_schedule_to_depths(m: MapModel, x0, radii) -> list:
    """Minimal depths t_k with P(t_k, x0) inside closed B(x0, r_k).

    ``x0`` may be an exact point or a WordTarget, and all radii share one
    prefix walk of it.  Containment is decided with exact endpoint
    comparisons; a word target with an exact rational value is compared
    against it, others have their (possibly irrational) center bracketed by
    deeper cylinders until the comparison is unambiguous.  (A rational
    center can sit exactly on a ball edge that is a cylinder endpoint, where
    no bracket separates the two.)  Non-increasing radii give
    non-decreasing depths, and the scan exploits that.
    """
    walk = prefix_walk(m, x0)
    center = x0.value if isinstance(x0, WordTarget) else x0
    if isinstance(x0, WordTarget) and not isinstance(center, (int, Fraction)):
        inside = lambda t, r: _bracketed_containment(walk, t, r)
    else:
        inside = lambda t, r: center - r <= walk.bounds(t)[0] and walk.bounds(t)[1] <= center + r

    out, t, prev_r = [], 0, None
    for r in radii:
        if r >= 1 or (prev_r is not None and r > prev_r):
            t = 0   # radii increased; restart the scan
        while r < 1 and not inside(t, r):
            t += 1
            if t > 100000:
                raise RuntimeError("max refinement depth exceeded")
        out.append(t)
        prev_r = r
    return out
