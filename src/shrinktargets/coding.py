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
from itertools import count, cycle, islice
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
        self._failed = None

    def _read(self, t: int):
        m, word = self.map, self.word
        while len(word) <= t:
            if self._failed:
                raise self._failed
            try:
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
            except (BoundaryHit, MapError) as e:
                self._failed = e    # the digit is spent: a shared walk fails alike again
                raise
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


def locate_cylinder(m: MapModel, x, n: int) -> Cylinder:
    """P(n, x): the depth-n cylinder containing x."""
    cyl = Target.of(m, x).walk().cylinder(n)
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


class Target:
    """A target x_0: a point, or a digit word whose point may be irrational.

    It holds its map, one digit source and the exact value when one is
    known.  The source is a finite word repeated periodically (on a map with
    affine branches its point is the exact periodic point), a digit function
    k -> i_k, or the itinerary of a given point, read lazily through
    orbit_digits.  A given point, a float included, is its own exact value.
    One prefix walk over the source, shared by every caller, gives the
    cylinders and the brackets of x_0.
    """

    def __init__(self, m: MapModel, digits=None, value=None):
        self.map = m
        if callable(digits):
            self._source = lambda: map(digits, count())
        elif digits is not None:
            word = tuple(digits)
            if not word:
                raise ValueError("empty target word")
            self._source = lambda: cycle(word)
            if value is None and hasattr(m, "branch_affine"):
                try:
                    value = periodic_point(m, word)
                except (MapError, IndexError):
                    pass  # the word does not close into an admissible cycle
        else:
            self._source = lambda: orbit_digits(m, value)
        self.value = value
        self._walk = PrefixWalk(m, self._source())
        self._point = None if value is None else (Fraction(value),) * 2

    @classmethod
    def from_point(cls, m: MapModel, x0) -> "Target":
        return cls(m, value=x0)

    @classmethod
    def from_word(cls, m: MapModel, digits, value=None) -> "Target":
        return cls(m, digits, value)

    @classmethod
    def of(cls, m: MapModel, target) -> "Target":
        """target itself, or the target of a digit word or of a point."""
        if isinstance(target, Target):
            return target
        return cls(m, target) if isinstance(target, (tuple, list)) else cls(m, value=target)

    def digits(self, n: int) -> tuple:
        """(i_0, ..., i_n), read afresh and not checked for admissibility."""
        return tuple(islice(self._source(), n + 1))

    def walk(self) -> PrefixWalk:
        return self._walk

    def bracket(self, n: int):
        """Exact [lo, hi] about x_0: (value, value) when the value is known,
        else the depth-n cylinder."""
        return self._walk.bounds(n) if self._point is None else self._point

    def float_value(self) -> float:
        lo, hi = self.bracket(80 if hasattr(self.map, "branch_affine") else 40)
        return float((lo + hi) / 2)


# Former names of the one target class.
TargetPoint = WordTarget = Target


def ball_holds(point, centre, r, depth: int) -> bool:
    """Whether a point lies in the closed ball of radius r about a centre.

    point(k) and centre(k) are exact brackets [lo, hi] of the two, nested in
    k.  "Inside" must hold for every position of the centre in its bracket
    and "outside" for every position of the point in its bracket.  The test
    reads depths depth, depth + 8, ..., depth + 192 until one certifies the
    verdict, and raises RuntimeError if none does.
    """
    for k in range(depth, depth + 193, 8):
        lo, hi = point(k)
        c_lo, c_hi = centre(k)
        if c_hi - r <= lo and hi <= c_lo + r:
            return True
        if hi < c_lo - r or lo > c_hi + r:
            return False
    raise RuntimeError("ball test failed to resolve")


def refine_depth(m: MapModel, x0, r) -> int:
    """Smallest t with P(t, x0) inside the closed ball of radius r about x0."""
    return refine_schedule_to_depths(m, x0, (r,))[0]


def refine_schedule_to_depths(m: MapModel, x0, radii) -> list:
    """Minimal depths t_k with P(t_k, x0) inside closed B(x0, r_k).

    ``x0`` is a point, a digit word or a Target, and all radii share the
    target's one prefix walk.  P(t) = [left, right] lies in B(x0, r) exactly
    when x0 lies in the closed ball of radius r - (right - left)/2 about the
    cylinder's midpoint, which ball_holds decides against the brackets of
    x0.  (A rational center can sit exactly on a ball edge that is a
    cylinder endpoint, where only its exact value decides.)  Non-increasing
    radii give non-decreasing depths, and the scan exploits that.
    """
    target = Target.of(m, x0)
    balls = {}      # t -> (midpoint, half length) of P(t)

    def inside(t, r):
        if t not in balls:
            left, right = target.walk().bounds(t)
            balls[t] = (left + right) / 2, (right - left) / 2
        mid, half = balls[t]
        return ball_holds(target.bracket, lambda k: (mid, mid), r - half, t + 8)

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
