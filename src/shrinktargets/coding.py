"""Symbolic itineraries and exact cylinder intervals.

A depth-n cylinder is the set of points whose first n+1 digits agree with a
given word.  One PrefixWalk yields the cylinders of every prefix of a word,
adding one factor per digit, and every cylinder in the package comes from
such a walk.  Endpoints are exact rationals at every depth for the D-ary,
Markov and Gauss maps; Blaschke endpoints are floats, marked inexact.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, cycle, islice
from typing import Optional, Sequence

from .maps import MAP_KINDS, BoundaryHit, InadmissibleDigit, MapError, MapModel
from .schema import check


@dataclass(frozen=True)
class Cylinder:
    word: tuple
    left: Fraction
    right: Fraction
    exact: bool = True
    precision_bits: Optional[int] = None

    @property
    def length(self) -> Fraction:
        return self.right - self.left


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

    It reads each digit once and checks it against the digit before with one
    call of the map's branch, which on an exact map also gives the inverse
    branch onto the digit's block as an integer matrix (a, b, c, d) of
    y -> (a*y + b)/(c*y + d): (B L, A L, 0, L) for an affine branch A + B*y,
    restricted to that block so that a block endpoint never selects its
    neighbour's branch; (0, 1, 1, a) for the Gauss branch 1/(a + y), so
    p_t = a_t p_{t-1} + p_{t-2} and the same for q_t.  P(t) is the image of
    digit t's block under the branches of digits 1..t, asked again and
    composed only for the depths asked.  Blaschke maps have no exact branch
    and compose float inverse branches right-to-left per depth.

    Digits are read, endpoints computed and Cylinders built only on demand.
    A walk takes its depth-0 cylinder from cylinder_from_word, so a tracer
    on that function sees every walk; cylinder_from_word walks unseeded.
    """

    def __init__(self, m: MapModel, digits, seeded: bool = True):
        self.map = m
        self.word = []
        self.exact = m.exact
        self._next = iter(digits).__next__
        self._seeded = seeded
        self._mats = [(1, 0, 0, 1)]     # composed branches per depth, as far as asked
        self._ends = {}         # depth -> (left, right)
        self._failed = None

    def read(self, t: int) -> list:
        """The walk's word list, read and checked through digit t at least."""
        m, word, step = self.map, self.word, self._next
        if self._failed and len(word) <= t:
            raise self._failed
        prev = word[-1] if word else None
        while len(word) <= t:
            try:
                d = step()
                m.branch(prev, d)
                if prev is None and self._seeded:
                    c = cylinder_from_word(m, (d,))
                    self._ends[0] = (c.left, c.right)
            except (BoundaryHit, MapError) as e:
                self._failed = e    # the digit is spent: a shared walk fails alike again
                raise
            word.append(prev := d)
        return word

    def matrix(self, t: int):
        """The branches of digits 0..t composed, as an integer matrix
        (a, b, c, d), on first use; None without an exact walk."""
        mats, word, branch = self._mats, self.read(t), self.map.branch
        while self.exact and len(mats) <= t:
            e, f, g, h = branch(word[len(mats) - 1], word[len(mats)])
            a, b, c, k = mats[-1]
            mats.append((a * e + b * g, a * f + b * h, c * e + k * g, c * f + k * h))
        return mats[t] if self.exact else None

    def bounds(self, t: int):
        """(left, right) of the depth-t cylinder, computed once."""
        if t not in self._ends:
            mat = self.matrix(t)
            m, (lo, hi) = self.map, self.map.block_interval(self.word[t])
            if mat:
                a, b, c, d = mat
                lo, hi = sorted(Fraction(a * e.numerator + b * e.denominator,
                                         c * e.numerator + d * e.denominator) for e in (lo, hi))
            else:
                for d in reversed(self.word[:t]):
                    a, b = m.inverse_branch(d, lo), m.inverse_branch(d, hi)
                    lo, hi = (a, b) if a <= b else (b, a)
                lo, hi = Fraction(float(lo)), Fraction(float(hi))
            self._ends[t] = lo, hi
        return self._ends[t]

    def digits(self, n: int) -> tuple:
        return tuple(self.read(n)[:n + 1])

    def cylinder(self, t: int) -> Cylinder:
        lo, hi = self.bounds(t)
        return Cylinder(tuple(self.word[:t + 1]), lo, hi, exact=self.exact,
                        precision_bits=None if self.exact else 53)


def _digit(d) -> int:
    """A caller's digit as a Python int, so that branches compose exactly."""
    try:
        return operator.index(d)
    except TypeError:
        raise InadmissibleDigit(f"digit {d!r} is not an integer") from None


def _word(digits) -> tuple:
    """A caller's digit word as Python ints; MapError if it is empty."""
    if not (word := tuple(map(_digit, digits))):
        raise MapError("empty word")
    return word


def cylinder_from_word(m: MapModel, word: Sequence[int]) -> Cylinder:
    """Exact interval of the cylinder with the given digit word."""
    word = _word(word)
    return PrefixWalk(m, word, seeded=False).cylinder(len(word) - 1)


def locate_cylinder(m: MapModel, x, n: int) -> Cylinder:
    """P(n, x): the depth-n cylinder of x; MapError if it misses x's exact value, where known."""
    target = Target.of(m, x)
    cyl, (lo, hi) = target.walk().cylinder(n), target.bracket(n)
    if not cyl.left <= lo <= hi <= cyl.right:
        raise MapError(f"P({n}) = [{float(cyl.left)}, {float(cyl.right)}] misses x = {x}")
    return cyl


def period_matrix(m: MapModel, period_word: Sequence[int]):
    """Integer matrix (a, b, c, d) of one period's inverse branches composed,
    y -> (a*y + b)/(c*y + d), walked over w + w[:1] so that they close around
    the period (InadmissibleDigit if they do not); None without an exact walk."""
    w = _word(period_word)
    return PrefixWalk(m, w + w[:1], seeded=False).matrix(len(w))


def periodic_point(m: MapModel, period_word: Sequence[int]):
    """Exact point whose itinerary repeats the given word, for maps with
    affine branches (DAryShift, MarkovLinear): the fixed point x = (a*x + b)/d
    of the period's composed branches (period_matrix)."""
    if not hasattr(m, "M"):
        raise MapError(f"periodic points need affine branches, not {m.kind}")
    a, b, _, d = period_matrix(m, period_word)
    return Fraction(b, d - a)


class Target:
    """A target x_0: a point, or a digit word whose point may be irrational.

    It holds its map, one prefix walk over its digits and the exact value when
    one is known.  The digits are a finite word repeated periodically (its
    alphabet checked when built; with affine branches its point is the exact
    periodic point), a digit function k -> i_k, or the itinerary of a given
    point, read lazily through orbit_digits.  A given point, a float included,
    is its own exact value, and its digits are those of that value (a float on
    a circle map steps in floats).  The period word is kept as ``word`` (None
    for the other targets).  The walk, shared by every caller, is the one
    reader of the digits: it checks them and gives the cylinders and brackets.
    """

    def __init__(self, m: MapModel, digits=None, value=None):
        self.map = m
        self.word = None
        if callable(digits):
            digits = map(_digit, map(digits, count()))
        elif digits is not None:
            word = self.word = _word(digits)
            for d in dict.fromkeys(word):
                m.block_interval(d)     # InadmissibleDigit outside the alphabet
            digits = cycle(word)
            if hasattr(m, "M"):
                try:
                    value = periodic_point(m, word)
                except MapError:
                    pass  # the word does not close into an admissible cycle
        else:
            check(MAP_KINDS[m.kind][3], value, "x0", m.kind, MapError)     # its map's domain
            digits = orbit_digits(m, value if m.circle else Fraction(value))
        self.value = value
        self._walk = PrefixWalk(m, digits)
        self._point = None if value is None else (Fraction(value),) * 2

    @classmethod
    def from_point(cls, m: MapModel, x0) -> "Target":
        return cls(m, value=x0)

    @classmethod
    def from_word(cls, m: MapModel, digits) -> "Target":
        return cls(m, digits)

    @classmethod
    def of(cls, m: MapModel, target) -> "Target":
        """target itself, or the target of a digit word (tuple, list, 1-D array) or point."""
        if isinstance(target, Target):
            return target
        word = isinstance(target, (tuple, list)) or getattr(target, "ndim", 0) == 1
        return cls(m, target) if word else cls(m, value=getattr(target, "item", lambda: target)())

    def digits(self, n: int) -> tuple:
        """(i_0, ..., i_n), read once and checked by the target's walk."""
        return self._walk.digits(n)

    def walk(self) -> PrefixWalk:
        return self._walk

    def bracket(self, n: int):
        """Exact [lo, hi] about x_0: (value, value) when the value is known,
        else the depth-n cylinder."""
        return self._walk.bounds(n) if self._point is None else self._point

    def float_value(self) -> float:
        lo, hi = self.bracket(80 if hasattr(self.map, "M") else 40)
        return float((lo + hi) / 2)


# Former names of the one target class.
TargetPoint = WordTarget = Target


EXACT_READ = 192        # the most depths past its first that ball_holds reads


def ball_holds(point, centre, r, depth: int) -> bool:
    """Whether a point lies in the closed ball of radius r about a centre.

    point(k) and centre(k) are exact brackets [lo, hi] of the two, nested in
    k.  "Inside" must hold for every position of the centre in its bracket
    and "outside" for every position of the point in its bracket.  The test
    reads depths depth, depth + 8, ..., depth + EXACT_READ until one certifies
    the verdict, and raises RuntimeError if none does.
    """
    for k in range(depth, depth + EXACT_READ + 1, 8):
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
    when r >= rho(t) = max(right - x0, x0 - left).  Each depth keeps, as
    integer pairs, the bracket [rho_lo, rho_hi] of rho(t) over x0's depth
    t + 8 bracket, one value when x0's value is known.  A radius, converted
    once, fits by cross-multiplication if r >= rho_hi and not if r < rho_lo;
    in the gap ball_holds asks if x0 is in B(midpoint, r - (right - left)/2).
    Non-increasing radii give non-decreasing depths, which the scan exploits.
    It raises MapError at a float (Blaschke) cylinder that is empty or leaves
    the one before it by more than the map's NEWTON_TOL, its float error.
    """
    target = Target.of(m, x0)
    walk = target.walk()
    bounds = walk.bounds
    if not walk.exact:
        def bounds(t):
            (lo, hi), (left, right) = walk.bounds(max(t - 1, 0)), walk.bounds(t)
            if not lo - m.NEWTON_TOL <= left < right <= hi + m.NEWTON_TOL:
                raise MapError(f"float cylinder P({t}) is empty or not nested in P({t - 1})")
            return left, right
    reach = []      # depth t -> (rho_lo, rho_hi) of P(t) as numerator, denominator pairs

    def fits(t, rn, rd):
        if t == len(reach):
            (left, right), (lo, hi) = bounds(t), target.bracket(t + 8)
            reach.append(max(right - hi, lo - left).as_integer_ratio()
                         + max(right - lo, hi - left).as_integer_ratio())
        lo_n, lo_d, hi_n, hi_d = reach[t]
        holds = rn * hi_d >= hi_n * rd         # r >= rho_hi
        if holds or rn * lo_d < lo_n * rd:      # or r < rho_lo
            return holds
        left, right = bounds(t)
        return ball_holds(target.bracket, lambda k: ((left + right) / 2,) * 2,
                          Fraction(rn, rd) - (right - left) / 2, t + 8)

    out, t, pn, pd = [], 0, 1, 0        # the radius before as pn/pd; 1/0 before the first
    for r in radii:
        rn, rd = (1 if r > 0 else -1, 1) if isinstance(r, float) and not math.isfinite(r) \
            else r.as_integer_ratio()   # inf fits as 1 does; -inf and nan never fit
        if rn >= rd or rn * pd > pn * rd:
            t = 0   # radii increased; restart the scan
        while rn < rd and not fits(t, rn, rd):
            if rn <= 0:     # no cylinder fits, and no depth would end the scan
                raise RuntimeError(f"refinement radius {r} is not positive")
            t += 1
            if t > 100000:
                raise RuntimeError("max refinement depth exceeded")
        out.append(t)
        pn, pd = rn, rd
    return out
