"""Symbolic itineraries and exact cylinder intervals.

A depth-n cylinder is the set of points whose first n+1 digits agree with a
given word; its interval is obtained by composing inverse branches
right-to-left onto the block of the last digit.  Endpoints are exact
rationals for DAryShift, MarkovLinear and GaussMap.  Gauss endpoints grow
exponentially, so beyond depth EXACT_DEPTH_CAP they are rounded to
PRECISION_BITS bits and the cylinder is marked inexact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
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

    def contains(self, x) -> bool:
        return self.left <= x <= self.right

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


def itinerary(m: MapModel, x, n: int):
    """Digits (i_0, ..., i_n) of x; raises BoundaryHit with the partial word."""
    digs = []
    pt = x
    for k in range(n + 1):
        try:
            digs.append(m.digit_of(pt))
        except BoundaryHit as e:
            raise BoundaryHit(k, tuple(digs), e.reason) from None
        if k < n:
            pt = m.evaluate(pt)
    return tuple(digs)


def _round_to_bits(x: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(round(x * scale), scale)


def _compose_branches(m: MapModel, pairs) -> tuple:
    """Exact (A, B) with G(y) = A + B*y, G the composition of the affine
    branches of the (digit, next digit) pairs, outermost first."""
    A, B = Fraction(0), Fraction(1)
    for d_from, d_to in reversed(pairs):
        a, b = m.branch_affine(d_from, d_to)
        A, B = a + b * A, b * B
    return A, B


def cylinder_from_word(m: MapModel, word: Sequence[int]) -> Cylinder:
    """Exact interval of the cylinder with the given digit word."""
    word = tuple(word)
    if not word:
        raise ValueError("empty word")
    for k in range(len(word) - 1):
        if not m.admissible(word[k], word[k + 1]):
            raise InadmissibleDigit(
                f"digit not admissible: transition {word[k]}->{word[k+1]} forbidden"
            )
    lo, hi = m.block_interval(word[-1])
    if hasattr(m, "branch_affine"):
        # each branch is restricted to the next digit's block, so a block
        # endpoint never selects the neighbouring block's branch
        A, B = _compose_branches(m, list(zip(word, word[1:])))
        lo, hi = A + B * lo, A + B * hi
    else:
        for d in reversed(word[:-1]):
            a, b = m.inverse_branch(d, lo), m.inverse_branch(d, hi)
            lo, hi = (a, b) if a <= b else (b, a)
    exact = isinstance(lo, (int, Fraction)) and isinstance(hi, (int, Fraction))
    if exact:
        lo, hi = Fraction(lo), Fraction(hi)
        if isinstance(m, GaussMap) and len(word) - 1 > EXACT_DEPTH_CAP:
            lo = _round_to_bits(lo, PRECISION_BITS)
            hi = _round_to_bits(hi, PRECISION_BITS)
            return Cylinder(word, lo, hi, m.key(), exact=False,
                            precision_bits=PRECISION_BITS)
    else:
        lo, hi = Fraction(float(lo)), Fraction(float(hi))
        return Cylinder(word, lo, hi, m.key(), exact=False, precision_bits=53)
    return Cylinder(word, lo, hi, m.key())


def locate_cylinder(m: MapModel, x, n: int) -> Cylinder:
    """P(n, x): the depth-n cylinder containing x."""
    cyl = cylinder_from_word(m, itinerary(m, x, n))
    assert cyl.left <= x <= cyl.right
    return cyl


def periodic_point(m: MapModel, period_word: Sequence[int]):
    """Exact point whose itinerary repeats the given word.

    Only for maps with affine branches (DAryShift, MarkovLinear): composes
    the branch inverses restricted to the correct target blocks (pairwise,
    wrapping around the period) and solves the affine fixed-point equation.
    """
    w = tuple(period_word)
    if not hasattr(m, "branch_affine"):
        raise MapError(f"periodic points need affine branches, not {m.kind}")
    A, B = _compose_branches(m, list(zip(w, w[1:] + w[:1])))
    return A / (1 - B)


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

    def cylinder(self, n: int) -> Cylinder:
        return cylinder_from_word(self.map, self.digits(n))

    def bracket(self, n: int):
        c = self.cylinder(n)
        return c.left, c.right


def _contained_in_ball(cyl: Cylinder, x0, r) -> bool:
    """Closed-interval containment P subset closed-ball(x0, r)."""
    return x0 - r <= cyl.left and cyl.right <= x0 + r


def refine_depth(m: MapModel, x0, r, start: int = 0, max_depth: int = 100000) -> int:
    """Smallest t with P(t, x0) inside the closed ball of radius r about x0.

    ``x0`` may be an exact point or a WordTarget.  Containment is decided
    with exact endpoint comparisons; a word target with an exact rational
    value is compared against it, others have their (possibly irrational)
    center bracketed by deeper cylinders until the comparison is
    unambiguous.  (A rational center can sit exactly on a ball edge that is
    a cylinder endpoint, where no bracket separates the two.)
    """
    if r >= 1:
        return 0
    if not isinstance(x0, WordTarget):
        inside = lambda t: _contained_in_ball(locate_cylinder(m, x0, t), x0, r)
    elif isinstance(x0.value, (int, Fraction)):
        inside = lambda t: _contained_in_ball(x0.cylinder(t), x0.value, r)
    else:
        inside = lambda t: _bracketed_containment(x0, t, r)
    for t in range(start, max_depth + 1):
        if inside(t):
            return t
    raise RuntimeError("max refinement depth exceeded")


def _bracketed_containment(x0: WordTarget, t: int, r) -> bool:
    """P(t, x0) inside the closed ball about the bracketed center of x0."""
    cyl = x0.cylinder(t)
    for extra in range(t + 8, t + 201, 8):
        lo, hi = x0.bracket(extra)
        # certified yes: even the worst center position fits
        if hi - r <= cyl.left and cyl.right <= lo + r:
            return True
        # certified no: even the best center position fails
        if lo - r > cyl.left or cyl.right > hi + r:
            return False
    raise RuntimeError("containment test failed to resolve")


def refine_schedule_to_depths(m: MapModel, x0, radii) -> list:
    """Minimal depths t_k with P(t_k, x0) inside closed B(x0, r_k).

    ``radii`` is any iterable of radii (non-increasing radii give
    non-decreasing depths, and the scan exploits that).
    """
    out = []
    t = 0
    prev_r = None
    for r in radii:
        if prev_r is not None and r > prev_r:
            t = 0  # radii increased; restart the scan
        t = refine_depth(m, x0, r, start=t)
        out.append(t)
        prev_r = r
    return out
