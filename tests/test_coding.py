import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinktargets import (
    BlaschkeBoundary,
    BoundaryHit,
    Cylinder,
    DAryShift,
    GaussMap,
    InadmissibleDigit,
    WordTarget,
    cylinder_from_word,
    itinerary,
    locate_cylinder,
    periodic_point,
    refine_depth,
    refine_schedule_to_depths,
)
from shrinktargets.coding import EXACT_DEPTH_CAP, PRECISION_BITS, PrefixWalk, ball_holds


class TestItinerary:
    def test_binary_expansion_of_third(self, dary2):
        assert itinerary(dary2, F(1, 3), 4) == (0, 1, 0, 1, 0)

    def test_golden_mean_cf(self, gauss):
        # (sqrt(5)-1)/2 has all-ones continued fraction; use a deep rational
        # convergent so the first digits are exact
        x = F(6765, 10946)  # F_20/F_21
        assert itinerary(gauss, x, 3) == (1, 1, 1, 1)

    def test_decimal_digits(self):
        assert itinerary(DAryShift(10), F(1, 8), 2) == (1, 2, 5)

    def test_boundary_convention_quarter(self, dary2):
        # half-open blocks make the itinerary of 1/4 well defined
        assert itinerary(dary2, F(1, 4), 3) == (0, 1, 0, 0)

    def test_partial_on_rational_gauss(self, gauss):
        with pytest.raises(BoundaryHit) as ei:
            itinerary(gauss, F(2, 5), 5)
        assert ei.value.partial == (2, 2)
        assert ei.value.step == 2

    def test_markov_chain_digits(self, markov):
        word = itinerary(markov, F(17, 64), 6)
        assert all(markov.M[a][b] > 0 for a, b in zip(word, word[1:]))


class TestCylinderFromWord:
    def test_dyadic(self, dary2):
        c = cylinder_from_word(dary2, (0, 1))
        assert (c.left, c.right, c.length) == (F(1, 4), F(1, 2), F(1, 4))

    def test_gauss_ones(self, gauss):
        c = cylinder_from_word(gauss, (1, 1, 1))
        assert {c.left, c.right} == {F(3, 5), F(2, 3)}
        assert c.length == F(1, 15)
        # CF sandwich: 1/64 <= 1/15 <= 1
        assert F(1, 64) <= c.length <= 1

    def test_forbidden_word(self, golden_markov):
        with pytest.raises(InadmissibleDigit, match="1->1"):
            cylinder_from_word(golden_markov, (0, 1, 1))

    @pytest.mark.parametrize("word,left,right", [
        ((1, 0), F(2, 3), F(1)),
        ((0, 1, 0), F(1, 3), F(2, 3)),
        ((1, 0, 1), F(5, 6), F(1)),
        ((0, 0, 1), F(1, 6), F(1, 3)),
    ])
    def test_golden_mean_words(self, golden_markov, word, left, right):
        # admissible words whose branches end on a block's right endpoint
        c = cylinder_from_word(golden_markov, word)
        assert (c.left, c.right) == (left, right)

    def test_locate_dyadic(self, dary2):
        c = locate_cylinder(dary2, 0.3, 1)
        assert c.word == (0, 1) and (c.left, c.right) == (F(1, 4), F(1, 2))

    def test_locate_gauss_rational(self, gauss):
        c = locate_cylinder(gauss, F(2, 5), 1)
        assert c.word == (2, 2)
        assert c == cylinder_from_word(gauss, (2, 2))

    def test_serialization(self, dary2):
        c = cylinder_from_word(dary2, (0, 1))
        rec = json.loads(c.dumps())
        assert rec == {"word": [0, 1], "left": "1/4", "right": "1/2", "depth": 1}

    def test_gauss_depth_cap_metadata(self, gauss):
        word = tuple([1, 2] * 40)[:EXACT_DEPTH_CAP + 4]
        c = cylinder_from_word(gauss, word)
        assert not c.exact and c.precision_bits == 256
        shallow = cylinder_from_word(gauss, word[:40])
        assert shallow.exact


class TestPartitionStructure:
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_tiling_exact(self, markov, depth):
        # admissible depth-n cylinders tile [0,1) with total length 1
        words = [(d,) for d in range(markov.D)]
        for _ in range(depth):
            words = [w + (d,) for w in words for d in range(markov.D)
                     if markov.M[w[-1]][d] > 0]
        cyls = sorted((cylinder_from_word(markov, w) for w in words),
                      key=lambda c: c.left)
        assert sum(c.length for c in cyls) == 1
        assert cyls[0].left == 0 and cyls[-1].right == 1
        for a, b in zip(cyls, cyls[1:]):
            assert a.right == b.left

    def test_nesting(self, dary2, gauss):
        for m, word in ((dary2, (0, 1, 1)), (gauss, (2, 1, 3))):
            parent = cylinder_from_word(m, word)
            for d in (1, 2) if m is gauss else (0, 1):
                child = cylinder_from_word(m, word + (d,))
                assert parent.left <= child.left and child.right <= parent.right

    @pytest.mark.parametrize("depth", range(1, 11))
    def test_shift_action(self, dary2, gauss, depth):
        # T(P(n, x)) = P(n-1, T(x)): pulling the shifted cylinder back
        # through the leading branch recovers the cylinder, exactly
        for m, digits in ((dary2, (0, 1)), (gauss, (2, 1, 3))):
            word = tuple(digits[i % len(digits)] for i in range(depth + 1))
            child = cylinder_from_word(m, word)
            shifted = cylinder_from_word(m, word[1:])
            back = sorted([m.inverse_branch(word[0], shifted.left),
                           m.inverse_branch(word[0], shifted.right)])
            assert back == sorted([child.left, child.right])

    def test_contraction_fit(self, dary2, markov, gauss):
        # log diam P(n,x) <= log C - n log beta for a fitted C
        rng = np.random.default_rng(3)
        for m in (dary2, markov, gauss):
            logbeta = math.log(m.expansion_beta)
            xs = [F(int(v * 10 ** 9), 10 ** 9) for v in rng.random(5)]
            margins = []
            for x in xs:
                for n in range(1, 31):
                    try:
                        c = locate_cylinder(m, x, n)
                    except BoundaryHit:
                        break
                    margins.append(math.log(float(c.length)) + n * logbeta)
            assert max(margins) < 1.0  # fitted log C


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=30), min_size=2, max_size=16))
def test_cf_cylinder_bounds(word):
    """1/prod (i_k+1)^2 <= lambda(P(n, x)) <= 1/prod i_k^2, exactly."""
    gauss = GaussMap()
    c = cylinder_from_word(gauss, tuple(word))
    lower = F(1)
    upper = F(1)
    for d in word:
        lower /= F(d + 1) ** 2
        upper /= F(d) ** 2
    assert lower <= c.length <= upper


class TestPeriodicPoints:
    def test_third(self, dary2):
        assert periodic_point(dary2, (0, 1)) == F(1, 3)

    def test_needs_affine_branches(self, gauss):
        from shrinktargets import MapError
        with pytest.raises(MapError, match="affine"):
            periodic_point(gauss, (1, 1))

    def test_fixed_word_matches_itinerary(self, markov):
        x = periodic_point(markov, (0, 1, 0))
        assert itinerary(markov, x, 5) == (0, 1, 0, 0, 1, 0)


class TestRefine:
    def test_trivial_radius(self, dary2):
        assert refine_depth(dary2, F(1, 3), F(2)) == 0

    def test_dyadic_against_bruteforce(self, dary2):
        """Oracle: scan depths for the smallest cylinder inside the ball."""
        x0 = F(1, 3)
        for k in range(0, 21):
            r = F(1, 2 ** k)
            t = 0
            while True:
                c = locate_cylinder(dary2, x0, t)
                if x0 - r <= c.left and c.right <= x0 + r:
                    break
                t += 1
            assert refine_depth(dary2, x0, r) == t
        # closed form at this target: minimal t with (2/3) 2^-(t+1) <= 2^-k
        ts = refine_schedule_to_depths(dary2, x0, [F(1, 2 ** k) for k in range(2, 21)])
        assert ts == [k - 1 for k in range(2, 21)]

    def test_monotone_depths(self, gauss):
        target = WordTarget(gauss, lambda k: 1)
        radii = [F(1, 10) ** k for k in range(1, 7)]
        ts = refine_schedule_to_depths(gauss, target, radii)
        assert all(a <= b for a, b in zip(ts, ts[1:]))

    def test_periodic_word_matches_its_point(self, dary2):
        # (01)^inf is 1/3; at r = 1/12 the ball edge 1/4 is a cylinder
        # endpoint, which brackets of the center never separate
        radii = [F(1, k) for k in range(2, 502)]
        word = WordTarget(dary2, (0, 1))
        assert word.value == F(1, 3)
        assert refine_schedule_to_depths(dary2, word, radii) == \
            refine_schedule_to_depths(dary2, F(1, 3), radii)

    def test_golden_gauss_bracket_refinement(self, gauss):
        # golden-mean target: fibonacci-denominator cylinder must fit in the
        # ball; verified against an exact interval scan using brackets
        target = WordTarget(gauss, lambda k: 1)
        r = F(1, 1000)
        t = refine_depth(gauss, target, r)
        lo, hi = target.bracket(t + 30)
        c = target.walk().cylinder(t)
        assert hi - r <= c.left and c.right <= lo + r
        prev = target.walk().cylinder(t - 1)
        assert not (hi - r <= prev.left and prev.right <= lo + r)


# ---------------------------------------------------------------------------
# the prefix walk against per-depth oracles

def _oracle_cylinder(m, word):
    """Cylinder of an admissible word by right-to-left composition of the
    inverse branches onto the block of its last digit."""
    word = tuple(word)
    lo, hi = m.block_interval(word[-1])
    if hasattr(m, "branch_affine"):
        A, B = F(0), F(1)
        for d_from, d_to in reversed(list(zip(word, word[1:]))):
            a, b = m.branch_affine(d_from, d_to)
            A, B = a + b * A, b * B
        lo, hi = A + B * lo, A + B * hi
    else:
        for d in reversed(word[:-1]):
            a, b = m.inverse_branch(d, lo), m.inverse_branch(d, hi)
            lo, hi = (a, b) if a <= b else (b, a)
    if not (isinstance(lo, F) and isinstance(hi, F)):
        return Cylinder(word, F(float(lo)), F(float(hi)), m.key(), exact=False,
                        precision_bits=53)
    if isinstance(m, GaussMap) and len(word) - 1 > EXACT_DEPTH_CAP:
        s = 1 << PRECISION_BITS
        return Cylinder(word, F(round(lo * s), s), F(round(hi * s), s), m.key(),
                        exact=False, precision_bits=PRECISION_BITS)
    return Cylinder(word, lo, hi, m.key())


def _oracle_itinerary(m, x, n):
    digs = []
    for k in range(n + 1):
        try:
            digs.append(m.digit_of(x))
        except BoundaryHit as e:
            raise BoundaryHit(k, tuple(digs), e.reason) from None
        if k < n:
            x = m.evaluate(x)
    return tuple(digs)


def _oracle_refine(m, x0, radii):
    """One scan per radius, every cylinder rebuilt from its word."""
    word = isinstance(x0, WordTarget)

    def cyl(t):
        return _oracle_cylinder(m, x0.digits(t) if word else _oracle_itinerary(m, x0, t))

    def inside(t, r):
        c = cyl(t)
        if word and not isinstance(x0.value, (int, F)):
            for extra in range(t + 8, t + 201, 8):
                b = cyl(extra)
                if b.right - r <= c.left and c.right <= b.left + r:
                    return True
                if b.left - r > c.left or c.right > b.right + r:
                    return False
            raise RuntimeError("containment test failed to resolve")
        x = x0.value if word else x0
        return x - r <= c.left and c.right <= x + r

    out, t, prev = [], 0, None
    for r in radii:
        if r >= 1 or (prev is not None and r > prev):
            t = 0
        while r < 1 and not inside(t, r):
            t += 1
        out.append(t)
        prev = r
    return out


def _admissible_word(m, rng, n):
    D = m.N if isinstance(m, BlaschkeBoundary) else m.D
    word = [int(rng.integers(D))]
    while len(word) < n:
        d = int(rng.integers(D))
        if m.admissible(word[-1], d):
            word.append(d)
    return tuple(word)


class TestPrefixWalk:
    @pytest.mark.parametrize("case", ["dary2", "dary3", "dary10", "chain", "golden",
                                      "zero-diagonal", "gauss", "blaschke"])
    def test_every_prefix_matches_oracle(self, case, dary2, dary3, markov, golden_markov,
                                         zero_diagonal, gauss, blaschke_two):
        rng = np.random.default_rng(11)
        m = {"dary2": dary2, "dary3": dary3, "dary10": DAryShift(10), "chain": markov,
             "golden": golden_markov, "zero-diagonal": zero_diagonal, "gauss": gauss,
             "blaschke": blaschke_two}[case]
        if case == "gauss":
            # past EXACT_DEPTH_CAP the endpoints are rounded and marked inexact
            words = [tuple(int(d) for d in rng.integers(1, 41, size=n)) for n in (66, 80, 90)]
        elif case == "blaschke":
            words = [_admissible_word(m, rng, 12)]
        else:
            words = [_admissible_word(m, rng, n) for n in (1, 40, 90)]
        for word in words:
            walk = PrefixWalk(m, word)
            for t in range(len(word)):
                want = _oracle_cylinder(m, word[:t + 1])
                assert walk.cylinder(t) == want
                assert walk.bounds(t) == (want.left, want.right)
                assert cylinder_from_word(m, word[:t + 1]) == want
        if case == "gauss":
            assert not walk.cylinder(EXACT_DEPTH_CAP + 1).exact

    def test_digits_are_read_lazily(self, gauss):
        def digits():
            yield from (2, 3)
            raise AssertionError("read past the depth asked for")
        assert PrefixWalk(gauss, digits()).cylinder(1) == _oracle_cylinder(gauss, (2, 3))
        # 3/7 = [0; 2, 3]: the orbit ends at 0, so depth 2 has no digit
        assert locate_cylinder(gauss, F(3, 7), 1) == _oracle_cylinder(gauss, (2, 3))
        with pytest.raises(BoundaryHit) as got:
            locate_cylinder(gauss, F(3, 7), 2)
        assert (got.value.step, got.value.partial) == (2, (2, 3))

    @pytest.mark.parametrize("case, bad", [("golden-11", 4), ("gauss-0", 3), ("dary-5", 3),
                                           ("gauss-first-0", 0)])
    def test_inadmissible_digit_raises_at_its_depth(self, case, bad, golden_markov, gauss,
                                                    dary2):
        m, word = {"golden-11": (golden_markov, (0, 1, 0, 1, 1)),
                   "gauss-0": (gauss, (1, 2, 3, 0, 2)),
                   "dary-5": (dary2, (0, 1, 1, 5, 0)),
                   "gauss-first-0": (gauss, (0, 1))}[case]
        walk = PrefixWalk(m, word)
        for t in range(bad):
            assert walk.cylinder(t) == _oracle_cylinder(m, word[:t + 1])
        with pytest.raises(InadmissibleDigit):
            walk.cylinder(bad)
        with pytest.raises(InadmissibleDigit):
            cylinder_from_word(m, word)

    def test_periodic_point_closes_the_walk(self, dary2, markov, golden_markov,
                                            zero_diagonal):
        # the fixed point of the branches composed right to left around the
        # period; it lies in every closed cylinder of the repeated word
        for m, w in ((dary2, (0, 1)), (markov, (0, 1, 1)), (golden_markov, (0, 1)),
                     (zero_diagonal, (0, 1, 2)), (DAryShift(10), (3, 1, 4, 1, 5))):
            A, B = F(0), F(1)
            for d_from, d_to in reversed(list(zip(w, w[1:] + w[:1]))):
                a, b = m.branch_affine(d_from, d_to)
                A, B = a + b * A, b * B
            x = periodic_point(m, w)
            assert x == A / (1 - B)
            for t in range(3 * len(w)):
                c = cylinder_from_word(m, (w * 3)[:t + 1])
                assert c.left <= x <= c.right

class TestRefineScan:
    @pytest.mark.parametrize("case", ["point-third", "gauss-golden-word", "word-01"])
    def test_bench_radii_families(self, case, dary2, gauss):
        m, x0, radii = {
            "point-third": (dary2, F(1, 3), [F(1, k) for k in range(2, 2002)]),
            "gauss-golden-word": (gauss, WordTarget(gauss, (1,)),
                                  [F(1, k) for k in range(2, 1002)]),
            "word-01": (dary2, WordTarget(dary2, (0, 1)), [F(1, k) for k in range(2, 502)]),
        }[case]
        assert refine_schedule_to_depths(m, x0, radii) == _oracle_refine(m, x0, radii)

    def test_large_and_increasing_radii_restart(self, dary2, gauss, markov):
        radii = [F(3), F(1, 50), F(1), F(1, 7), F(1, 9), F(1, 3), F(1, 1000), F(2, 3)]
        for m, x0 in ((dary2, F(2, 7)), (markov, WordTarget(markov, (0, 1, 1))),
                      (gauss, WordTarget(gauss, (1, 2)))):
            assert refine_schedule_to_depths(m, x0, radii) == _oracle_refine(m, x0, radii)
        assert [refine_depth(dary2, F(2, 7), r) for r in radii] == \
            [_oracle_refine(dary2, F(2, 7), [r])[0] for r in radii]

    def test_ended_gauss_orbit_raises_the_same_boundary_hit(self, gauss):
        radii = [F(1, k) for k in range(2, 200)]
        with pytest.raises(BoundaryHit) as want:
            _oracle_refine(gauss, F(3, 7), radii)
        with pytest.raises(BoundaryHit) as got:
            refine_schedule_to_depths(gauss, F(3, 7), radii)
        assert got.value.args == want.value.args
        # a target's one walk fails the same way on every later scan
        target = WordTarget(gauss, value=F(3, 7))
        for _ in range(2):
            with pytest.raises(BoundaryHit) as got:
                refine_schedule_to_depths(gauss, target, radii)
            assert got.value.args == want.value.args


class TestBallTest:
    @pytest.mark.parametrize("r", [F(1, 4), F(1, 8), F(3, 16), F(1, 16), F(5, 32)])
    def test_inside_holds_for_the_worst_centre(self, dary2, r):
        # (01)^inf read through a digit function has no known value, so its
        # centre 1/3 is known only through cylinder brackets; the point r past
        # the right end of the depth-120 bracket lies in the union of the
        # balls about the bracket but outside the true ball
        centre = WordTarget(dary2, lambda k: k % 2)
        lo, hi = centre.bracket(120)
        p = hi + r
        assert lo - r <= p <= hi + r and p - F(1, 3) > r
        assert ball_holds(lambda k: (p, p), centre.bracket, r, 0) is False
        # and a point strictly inside the true ball is certified inside
        assert ball_holds(lambda k: (F(1, 3) + r / 2,) * 2, centre.bracket, r, 0) is True

    def test_undecidable_edge_raises(self, dary2):
        # a rational centre known only by brackets, on the ball edge of a point
        centre = WordTarget(dary2, lambda k: k % 2)
        edge = F(1, 3) + F(1, 4)
        with pytest.raises(RuntimeError):
            ball_holds(lambda k: (edge, edge), centre.bracket, F(1, 4), 0)
