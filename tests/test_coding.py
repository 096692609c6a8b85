import math
import time
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
    DimensionError,
    GaussMap,
    InadmissibleDigit,
    MapError,
    Schedule,
    Target,
    WordTarget,
    borel_cantelli_classify,
    build_cantor_stage,
    cylinder_from_word,
    itinerary,
    locate_cylinder,
    own_measure,
    periodic_point,
    refine_depth,
    refine_schedule_to_depths,
    run_metric_hits,
    run_symbolic_hits,
)
from shrinktargets.coding import PrefixWalk, ball_holds, period_matrix
from shrinktargets.maps import ForbiddenTransition
from shrinktargets.recurrence import cylinder_mass_by_depth
from conftest import affine_branch_reference, allowed


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

    def test_locate_reads_every_target_once(self, dary2, golden_markov):
        """A "num/den" point and a digit word are targets like any other: the
        cylinder is checked against the target's exact value, the point 1/3 or
        the periodic point of the word, not against the raw argument."""
        third = locate_cylinder(dary2, F(1, 3), 3)
        assert third.word == (0, 1, 0, 1) and (third.left, third.right) == (F(5, 16), F(3, 8))
        assert locate_cylinder(dary2, "1/3", 3) == third
        assert locate_cylinder(dary2, (0, 1), 3) == third
        assert locate_cylinder(dary2, np.array([0, 1]), 3) == third
        assert locate_cylinder(dary2, Target(dary2, (0, 1)), 3) == third
        # a word without a periodic point: its cylinders, with nothing to miss
        assert locate_cylinder(golden_markov, (1, 1), 0) == cylinder_from_word(golden_markov, (1,))

    def test_locate_raises_where_the_float_cylinder_misses(self):
        # the float endpoints of P(10) of 1/2 under z^2 lie about 4e-15 right of 1/2
        with pytest.raises(MapError, match=r"P\(10\)"):
            locate_cylinder(BlaschkeBoundary([0, 0]), 0.5, 10)

    def test_float_point_reads_the_digits_of_its_exact_value(self, gauss):
        # the double 0.41 is a rational: its continued fraction, not the digits
        # of a float pseudo-orbit, which leaves x0 at depth 5
        assert WordTarget(gauss, value=0.41).digits(10) == \
            (2, 2, 3, 1, 1, 1, 1, 4094181479427, 8, 1, 4)
        for r in (1e-15, 1e-18):
            t0 = time.perf_counter()
            t = refine_depth(gauss, 0.41, r)
            assert time.perf_counter() - t0 < 1.0
            c = locate_cylinder(gauss, 0.41, t)
            assert t == 7 and c.left <= 0.41 <= c.right
        with pytest.raises(BoundaryHit):
            refine_depth(gauss, 0.41, 1e-40)
        d3 = DAryShift(3)
        assert WordTarget(d3, value=0.1).digits(60) == itinerary(d3, F(0.1), 60)


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
        with pytest.raises(MapError, match="affine"):
            periodic_point(gauss, (1, 1))

    def test_fixed_word_matches_itinerary(self, markov):
        x = periodic_point(markov, (0, 1, 0))
        assert itinerary(markov, x, 5) == (0, 1, 0, 0, 1, 0)


class TestRefine:
    def test_trivial_radius(self, dary2):
        assert refine_depth(dary2, F(1, 3), F(2)) == 0

    @pytest.mark.parametrize("r", [F(0), F(-1, 3)])
    def test_nonpositive_radius_fails_at_once(self, dary2, r):
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match=f"radius {r} "):
            refine_depth(dary2, F(1, 3), r)
        assert time.perf_counter() - t0 < 0.1

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

    def test_blaschke_scan_stops_where_cylinders_stop_nesting(self):
        """The float cylinders of 1/2 under z^2 nest to depth 46 and P(47) is
        empty, so a radius that no earlier cylinder fits raises there at
        once instead of scanning on through t Newton solves per depth."""
        m = BlaschkeBoundary([0, 0])
        assert refine_depth(m, 0.5, 1e-13) == 43 and refine_depth(m, 0.5, 1e-14) == 46
        t0 = time.perf_counter()
        with pytest.raises(MapError, match=r"P\(47\) .* not nested in P\(46\)"):
            refine_depth(m, 0.5, 1e-15)
        assert time.perf_counter() - t0 < 1

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
    if hasattr(m, "M"):
        A, B = F(0), F(1)
        for d_from, d_to in reversed(list(zip(word, word[1:]))):
            a, b = affine_branch_reference(m, d_from, d_to)
            A, B = a + b * A, b * B
        lo, hi = A + B * lo, A + B * hi
    else:
        for d in reversed(word[:-1]):
            a, b = m.inverse_branch(d, lo), m.inverse_branch(d, hi)
            lo, hi = (a, b) if a <= b else (b, a)
    if not (isinstance(lo, F) and isinstance(hi, F)):
        return Cylinder(word, F(float(lo)), F(float(hi)), exact=False, precision_bits=53)
    return Cylinder(word, lo, hi)


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
        if allowed(m, word[-1], d):
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
            # deep words: the endpoints stay exact at every depth
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
                a, b = affine_branch_reference(m, d_from, d_to)
                A, B = a + b * A, b * B
            x = periodic_point(m, w)
            assert x == A / (1 - B)
            for t in range(3 * len(w)):
                c = cylinder_from_word(m, (w * 3)[:t + 1])
                assert c.left <= x <= c.right


def _oracle_fault(m, digits, alphabet=()):
    """Eager oracle: the InadmissibleDigit message of the first distinct digit
    of alphabet outside the map's alphabet (a word Target checks its word so
    when it is built), else of the first digit of digits outside it or
    entering by a forbidden transition; None if there is none."""
    def block(d):
        try:
            m.block_interval(d)
        except InadmissibleDigit as e:
            return str(e)

    for d in dict.fromkeys(alphabet):
        if block(d):
            return block(d)
    for k, d in enumerate(digits):
        if block(d):
            return block(d)
        if k and not allowed(m, digits[k - 1], d):
            return f"digit not admissible: transition {digits[k - 1]}->{d} forbidden"
    return None


def _outcome(call):
    """What a call returns, or (class, message) of the MapError it raises."""
    try:
        return call()
    except MapError as e:
        return type(e), str(e)


def _expect(m, digits, value, alphabet=()):
    """(InadmissibleDigit, the oracle's message) if digits have a fault, its
    subclass ForbiddenTransition at a forbidden transition, else value()."""
    fault = _oracle_fault(m, digits, alphabet)
    if not fault:
        return value()
    forbidden = fault.startswith("digit not admissible")
    return (ForbiddenTransition if forbidden else InadmissibleDigit), fault


def _ends(cyl):
    return cyl.left, cyl.right


def _period_image(m, w):
    """The period matrix's image of the block of w[0], None without a matrix."""
    mat = period_matrix(m, w)
    if mat is None:
        return None
    a, b, c, d = mat
    return tuple(sorted(F(a * e + b, c * e + d) for e in m.block_interval(w[0])))


class TestLazyWalk:
    @pytest.mark.parametrize("name", ["dary2", "dary3", "markov", "golden_markov",
                                      "zero_diagonal", "gauss", "blaschke_two"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_reads_against_the_eager_oracle(self, name, data, request):
        """Words of 1-12 digits, out-of-range digits and forbidden transitions
        included (Gauss digits 0..5): Target.digits, walk.bounds at every depth
        on one shared walk, cylinder_from_word and period_matrix each return
        what the oracle composes eagerly, or raise the oracle's
        InadmissibleDigit, never an IndexError."""
        m = request.getfixturevalue(name)
        lo, hi = (1, 5) if name == "gauss" else (0, (m.N if name == "blaschke_two" else m.D) - 1)
        digit = st.integers(lo, hi) if data.draw(st.booleans()) else st.integers(lo - 1, hi + 2)
        w = tuple(data.draw(st.lists(digit, min_size=1, max_size=12)))
        n = 2 * len(w)
        long = (w * 3)[:n + 1]
        target = _outcome(lambda: Target(m, w))
        if isinstance(target, Target):
            assert _outcome(lambda: target.digits(n)) == _expect(m, long, lambda: long)
            for t in range(len(w)):
                assert _outcome(lambda: target.walk().bounds(t)) == \
                    _expect(m, w[:t + 1], lambda: _ends(_oracle_cylinder(m, w[:t + 1])))
        else:
            assert target == _expect(m, (), lambda: None, alphabet=w)
        assert _outcome(lambda: cylinder_from_word(m, w)) == \
            _expect(m, w, lambda: _oracle_cylinder(m, w))
        closed = w + w[:1]
        assert _outcome(lambda: _period_image(m, w)) == _expect(
            m, closed, lambda: None if name == "blaschke_two" else _ends(_oracle_cylinder(m, closed)))


INVALID_WORDS = {"chain-05": ("markov", (0, 5)), "dary2-02": ("dary2", (0, 2)),
                 "gauss-10": ("gauss", (1, 0)), "blaschke-05": ("blaschke_two", (0, 5)),
                 # digits that are not integers, inside the alphabet's range
                 "dary2-half": ("dary2", (0.5, 1)), "gauss-1.5": ("gauss", (1.5, 2)),
                 # a forbidden 1 -> 1: its subclass ForbiddenTransition
                 "golden-11": ("golden_markov", (1, 1)),
                 # no digit at all
                 "dary2-empty": ("dary2", ()), "chain-empty": ("markov", [])}
ENTRY_POINTS = {
    "cylinder_from_word": lambda m, mu, w: cylinder_from_word(m, w),
    "walk_bounds": lambda m, mu, w: Target.of(m, w).walk().bounds(1),
    "refine_schedule_to_depths": lambda m, mu, w: refine_schedule_to_depths(m, w, [F(1, 10)]),
    "borel_cantelli_classify": lambda m, mu, w: borel_cantelli_classify(
        m, mu, w, Schedule.depth_const(3)),
    "build_cantor_stage": lambda m, mu, w: build_cantor_stage(
        m, w, Schedule.depth_const(3), 1, [4], epsilon=3),
    "run_symbolic_hits": lambda m, mu, w: run_symbolic_hits(
        m, mu, w, Schedule.depth_const(3), 100, 1, 0),
    "run_metric_hits": lambda m, mu, w: run_metric_hits(
        m, mu, w, Schedule.radii_power(1.0), 100, 1, 0),
    # mu(P(t, x0)) at t = 0..5, the masses behind every normalizer
    "cylinder_mass_by_depth": lambda m, mu, w: cylinder_mass_by_depth(
        m, mu, Target.of(m, w), np.arange(6)),
    "period_matrix": lambda m, mu, w: period_matrix(m, w),
    "locate_cylinder": lambda m, mu, w: locate_cylinder(m, w, 3),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
@pytest.mark.parametrize("case", list(INVALID_WORDS))
def test_a_word_outside_the_alphabet_raises_a_map_error(case, entry, request):
    """A digit outside the map's alphabet, or a word without a digit, fails as
    a MapError at every entry point, never as a bare IndexError from a chain's
    transition table or a StopIteration from an empty walk.  A
    forbidden transition is the end of the support for the classifier, the
    symbolic engine and the cylinder masses: mass 0 and no hit, not an error."""
    name, w = INVALID_WORDS[case]
    m = request.getfixturevalue(name)
    if case == "golden-11" and entry == "cylinder_mass_by_depth":
        # mu(P(0)) is the stationary weight of digit 1; P(1) is empty
        assert ENTRY_POINTS[entry](m, own_measure(m), w).tolist() == [float(m.p[1])] + [0.0] * 5
        return
    if case == "golden-11" and entry in ("borel_cantelli_classify", "run_symbolic_hits"):
        out = ENTRY_POINTS[entry](m, own_measure(m), w)
        assert out.verdict == "MeasureZero" if entry == "borel_cantelli_classify" \
            else not out.hits.any()
        return
    with pytest.raises(ForbiddenTransition if case == "golden-11" else MapError):
        ENTRY_POINTS[entry](m, own_measure(m), w)


# points outside the domain of their map: [0, 1) for a linear map, (0, 1] for Gauss,
# the angles [0, 1] for a Blaschke map; nan and the infinities are in no domain,
# nor is a string that Fraction cannot read
OUTSIDE_POINTS = {"dary2-1": ("dary2", 1), "dary2-3/2": ("dary2", F(3, 2)),
                  "chain-1": ("markov", 1), "chain-3/2": ("markov", F(3, 2)),
                  "gauss-3/2": ("gauss", F(3, 2)), "blaschke-1.5": ("blaschke_two", 1.5),
                  **{f"{name}-{x}": (name, x) for name in ("dary2", "blaschke_two")
                     for x in (math.nan, math.inf, -math.inf)},
                  **{f"{name}-str-{x}": (name, x) for name in ("dary2", "gauss", "blaschke_two")
                     for x in ("abc", "nan", "1/0")}}


@pytest.mark.parametrize("entry", [e for e in ENTRY_POINTS
                                   if e not in ("cylinder_from_word", "period_matrix")])
@pytest.mark.parametrize("case", list(OUTSIDE_POINTS))
def test_a_point_outside_the_domain_raises_when_built(case, entry, request):
    """A point target is checked by the domain rule of its map's kind, the rule
    that a config's x0 passes: no entry point runs on it."""
    name, x0 = OUTSIDE_POINTS[case]
    m = request.getfixturevalue(name)
    with pytest.raises(MapError, match=f"^x0: must be a point of .* for {m.kind}, got "):
        Target(m, value=x0)
    with pytest.raises(MapError, match="^x0: "):
        ENTRY_POINTS[entry](m, own_measure(m), x0)


# digit functions whose digits fall outside the alphabet, at the first digit or later
INVALID_DIGIT_FUNCTIONS = {
    "chain-5": ("markov", lambda k: 5), "chain-minus-1": ("markov", lambda k: -1),
    "chain-0-then-7": ("markov", lambda k: 7 if k else 0),
    "dary2-2": ("dary2", lambda k: 2), "gauss-0": ("gauss", lambda k: 0),
    "gauss-late-0": ("gauss", lambda k: 1 if k < 3 else 0),
    "dary2-half": ("dary2", lambda k: 0.5), "dary2-int64-2": ("dary2", lambda k: np.int64(2))}


@pytest.mark.parametrize("case, entry", [
    (case, entry) for case in INVALID_DIGIT_FUNCTIONS for entry in ENTRY_POINTS
    # the entry points that take a target
    if entry not in ("cylinder_from_word", "period_matrix")])
def test_a_digit_function_outside_the_alphabet_raises_the_walks_error(case, entry, request):
    """A digit-function target is checked only by its walk, so every entry
    point raises the walk's own InadmissibleDigit: never a bare IndexError,
    nor a run that reads digit -1 as the last digit of a chain's row, nor a
    ForbiddenTransition, which the symbolic engine reads as the end of the
    support.  A Cantor stage refuses the Gauss map before any digit, and
    walk_bounds reads two digits, short of the late 0."""
    name, digits = INVALID_DIGIT_FUNCTIONS[case]
    m = request.getfixturevalue(name)
    if (name, entry) == ("gauss", "build_cantor_stage"):
        with pytest.raises(DimensionError, match="finite-alphabet linear map"):
            ENTRY_POINTS[entry](m, own_measure(m), Target(m, digits))
        return
    if (case, entry) == ("gauss-late-0", "walk_bounds"):
        ENTRY_POINTS[entry](m, own_measure(m), Target(m, digits))
        return
    with pytest.raises(InadmissibleDigit) as walk_error:
        Target(m, digits).walk().bounds(3)
    with pytest.raises(InadmissibleDigit) as got:
        ENTRY_POINTS[entry](m, own_measure(m), Target(m, digits))
    assert type(got.value) is InadmissibleDigit
    assert str(got.value) == str(walk_error.value)
    if case == "gauss-late-0":
        assert str(got.value) == "Gauss digit must be >= 1, got 0"


@pytest.mark.parametrize("name, ints", [("dary2", lambda k: k % 2), ("gauss", lambda k: 1),
                                         ("markov", lambda k: k % 3 // 2)],
                         ids=["dary2", "gauss", "markov"])
def test_numpy_integer_digits_compose_exactly(name, ints, request):
    """numpy integer digits enter as Python ints, so branches compose exactly
    at any depth: no int64 matrix overflows, whatever entry point reads them."""
    m = request.getfixturevalue(name)
    word = tuple(map(ints, range(101)))
    numpy_word = tuple(np.array(word, dtype=np.int64))
    want = Target(m, ints).walk().bounds(100)
    assert Target(m, lambda k: np.int64(ints(k))).walk().bounds(100) == want
    assert Target(m, numpy_word).walk().bounds(100) == Target(m, word).walk().bounds(100)
    assert cylinder_from_word(m, numpy_word) == cylinder_from_word(m, word)
    assert period_matrix(m, numpy_word) == period_matrix(m, word)
    assert all(type(d) is int for d in Target(m, numpy_word).digits(100))


def test_numpy_word_is_a_word_target(dary2):
    """A 1-D numpy integer array is a digit word wherever a target is read,
    as in cylinder_from_word, not a point handed to Fraction."""
    word = np.array([0, 1])
    assert Target.of(dary2, word).word == (0, 1)
    assert refine_depth(dary2, word, 0.1) == refine_depth(dary2, (0, 1), 0.1)
    got, want = ((stage.x0_digits, stage.root_lam,
                  [(lvl.nested_suffix, lvl.classes, lvl.d_j) for lvl in stage.levels])
                 for stage in (build_cantor_stage(dary2, w, Schedule.depth_const(3), 1, [4], epsilon=3)
                               for w in (word, (0, 1))))
    assert got == want
    assert Target.of(dary2, np.float64(0.25)).value == 0.25      # a numpy scalar stays a point


def test_numpy_0d_array_is_a_point(dary2):
    """A 0-d numpy array is read as its scalar, the point it holds, as a numpy
    scalar is: both give the depth of the point 1/4, not a TypeError."""
    assert refine_depth(dary2, np.array(0.25), 0.1) == 3
    assert refine_depth(dary2, np.float64(0.25), 0.1) == 3
    assert Target.of(dary2, np.array(0.25)).value == 0.25


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

    def test_radius_equal_to_the_reach_gives_that_depth(self, dary2, markov):
        # the ball is closed: P(t) fits a radius equal to max(right - x0, x0 - left)
        for m, x0 in ((dary2, F(2, 7)), (markov, F(3, 11)), (dary2, WordTarget(dary2, (0, 1)))):
            x = x0.value if isinstance(x0, WordTarget) else x0
            walk = WordTarget(m, value=x).walk()
            for t in (1, 4, 9):
                left, right = walk.bounds(t)
                r = max(right - x, x - left)
                assert r < max(walk.bounds(t - 1)[1] - x, x - walk.bounds(t - 1)[0])
                assert refine_schedule_to_depths(m, x0, [r]) == [t] == _oracle_refine(m, x0, [r])

    def test_float_and_infinite_radii(self, dary2, gauss, markov):
        radii = [0.1, 1e-5, math.inf, 0.1, 1e-5]
        for m, x0 in ((dary2, F(2, 7)), (markov, WordTarget(markov, (0, 1, 1))),
                      (gauss, WordTarget(gauss, (1, 2))), (dary2, WordTarget(dary2, (0, 1)))):
            got = refine_schedule_to_depths(m, x0, radii)
            assert got == _oracle_refine(m, x0, radii) and got[2] == 0

    def test_increasing_radii(self, dary2, gauss, markov):
        radii = [F(1, 10 ** 6), F(1, 1000), 1e-3, F(1, 100), F(1, 10), F(1, 2), F(1)]
        for m, x0 in ((dary2, F(2, 7)), (markov, WordTarget(markov, (0, 1, 1))),
                      (gauss, WordTarget(gauss, (1,))),
                      (dary2, WordTarget(dary2, lambda k: k % 2))):
            got = refine_schedule_to_depths(m, x0, radii)
            assert got == _oracle_refine(m, x0, radii) and got == sorted(got, reverse=True)

    def test_radius_in_the_bracket_gap_asks_the_ball_test(self, dary2, monkeypatch):
        # (01)^inf read through a digit function: its value 1/3 is known only
        # through brackets, so rho(t) of P(t) is bracketed by x0's depth t + 8
        # cylinder [lo, hi]; a radius between rho(t) and the top of that
        # bracket is decided by ball_holds on deeper brackets
        calls = []

        def counted(*args):
            calls.append(args[3])
            return ball_holds(*args)

        monkeypatch.setattr("shrinktargets.coding.ball_holds", counted)
        x0, t = WordTarget(dary2, lambda k: k % 2), 5
        left, right = x0.walk().bounds(t)
        lo, hi = x0.bracket(t + 8)
        rho, rho_hi = max(right - F(1, 3), F(1, 3) - left), max(right - lo, hi - left)
        r = (rho + rho_hi) / 2
        assert max(right - hi, lo - left) <= rho < r < rho_hi
        assert refine_schedule_to_depths(dary2, x0, [r]) == [t] == _oracle_refine(dary2, x0, [r])
        assert t + 8 in calls

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
