import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinktargets import (
    BlaschkeBoundary,
    BoundaryHit,
    DAryShift,
    InadmissibleDigit,
    MapError,
    MarkovLinear,
    cylinder_from_word,
    make_map,
)
from shrinktargets.maps import ForbiddenTransition, primitivity_exponent
from shrinktargets.measures import ORBIT_BLOCK, float_orbit_blocks
from conftest import (
    affine_branch_reference,
    blaschke_product_reference,
    blaschke_step_reference,
    circle_angle_reference,
    float_orbit_start_reference,
    primitive_chains,
)

LOG2 = math.log(2)
ZERO_SETS = [[0, .5], [.5, 0], [0, 0, .3], [0, .5 + .3j, -.2j], [0, -.7, .2 + .1j],
             [.9j, 0, .1]]
# 0, 1, the float below 1, the least subnormal and normal, and the quarters
EDGES = np.array([0.0, 1.0, np.nextafter(1.0, 0), 2.0 ** -1074, 2.0 ** -1022,
                  .25, .5, .75])


class TestEvaluate:
    def test_doubling(self, dary2):
        assert dary2.evaluate(F(3, 10)) == F(3, 5)

    def test_gauss_rational_step(self, gauss):
        assert gauss.evaluate(F(2, 5)) == F(1, 2)

    def test_blaschke_monomial_doubles_angles(self, blaschke_square):
        assert blaschke_square.evaluate(0.3) == pytest.approx(0.6, abs=1e-12)

    def test_gauss_zero_flagged(self, gauss):
        with pytest.raises(BoundaryHit, match="orbit ended at 0"):
            gauss.digit_of(F(0))

    def test_outside_domain(self, dary2):
        with pytest.raises(MapError):
            dary2.evaluate(F(3, 2))

    @pytest.mark.parametrize("D", [1, 2 ** 16 + 1])
    def test_D_outside_its_range(self, D):
        with pytest.raises(MapError, match="65536"):
            DAryShift(D)


class TestVectorStep:
    def test_gauss_step_is_the_fractional_part_of_the_reciprocal(self, gauss):
        """Bit for bit np.modf(1/x)[0] on 10^6 log-uniform points of
        [2^-60, 1], on 1/k (whose orbits end or nearly end) and on 1."""
        x = np.concatenate((
            2.0 ** np.random.default_rng(0).uniform(-60, 0, 10 ** 6),
            1.0 / np.arange(1, 10 ** 5), np.nextafter(1.0 / np.arange(2, 10 ** 4), 0),
            [1.0, 2.0 ** -60]))
        want = np.modf(1.0 / x)[0]
        out = np.empty_like(x)
        assert gauss.stepper(len(x))(x, out) is out and out.tobytes() == want.tobytes()
        assert gauss.stepper(len(x))(x, x) is x and x.tobytes() == want.tobytes()
        assert np.count_nonzero(want == 0) > 100      # the 1/k that end at once

    @pytest.mark.parametrize("zeros", ZERO_SETS)
    def test_blaschke_stepper_is_the_reference_expression(self, zeros):
        """Bit for bit blaschke_step_reference over 3,000 steps of rows of
        every width, width 1 included (where a complex multiply in place
        would round differently), stepping into a second row and in place;
        and over 50 steps from the points of the edge angles 0, 1, the float
        below 1, the least subnormal and normal and the quarters, as one row
        and alone."""
        m = BlaschkeBoundary(zeros)
        starts = [(np.random.default_rng(w).random(w), 3000) for w in (1, 2, 3, 4, 10, 100)]
        starts += [(EDGES, 50)] + [(EDGES[k:k + 1], 50) for k in range(len(EDGES))]
        for t, steps in starts:
            width, x = len(t), np.exp(2j * np.pi * t)
            step, y, out, z = m.stepper(width), x.copy(), np.empty(width, complex), x.copy()
            for n in range(steps):
                x = blaschke_step_reference(m, x)
                y, out = step(y, out), y
                assert step(z, z) is z
                assert y.tobytes() == x.tobytes() == z.tobytes(), (width, n)

    def test_blaschke_two_zeros_step_in_three_ufunc_calls(self, monkeypatch):
        """The stepper of zeros [0, .5] calls subtract, conjugate and divide
        once each per step, and no exp or arctan2."""
        z, calls = np.exp(2j * np.pi * np.random.default_rng(0).random(10)), []

        class Spy:
            def __init__(self, ufunc):
                self.ufunc = ufunc

            def __getattr__(self, name):        # reduce, nin, ...
                return getattr(self.ufunc, name)

            def __call__(self, *args):
                calls.append(self.ufunc.__name__)
                return self.ufunc(*args)
        for name in dir(np):
            if isinstance(getattr(np, name), np.ufunc):
                monkeypatch.setattr(np, name, Spy(getattr(np, name)))
        step = BlaschkeBoundary([0, .5]).stepper(len(z))
        calls.clear()
        step(z, np.empty(len(z), complex))
        assert sorted(calls) == ["conjugate", "divide", "subtract"]


# the zero sets of TestVectorStep, then z^2 and z^3: k = (zeros at 0) -
# (nonzero zeros) runs from -1 to 3
CIRCLE_ZERO_SETS = ZERO_SETS + [[0, 0], [0, 0, 0]]


def circular_distance(x, y):
    d = np.abs(x - y) % 1.0
    return np.minimum(d, 1.0 - d)


class TestCircleStep:
    """The stepper's circle state against the product formula on angles."""

    @pytest.mark.parametrize("zeros", CIRCLE_ZERO_SETS)
    def test_one_step_reads_as_the_product_formula(self, zeros):
        m = BlaschkeBoundary(zeros)
        t = np.concatenate((np.random.default_rng(1).random(10 ** 4), EDGES))
        z = m.stepper(len(t))(np.exp(2j * np.pi * t), np.empty(len(t), complex))
        assert circular_distance(circle_angle_reference(z),
                                 blaschke_product_reference(m, t)).max() <= 2e-15

    @pytest.mark.parametrize("zeros", CIRCLE_ZERO_SETS)
    def test_orbits_stay_on_the_circle(self, zeros):
        m = BlaschkeBoundary(zeros)
        z = np.exp(2j * np.pi * np.random.default_rng(2).random(10))
        step, drift = m.stepper(len(z)), 0.0
        for _ in range(10 ** 4):
            z = step(z, z)
            drift = max(drift, np.abs(np.abs(z) - 1).max())
        assert drift <= 1e-14

    @pytest.mark.parametrize("zeros", [[0, 0], [0, 0, 0]])
    def test_monomial_orbits_do_not_collapse(self, zeros):
        """Doubling or tripling a float angle empties its mantissa within
        about 53 steps; the circle state keeps 1,000 orbits apart."""
        m = BlaschkeBoundary(zeros)
        z = np.exp(2j * np.pi * np.random.default_rng(3).random(1000))
        step = m.stepper(len(z))
        for _ in range(3000):
            z = step(z, z)
        assert len(np.unique(circle_angle_reference(z))) == 1000

    @pytest.mark.parametrize("zeros", CIRCLE_ZERO_SETS)
    @pytest.mark.parametrize("width", [1, 3, 10])
    def test_block_read_is_the_row_read(self, zeros, width, lebesgue):
        """float_orbit_blocks reads each block of circle points at once,
        bit for bit the angles of its rows read one at a time."""
        m, N, seeds = BlaschkeBoundary(zeros), 2 * ORBIT_BLOCK + 5, range(width)
        rows = np.concatenate([xs.copy() for _, xs, _ in float_orbit_blocks(
            m, lebesgue, seeds, N)])
        _, x, z = float_orbit_start_reference(m, lebesgue, seeds)
        step, want = m.stepper(width), [x]
        for _ in range(N):
            z = step(z, np.empty(width, complex))
            want.append(circle_angle_reference(z))
        assert rows.tobytes() == np.array(want).tobytes()


class TestLogDerivative:
    def test_constant_slope(self, dary3):
        assert dary3.log_derivative(0.123) == pytest.approx(math.log(3))

    def test_gauss_at_half(self, gauss):
        assert gauss.log_derivative(F(1, 2)) == pytest.approx(math.log(4))

    def test_blaschke_pair_at_one(self, blaschke_two):
        # |B'(1)| = (1-0)/|1-0|^2 + (1-0.25)/|1-0.5|^2 = 1 + 3 = 4
        assert blaschke_two.log_derivative(0.0) == pytest.approx(math.log(4))

    def test_gauss_small_x_large_finite(self, gauss):
        v = gauss.log_derivative(1e-9)
        assert math.isfinite(v) and v > 40


class TestInverseBranch:
    def test_dary(self, dary2):
        assert dary2.inverse_branch(1, F(1, 2)) == F(3, 4)

    def test_gauss(self, gauss):
        assert gauss.inverse_branch(2, F(0)) == F(1, 2)

    def test_markov_uniform_midpoint(self):
        m = MarkovLinear([[F(1, 2)] * 2] * 2, [F(1, 2)] * 2)
        # digit 0 branch inside P_1: midpoint of sub-block P_{1,0}
        x = m.inverse_branch(1, F(1, 4))
        lo, hi = m.subblock_interval(1, 0)
        assert lo < x < hi and x == lo + (hi - lo) * F(1, 2)

    def test_forbidden_transition(self, golden_markov):
        """Every method that meets the forbidden step 1 -> 1 raises branch's error;
        a step from a digit outside the alphabet is refused as that digit, not
        read as row -1 of the table or as a bare IndexError."""
        m = golden_markov
        for call in (lambda: m.branch(1, 1), lambda: m.slope(1, 1),
                     lambda: m.subblock_interval(1, 1),
                     lambda: m.inverse_branch(1, F(3, 4))):    # y in P_1, branch from 1
            with pytest.raises(ForbiddenTransition) as got:
                call()
            assert str(got.value) == "digit not admissible: transition 1->1 forbidden"
        for prev in (-1, 2):
            for call in (lambda: m.branch(prev, 0), lambda: m.slope(prev, 0),
                         lambda: m.subblock_interval(prev, 0)):
                with pytest.raises(InadmissibleDigit) as got:
                    call()
                assert type(got.value) is InadmissibleDigit
                assert str(got.value) == f"digit {prev} out of range"

    @pytest.mark.parametrize("mapname, digit", [("dary2", 0), ("golden_markov", 0),
                                                ("gauss", 1), ("blaschke_two", 0)])
    def test_one_image_check(self, mapname, digit, request):
        """y in the branch image [0, 1], ends included, or one MapError on every map."""
        m = request.getfixturevalue(mapname)
        for y in (1.5, -0.5, F(3, 2)):
            with pytest.raises(MapError) as got:
                m.inverse_branch(digit, y)
            assert type(got.value) is MapError
            assert str(got.value) == f"{y} outside the branch image [0, 1]"
        lo, hi = m.block_interval(digit)
        assert lo <= m.inverse_branch(digit, 1) <= hi
        assert lo <= m.inverse_branch(digit, 0) <= hi


class TestBranchConsistency:
    @pytest.mark.parametrize("mapname", ["dary2", "markov", "gauss"])
    def test_exact_roundtrip(self, mapname, request):
        m = request.getfixturevalue(mapname)
        digits = range(m.D) if hasattr(m, "D") else range(1, 8)
        for d in digits:
            for y in (F(1, 7), F(2, 5), F(9, 11)):
                x = m.inverse_branch(d, y)
                assert m.evaluate(x) == y

    def test_blaschke_roundtrip(self, blaschke_two):
        for d in range(blaschke_two.N):
            for y in (0.12, 0.5, 0.93):
                x = blaschke_two.inverse_branch(d, y)
                assert blaschke_two.evaluate(x) == pytest.approx(y, abs=1e-12)


class TestIntegerBranches:
    """branch(prev, d) of every exact map against an oracle built from its
    blocks, and its one check of a digit read after prev."""

    @given(m=st.one_of(primitive_chains(), st.sampled_from([2, 3, 257]).map(DAryShift)),
           data=st.data())
    @settings(max_examples=60)
    def test_affine_branch_maps_the_block_onto_the_sub_block(self, m, data, gauss,
                                                             blaschke_two):
        """(B L, A L, 0, L) of the increasing affine map y -> A + B*y of P_d onto
        P_{prev,d}, L the lcm of the denominators of A and B, which
        inverse_branch reads at the midpoint of P_d; ForbiddenTransition where
        the chain forbids prev -> d, and InadmissibleDigit with the block's
        message outside the alphabet, from inverse_branch too (a chain's
        digit -1 once read the last row of its table), on the Gauss and
        Blaschke maps as well."""
        digit = st.integers(0, m.D - 1)
        for prev, d in data.draw(st.lists(st.tuples(digit, digit), min_size=1, max_size=40)):
            assert m.branch(None, d) is None
            try:
                A, B = affine_branch_reference(m, prev, d)
            except InadmissibleDigit:
                with pytest.raises(ForbiddenTransition) as got:
                    m.branch(prev, d)
                assert str(got.value) == f"digit not admissible: transition {prev}->{d} forbidden"
                continue
            e, f, g, h = m.branch(prev, d)
            assert {type(x) for x in (e, f, g, h)} == {int}
            assert (g, F(f, h), F(e, h), h) == (0, A, B, math.lcm(A.denominator, B.denominator))
            mid = sum(m.block_interval(d)) / 2
            assert m.inverse_branch(prev, mid) == A + B * mid
        for m, first, bad in [(m, 0, -1), (m, 0, m.D), (DAryShift(2), 0, 5), (gauss, 1, 0),
                              (gauss, 1, -1), (blaschke_two, 0, -1), (blaschke_two, 0, 2)]:
            with pytest.raises(InadmissibleDigit) as want:
                m.block_interval(bad)
            # the digit is checked as the step's end and as its start
            for call in (lambda: m.branch(None, bad), lambda: m.branch(first, bad),
                         lambda: m.branch(bad, first), lambda: m.inverse_branch(bad, F(1, 2)),
                         *((lambda: m.slope(bad, first), lambda: m.subblock_interval(bad, first))
                           if isinstance(m, MarkovLinear) else ())):
                with pytest.raises(InadmissibleDigit) as got:
                    call()
                assert type(got.value) is InadmissibleDigit and str(got.value) == str(want.value)

    @given(prev=st.integers(1, 50), d=st.integers(1, 50), y=st.fractions(0, 1))
    @settings(max_examples=100)
    def test_gauss_branch_is_the_reciprocal(self, gauss, prev, d, y):
        """(0, 1, 1, prev) of y -> 1/(prev + y), which maps P_d into P_prev; a
        0 after any digit is outside the alphabet, not a forbidden step."""
        assert gauss.branch(None, d) is None
        a, b, c, e = gauss.branch(prev, d)
        assert F(a * y + b, c * y + e) == 1 / (prev + y) == gauss.inverse_branch(prev, y)
        lo, hi = gauss.block_interval(prev)
        assert all(lo <= F(a * z + b, c * z + e) <= hi for z in gauss.block_interval(d))
        for p in (None, prev):
            with pytest.raises(InadmissibleDigit) as got:
                gauss.branch(p, 0)
            assert type(got.value) is InadmissibleDigit
            assert str(got.value) == "Gauss digit must be >= 1, got 0"


class TestExpansion:
    @pytest.mark.parametrize("mapname", ["dary2", "dary3", "markov",
                                         "blaschke_square", "blaschke_two"])
    def test_one_step(self, mapname, request):
        m = request.getfixturevalue(mapname)
        rng = np.random.default_rng(0)
        for x in rng.random(10 ** 4):
            try:
                assert math.exp(m.log_derivative(x)) >= m.expansion_beta - 1e-9
            except BoundaryHit:
                continue

    def test_gauss_two_step(self, gauss):
        # beta = 2 is certified through the two-step derivative, not one step
        rng = np.random.default_rng(1)
        for x in rng.random(10 ** 4):
            j2 = gauss.log_derivative(x) + gauss.log_derivative(gauss.evaluate(x))
            assert math.exp(j2) >= gauss.expansion_beta ** 2 - 1e-9


class TestMarkovStructure:
    def test_partition_tiles(self, markov):
        cuts = [blk[0] for blk in markov.partition0] + [F(1)]
        assert cuts[0] == 0 and cuts[-1] == 1
        assert all(a < b for a, b in zip(cuts, cuts[1:]))

    def test_image_is_union_of_blocks(self, markov, golden_markov, dary2, gauss):
        # exact: image of each sub-block spans exactly its target block
        for m in (markov, golden_markov):
            for i in range(m.D):
                for j in m.branch_targets(i):
                    lo, hi = m.subblock_interval(i, j)
                    blk = m.block_interval(j)
                    assert m.evaluate(lo) == blk[0]
                    # supremum of the image is the right endpoint
                    eps = F(1, 10 ** 12)
                    assert blk[1] - m.evaluate(hi - eps) < F(1, 10 ** 9)
        # full-branch maps: every block's image is everything
        assert list(dary2.branch_targets(0)) == [0, 1]
        assert gauss.branch_targets(3) is None

    def test_mixing_exponent_detected(self, markov, golden_markov):
        assert markov.mixing_steps == 1
        assert golden_markov.mixing_steps == 2

    def test_mixing_exponent_read_on_first_use(self):
        # every one-step slope of this chain exceeds 1, so construction does
        # not need the exponent
        m = MarkovLinear([[F(3, 4), F(1, 4)], [F(1, 2), F(1, 2)]], [F(2, 3), F(1, 3)])
        assert "mixing_steps" not in vars(m)
        assert m.mixing_steps == 1 and vars(m)["mixing_steps"] == 1


def _boolean_power_exponent(M):
    """Oracle: the Wielandt loop on boolean matrix powers, entry by entry."""
    D = len(M)
    pos = [[M[i][j] > 0 for j in range(D)] for i in range(D)]
    cur = pos
    for n in range(1, (D - 1) ** 2 + 2):
        if all(all(row) for row in cur):
            return n
        cur = [[any(cur[i][k] and pos[k][j] for k in range(D)) for j in range(D)]
               for i in range(D)]
    return None


def _wielandt(D):
    """i -> i + 1 and D - 1 -> {0, 1}: the primitive pattern of exponent (D-1)^2 + 1."""
    return [[int(j == i + 1) for j in range(D)] for i in range(D - 1)] + \
        [[1, 1] + [0] * (D - 2)]


class TestPrimitivityExponent:
    def test_matches_the_boolean_power_oracle(self):
        rng, seen = np.random.default_rng(33), set()
        for _ in range(3000):
            D = int(rng.integers(1, 8))
            M = (rng.random((D, D)) < rng.uniform(0.1, 0.7)).astype(int).tolist()
            want = _boolean_power_exponent(M)
            assert primitivity_exponent(M) == want, M
            seen.add(want)
        assert None in seen and len(seen) > 8      # both outcomes, many exponents

    @pytest.mark.parametrize("D", [2, 3, 7, 18])
    def test_wielandt_bound_is_reached(self, D):
        M = _wielandt(D)
        assert primitivity_exponent(M) == (D - 1) ** 2 + 1
        if D <= 7:
            assert _boolean_power_exponent(M) == (D - 1) ** 2 + 1


class TestDistortion:
    @staticmethod
    def _jacobian(m, x, s):
        v, pt = F(1), x
        for _ in range(s):
            i = m.digit_of(pt)
            j = m._subdigit_of(i, pt)
            v *= m.slope(i, j)
            pt = m.evaluate(pt)
        return v

    def test_piecewise_linear_ratio_is_one(self, markov):
        # the s-step Jacobian uses digits 0..s, so it is constant on a
        # depth-n cylinder exactly for s <= n
        word = (0, 1, 0, 0, 1)
        n = len(word) - 1
        cyl = cylinder_from_word(markov, word)
        xs = [cyl.left + (cyl.right - cyl.left) * t for t in (F(1, 10), F(9, 10))]
        for s in range(1, n + 1):
            assert self._jacobian(markov, xs[0], s) == self._jacobian(markov, xs[1], s)
        # at s = n+1 the ratio is bounded by the extreme slope ratio
        slopes = [markov.slope(i, j) for i in range(markov.D)
                  for j in range(markov.D) if markov.M[i][j] > 0]
        j0, j1 = (self._jacobian(markov, x, n + 1) for x in xs)
        assert max(j0, j1) / min(j0, j1) <= max(slopes) / min(slopes)

    def test_uniform_slopes_ratio_is_one_past_depth(self):
        # with constant slopes the ratio is exactly 1 even at s = n+1
        m = MarkovLinear([[F(1, 2)] * 2] * 2, [F(1, 2)] * 2)
        word = (0, 1, 1, 0)
        cyl = cylinder_from_word(m, word)
        xs = [cyl.left + (cyl.right - cyl.left) * t for t in (F(1, 10), F(9, 10))]
        s = len(word)
        assert self._jacobian(m, xs[0], s) == self._jacobian(m, xs[1], s)

    def test_gauss_distortion_bounded(self, gauss):
        """Within-cylinder sup of J_{n+1}(x)/J_{n+1}(y) stays under 40 and
        its per-depth reported maximum does not grow beyond depth 4.

        Writing the cylinder map as x = (p + p'y)/(q + q'y) in the exit
        variable y = T^{n+1}(x), the Jacobian is (q + q'y)^2, so the exact
        within-cylinder sup of the ratio is ((q + q')/q)^2.
        """
        rng = np.random.default_rng(2)

        def sup_ratio(word):
            p, pp, q, qp = 0, 1, 1, 0
            for d in reversed(word):
                p, pp, q, qp = q, qp, d * q + p, d * qp + pp
            return float(F(q + qp, q) ** 2)

        per_depth = []
        for n in range(1, 13):
            words = [tuple(int(d) for d in rng.integers(1, 9, n + 1))
                     for _ in range(60)]
            words.append(tuple([1] * (n + 1)))                  # golden-type
            words.append(tuple(([40, 1] * (n + 1))[:n + 1]))     # large/small
            words.append(tuple(([1, 40] * (n + 1))[:n + 1]))
            per_depth.append(max(sup_ratio(w) for w in words))
        assert all(v <= 40 for v in per_depth)
        peak = max(per_depth[:4])
        assert all(v <= peak + 1e-9 for v in per_depth[4:])


class TestBlaschkeStructure:
    def test_lift_matches_argument(self, blaschke_two):
        import cmath
        for t in (0.05, 0.37, 0.62, 0.93):
            z = cmath.exp(2j * math.pi * t)
            w = cmath.exp(2j * math.pi * blaschke_two.lift(t))
            assert abs(w - blaschke_two._B(z)) < 1e-12

    def test_lift_degree(self, blaschke_two):
        assert blaschke_two.lift(1.0) - blaschke_two.lift(0.0) == pytest.approx(2.0)

    def test_partition_covers_circle(self, blaschke_two):
        bounds = blaschke_two._boundaries
        assert bounds[0] == pytest.approx(0.0, abs=1e-13)
        assert bounds[-1] == pytest.approx(1.0, abs=1e-13)
        assert all(a < b for a, b in zip(bounds, bounds[1:]))

    @pytest.mark.parametrize("zeros", [[0, 0.5 + 0.3j, -0.2j], [0, 0.3j]], ids=["c>0", "c<0"])
    def test_wrapped_arc_holds_the_angles_below_the_first_boundary(self, zeros):
        """A nonzero lift constant puts the first boundary inside (0, 1): the
        last arc runs past 1 to that boundary + 1, and an angle below the first
        boundary is read one turn on, in the last arc."""
        m = BlaschkeBoundary(zeros)
        (lo, _), (_, hi) = m.partition0[0], m.partition0[-1]
        assert 0 < lo < 1 and hi == lo + 1.0
        assert m.digit_of(lo / 2) == m.N - 1 and m.digit_of(lo) == 0
        if zeros[1] == 0.5 + 0.3j:
            assert m.partition0[0] == pytest.approx((0.2094304, 0.6412644), abs=1e-7)
            assert m.digit_of(0.1047) == 2

    def test_needs_zero_at_origin(self):
        with pytest.raises(MapError, match="origin"):
            BlaschkeBoundary([0.3, 0.5])

    def test_certified_beta(self, blaschke_square, blaschke_two):
        assert blaschke_square.expansion_beta == pytest.approx(2.0)
        assert 1 < blaschke_two.expansion_beta < 2


class TestConfigConstruction:
    def test_make_map_roundtrip(self):
        m = make_map({"kind": "markov",
                      "M": [["3/4", "1/4"], ["1/2", "1/2"]],
                      "p": ["2/3", "1/3"]})
        assert isinstance(m, MarkovLinear)
        assert m.p == (F(2, 3), F(1, 3))

    def test_make_map_unknown(self):
        with pytest.raises(MapError):
            make_map({"kind": "horseshoe"})

    @pytest.mark.parametrize("M, p, match", [
        ([[F(1, 2), F(1, 3)], [F(1, 2), F(1, 2)]], [F(1, 2), F(1, 2)], "sum to 1"),
        # entries that Fraction cannot read are refused before any is read
        ([["1/0", "1"], ["1/2", "1/2"]], ["1/2", "1/2"], r"map\.M\.0\.0: must be a rational"),
        ([["1/2", "1/2"], ["abc", "1/2"]], ["1/2", "1/2"], r"map\.M\.1\.0: must be a rational"),
        ([["1/2", "1/2"], ["1/2", "1/2"]], [math.nan, "1/2"], r"map\.p\.0: must be a rational"),
    ], ids=["row-sum", "1/0", "abc", "nan"])
    def test_invalid_stochastic(self, M, p, match):
        with pytest.raises(MapError, match=match) as got:
            MarkovLinear(M, p)
        assert type(got.value) is MapError

    def test_not_stationary(self):
        with pytest.raises(MapError, match="stationary"):
            MarkovLinear([[F(1, 1), F(0, 1)], [F(1, 1), F(0, 1)]],
                         [F(1, 2), F(1, 2)])

    def test_every_chain_fault_in_one_error(self):
        # row 0 sums to 2, and pM = (3/4, 3/4) is not p
        with pytest.raises(MapError, match="row 0 of M .* sum to 1; p is not stationary"):
            MarkovLinear([[1, 1], [F(1, 2), F(1, 2)]], [F(1, 2), F(1, 2)])
