import collections
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shrinktargets import (
    BlaschkeBoundary,
    DAryShift,
    GaussMap,
    GaussMeasure,
    LebesgueMeasure,
    MarkovLinear,
    MarkovStationaryMeasure,
    MeasureError,
    Schedule,
    TargetPoint,
    borel_cantelli_classify,
    correlation_mass,
    cylinder_from_word,
    entropy_birkhoff,
    entropy_birkhoff_batch,
    entropy_closed_form,
    own_measure,
    run_metric_hits,
    run_symbolic_hits,
    smb_regular_cylinders,
    stationary_vector,
    trial_seed,
)
from shrinktargets import measures
from shrinktargets.measures import (
    DRAW_CHUNK,
    GAUSS_ENTROPY,
    digit_draws,
    float_orbit_blocks,
)
from shrinktargets.recurrence import cylinder_mass_by_depth
from conftest import (
    ScriptedGaussMeasure,
    affine_branch_reference,
    float_orbit_start_reference,
    float_orbit_step_reference,
    primitive_chains,
    weighted_chain,
)

LOG2 = math.log(2)


class TestMeasureInterval:
    def test_gauss_normalization(self, gauss_measure):
        assert gauss_measure.interval_mass(0, 1) == pytest.approx(1.0, abs=1e-15)

    def test_gauss_half(self, gauss_measure):
        # independent quadrature oracle: midpoint rule on the density
        M = 200000
        xs = (np.arange(M) + 0.5) / M * 0.5
        quad = float(np.sum(1.0 / (1.0 + xs)) * 0.5 / M / LOG2)
        v = gauss_measure.interval_mass(0, F(1, 2))
        assert v == pytest.approx(math.log(1.5) / LOG2, abs=1e-14)
        assert v == pytest.approx(quad, abs=1e-8)
        assert v == pytest.approx(0.584962, abs=1e-6)

    def test_lebesgue(self, lebesgue):
        assert lebesgue.interval_mass(F(1, 4), F(1, 2)) == F(1, 4)

    def test_reversed_endpoints(self, gauss_measure):
        with pytest.raises(MeasureError):
            gauss_measure.interval_mass(0.5, 0.2)

    def test_markov_interval_by_cylinders(self, markov, markov_measure):
        # decomposing [a,b) into maximal cylinders of the interval model and
        # summing their word masses recovers the interval mass exactly
        a, b = F(1, 7), F(5, 8)
        total, work = F(0), [(d,) for d in range(markov.D)]
        while work:
            word = work.pop()
            c = cylinder_from_word(markov, word)
            if c.right <= a or c.left >= b:
                continue
            if a <= c.left and c.right <= b:
                total += markov_measure.word_mass(word)
            elif len(word) > 40:
                # straddling sliver; count the overlapped fraction
                overlap = min(c.right, b) - max(c.left, a)
                total += markov_measure.word_mass(word) * overlap / c.length
            else:
                work.extend(word + (d,) for d in range(markov.D) if markov.M[word[-1]][d] > 0)
        assert total == markov_measure.interval_mass(a, b) == b - a


class TestStationaryVector:
    def test_symmetric(self):
        assert stationary_vector([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]) == \
            (F(1, 2), F(1, 2))

    def test_periodic_rejected(self):
        with pytest.raises(MeasureError, match="not primitive"):
            stationary_vector([[0, 1], [1, 0]])

    @pytest.mark.parametrize("make, match", [
        # pM = p holds here, though the rows sum to 2 and 0
        (lambda: MarkovStationaryMeasure([F(1, 2), F(1, 2)], [[1, 1], [0, 0]]),
         "probability vector"),
        # entries that Fraction cannot read are refused before any is read
        (lambda: MarkovStationaryMeasure(["1/0", "1"], [["1/2", "1/2"], ["1/2", "1/2"]]),
         r"^measure\.p\.0: must be a rational"),
        (lambda: MarkovStationaryMeasure.bernoulli(["abc", "1/2"]),
         r"^measure\.M\.0\.0: must be a rational"),
    ], ids=["rows-sum-2-and-0", "1/0", "bernoulli-abc"])
    def test_measure_rows_must_be_stochastic(self, make, match):
        with pytest.raises(MeasureError, match=match):
            make()

    def test_measure_needs_one_row_per_state(self):
        with pytest.raises(MeasureError, match="one row and one column per state"):
            MarkovStationaryMeasure([F(1, 2), F(1, 2)], [[1, 0]])

    def test_measure_needs_rows_as_long_as_p(self):
        with pytest.raises(MeasureError, match="^M must be a square matrix"):
            MarkovStationaryMeasure([F(1, 3)] * 3, [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])

    def test_two_state(self):
        p = stationary_vector([[F(3, 4), F(1, 4)], [F(1, 2), F(1, 2)]])
        assert p == (F(2, 3), F(1, 3))
        # residual of pM = p is exactly zero in rational arithmetic
        M = [[F(3, 4), F(1, 4)], [F(1, 2), F(1, 2)]]
        for j in range(2):
            assert sum(p[i] * M[i][j] for i in range(2)) == p[j]

    def test_three_state(self):
        M = [[F(1, 2), F(1, 4), F(1, 4)],
             [F(1, 3), F(1, 3), F(1, 3)],
             [F(1, 5), F(2, 5), F(2, 5)]]
        p = stationary_vector(M)
        assert sum(p) == 1 and all(x > 0 for x in p)
        for j in range(3):
            assert sum(p[i] * M[i][j] for i in range(3)) == p[j]

    def test_matches_the_overdetermined_elimination(self):
        """Random row-stochastic matrices with zero entries, D <= 6, primitive
        or not: the same tuple or the same MeasureError message as the
        elimination of the (D + 1) x D system."""
        rng, solved, refused = random.Random(33), 0, 0
        for _ in range(2000):
            D = rng.randint(1, 6)
            rows = [[rng.choice((0, 0, 1, 2, 5)) for _ in range(D)] for _ in range(D)]
            for row in rows:
                row[rng.randrange(D)] += not any(row)
            M = [[F(x, sum(row)) for x in row] for row in rows]
            try:
                want = _overdetermined_stationary_vector(M)
            except MeasureError as e:
                with pytest.raises(MeasureError) as got:
                    stationary_vector(M)
                assert str(got.value) == str(e)
                refused += 1
            else:
                got = stationary_vector(M)
                assert got == want and all(type(x) is F for x in got)
                solved += 1
        assert solved > 500 and refused > 500


def _overdetermined_stationary_vector(M) -> tuple:
    """Oracle: elimination of (M^T - I) p = 0 with sum p = 1, D + 1 rows."""
    M = [[F(x) for x in row] for row in M]
    D = len(M)
    if bad := measures.chain_violations(M):
        raise MeasureError("; ".join(bad))
    if measures.primitivity_exponent(M) is None:
        raise MeasureError("transition matrix not primitive")
    A = [[M[i][j] - (1 if i == j else 0) for i in range(D)] for j in range(D)]
    A.append([F(1)] * D)
    rhs = [F(0)] * D + [F(1)]
    rows = [A[i] + [rhs[i]] for i in range(D + 1)]
    piv = 0
    for col in range(D):
        sel = next((r for r in range(piv, D + 1) if rows[r][col] != 0), None)
        if sel is None:
            continue
        rows[piv], rows[sel] = rows[sel], rows[piv]
        inv = 1 / rows[piv][col]
        rows[piv] = [v * inv for v in rows[piv]]
        for r in range(D + 1):
            if r != piv and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[piv])]
        piv += 1
    p = [F(0)] * D
    for r in range(piv):
        lead = next((c for c in range(D) if rows[r][c] == 1), None)
        if lead is not None:
            p[lead] = rows[r][D]
    if any(x <= 0 for x in p) or sum(p) != 1:
        raise MeasureError("failed to find a strictly positive stationary vector")
    return tuple(p)


class TestEntropyClosedForm:
    def test_dary(self, dary2, lebesgue):
        assert entropy_closed_form(dary2, lebesgue).value == pytest.approx(LOG2)

    def test_gauss(self, gauss, gauss_measure):
        est = entropy_closed_form(gauss, gauss_measure)
        assert est.value == math.pi ** 2 / (6 * LOG2)
        assert est.value == pytest.approx(2.373138, abs=1e-6)

    def test_markov_formula(self, markov, markov_measure):
        est = entropy_closed_form(markov, markov_measure)
        p, M = markov.p, markov.M
        expected = sum(float(p[i] * M[i][j]) * math.log(1 / float(M[i][j]))
                       for i in range(2) for j in range(2))
        assert est.value == pytest.approx(expected, abs=1e-14)

    def test_blaschke_monomial(self, blaschke_square, lebesgue):
        est = entropy_closed_form(blaschke_square, lebesgue)
        assert est.value == pytest.approx(LOG2, abs=1e-10)

    def test_unsupported_pair(self, dary2, gauss_measure):
        with pytest.raises(MeasureError):
            entropy_closed_form(dary2, gauss_measure)


class TestEntropyBirkhoff:
    def test_constant_integrand_exact(self, dary3, lebesgue):
        est = entropy_birkhoff(dary3, lebesgue, 50, 4, 0)
        assert est.value == pytest.approx(math.log(3), abs=1e-15)
        assert est.standard_error == pytest.approx(0.0, abs=1e-15)

    def test_blaschke_monomial_exact(self, blaschke_square, lebesgue):
        est = entropy_birkhoff(blaschke_square, lebesgue, 200, 3, 1)
        assert est.value == pytest.approx(LOG2, abs=1e-12)

    def test_markov_agrees_with_closed_form(self, markov, markov_measure):
        closed = entropy_closed_form(markov, markov_measure).value
        est = entropy_birkhoff(markov, markov_measure, 20000, 10, 2)
        assert abs(est.value - closed) <= 4 * est.standard_error

    def test_gauss_trials_independent_of_batching(self, gauss, gauss_measure):
        """Trial t of a k-trial run is the scalar orbit from trial_seed(seed, t),
        read off as k v_k - (k-1) v_{k-1} from the k-trial means v_k."""
        n_iter, seed = 2000, 4

        def oracle(t):
            rng = np.random.default_rng(trial_seed(seed, t))
            x, s = gauss_measure.sample(rng, 1)[0], 0.0
            for _ in range(n_iter):
                s += gauss.log_derivative(x)
                x = gauss.evaluate(x)
                if not 0 < x < 1:
                    x = gauss_measure.sample(rng, 1)[0]
            return s / n_iter

        prev = 0.0
        for k in range(1, 5):
            v = entropy_birkhoff_batch(gauss, gauss_measure, n_iter, k, seed).value
            assert k * v - (k - 1) * prev == pytest.approx(oracle(k - 1), rel=1e-12)
            prev = v

    def test_gauss_restart_draws_from_its_own_trial(self, gauss, gauss_measure):
        # trial 0 starts at 1/2 and the map sends 1/2 to 0, so it restarts at n = 1
        (_, xs, restarts), = float_orbit_blocks(
            gauss, ScriptedGaussMeasure({7: [0.5]}), [7, 8], 1)
        rngs, _, x = float_orbit_start_reference(gauss, ScriptedGaussMeasure({7: [0.5]}), [7, 8])
        _, x, want = float_orbit_step_reference(gauss, gauss_measure, x, rngs)
        assert restarts == want == 1 and xs[1].tobytes() == x.tobytes()
        own, other = np.random.default_rng(7), np.random.default_rng(8)
        assert xs[1, 0] == gauss_measure.sample(own, 1)[0]
        assert xs[1, 1] == gauss.stepper(1)(gauss_measure.sample(other, 1), np.empty(1))[0]

    def test_gauss_within_three_stderr(self, gauss, gauss_measure):
        est = entropy_birkhoff_batch(gauss, gauss_measure, 10 ** 5, 12, 3)
        assert abs(est.value - GAUSS_ENTROPY) <= 3 * est.standard_error
        assert est.details["resampled"] < 5


@pytest.mark.parametrize("call, message", [
    (lambda m: entropy_birkhoff(m, own_measure(m), 0, 2, 1), "n_iter and n_trials must be >= 1"),
    (lambda m: correlation_mass(m, (0,), (1,), -1), "ell must be >= 0"),
], ids=["birkhoff-n_iter-0", "correlation-ell-minus-1"])
def test_a_length_below_its_least_raises_measure_error(call, message):
    with pytest.raises(MeasureError) as got:
        call(DAryShift(2))
    assert str(got.value) == message


UNIFORM_FOUR = MarkovLinear([[F(1, 4)] * 4] * 4, [F(1, 4)] * 4)


@pytest.mark.parametrize("m, mu", [
    (DAryShift(2), LebesgueMeasure()), (DAryShift(3), LebesgueMeasure()),
    (DAryShift(10), LebesgueMeasure()),
    (DAryShift(2), MarkovStationaryMeasure.bernoulli([F(1, 2)] * 2)),
    (DAryShift(3), MarkovStationaryMeasure.bernoulli([F(1, 3)] * 3)),
    (UNIFORM_FOUR, MarkovStationaryMeasure.bernoulli([F(1, 4)] * 4)),
], ids=["dary2", "dary3", "dary10", "dary2-uniform-chain", "dary3-uniform-chain",
        "uniform-four-symbols"])
def test_uniform_cylinder_masses_give_the_closed_form_entropy(m, mu):
    """Under a uniform law every depth-n cylinder has mass D^-(n+1), so the
    SMB quotient (1/(n+1)) log(1/mu(P(n, x))) is log D at every depth, the
    closed form's entropy: the masses are exact before rounding."""
    D = m.D
    masses = cylinder_mass_by_depth(m, mu, TargetPoint.of(m, F(1, 5)), np.arange(40))
    assert masses.tolist() == [float(F(1, D ** (n + 1))) for n in range(40)]
    h = entropy_closed_form(m, mu).value
    assert h == pytest.approx(math.log(D), abs=1e-15)
    for n in (0, 9, 39):
        assert -math.log(masses[n]) / (n + 1) == pytest.approx(h, rel=1e-14)


# every public engine that takes a (map, measure) pair, on tiny inputs
PAIR_ENGINES = {
    "run_symbolic_hits": lambda m, mu, x: run_symbolic_hits(
        m, mu, x, Schedule.depth_const(1), 50, 1, 0),
    "run_metric_hits": lambda m, mu, x: run_metric_hits(
        m, mu, x, Schedule.radii_power(2.0), 50, 1, 0),
    "borel_cantelli_classify": lambda m, mu, x: borel_cantelli_classify(
        m, mu, x, Schedule.depth_const(1)),
    "entropy_closed_form": lambda m, mu, x: entropy_closed_form(m, mu),
    "entropy_birkhoff": lambda m, mu, x: entropy_birkhoff(m, mu, 50, 1, 0),
}


class TestCheckInvariant:
    """Only the law the engines sample is admitted: an invariant chain that
    is not the map's own would not normalize the map's orbits."""

    @pytest.mark.parametrize("engine", PAIR_ENGINES)
    @pytest.mark.parametrize("pair", ["dary2-skewed-bernoulli", "chain-golden-chain",
                                      "blaschke-gauss", "dary2-gauss", "gauss-chain"])
    def test_engine_refuses_foreign_law(self, engine, pair, dary2, markov, golden_markov,
                                        blaschke_two, gauss, gauss_measure):
        m, mu, x0 = {
            "dary2-skewed-bernoulli": (dary2, MarkovStationaryMeasure.bernoulli(
                [F(1, 4), F(3, 4)]), (0, 1)),
            "chain-golden-chain": (markov, MarkovStationaryMeasure(
                golden_markov.p, golden_markov.M), (0, 1)),
            "blaschke-gauss": (blaschke_two, gauss_measure, 0.3),
            "dary2-gauss": (dary2, gauss_measure, (0, 1)),
            # the Gauss map carries no chain M
            "gauss-chain": (gauss, MarkovStationaryMeasure.bernoulli([F(1, 2)] * 2), 0.3),
        }[pair]
        with pytest.raises(MeasureError, match=f"the {mu.kind} measure is not invariant "
                                               f"for the {m.kind} map"):
            PAIR_ENGINES[engine](m, mu, TargetPoint.of(m, x0))

    @pytest.mark.parametrize("engine", PAIR_ENGINES)
    @pytest.mark.parametrize("pair", ["dary2-uniform-chain", "chain-own-chain"])
    def test_engine_accepts_own_law(self, engine, pair, dary2, markov, markov_measure):
        m, mu = {
            "dary2-uniform-chain": (dary2, MarkovStationaryMeasure.bernoulli([F(1, 2)] * 2)),
            "chain-own-chain": (markov, markov_measure),
        }[pair]
        PAIR_ENGINES[engine](m, mu, TargetPoint.of(m, (0, 1)))

    def test_uniform_chain_closed_form_is_log_D(self, dary3):
        mu = MarkovStationaryMeasure.bernoulli([F(1, 3)] * 3)
        assert entropy_closed_form(dary3, mu).value == math.log(3)


def _digamma(x: float) -> float:
    """Asymptotic digamma; accurate to ~1e-16 for x >= 10 (shifted up if not)."""
    acc = 0.0
    while x < 10:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    return acc + math.log(x) - 0.5 / x - inv2 * (
        1 / 12 - inv2 * (1 / 120 - inv2 * (1 / 252 - inv2 / 240)))


def pushforward_defect(m, measure, a, b) -> float:
    """Oracle: |sum_d measure(G_d([a,b])) - measure([a,b])|.

    Exact zero for the linear maps; for the Gauss map the first 200,000
    branches are summed term by term and the tail with an Euler-Maclaurin
    closed-form remainder, so the defect is resolved well below 1e-12.
    """
    if isinstance(m, (DAryShift, MarkovLinear)):
        total = F(0)
        a, b = F(a), F(b)
        D = m.D
        for d in range(D):
            targets = m.branch_targets(d)
            for j in (targets if targets is not None else range(D)):
                blk = m.block_interval(j)
                lo, hi = max(a, blk[0]), min(b, blk[1])
                if hi <= lo:
                    continue
                # the branch restricted to block j, so that a block's right
                # endpoint does not select the next block's branch
                A, B = affine_branch_reference(m, d, j)
                total += F(measure.interval_mass(A + B * lo, A + B * hi))
        return abs(float(total - F(measure.interval_mass(a, b))))
    if isinstance(m, GaussMap) and isinstance(measure, GaussMeasure):
        af, bf = float(a), float(b)
        K = 200000
        # branch d contributes log1p(u_d), u_d = (b-a)/((d+a)(d+b+1));
        # summed stably, with the linear tail in closed form via digamma
        # (the quadratic tail is below 1e-16 for K >= 2e5)
        head = math.fsum(
            math.log1p((bf - af) / ((d + af) * (d + bf + 1)))
            for d in range(1, K + 1)
        )
        tail = (bf - af) / (bf + 1 - af) * (
            _digamma(K + 2 + bf) - _digamma(K + 1 + af))
        total = (head + tail) / LOG2
        return abs(total - measure.interval_mass(af, bf))
    if isinstance(m, BlaschkeBoundary) and isinstance(measure, LebesgueMeasure):
        total = sum((m.inverse_branch(d, b) - m.inverse_branch(d, a)) % 1.0 for d in range(m.N))
        return abs(total - (b - a))
    raise MeasureError(f"no invariance check for ({m.kind}, {measure.kind})")


class TestInvariance:
    @pytest.mark.parametrize("pair", ["dary", "markov", "gauss", "blaschke"])
    def test_pushforward(self, pair, dary2, markov, gauss, blaschke_two,
                         lebesgue, gauss_measure):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b = sorted(rng.random(2))
            if pair == "dary":
                assert pushforward_defect(dary2, lebesgue, F(a), F(b)) == 0
            elif pair == "markov":
                assert pushforward_defect(markov, lebesgue, F(a), F(b)) == 0
            elif pair == "gauss":
                assert pushforward_defect(gauss, gauss_measure, a, b) < 1e-12
            else:
                assert pushforward_defect(blaschke_two, lebesgue, a, b) < 1e-12


    def test_pushforward_forbidden_transition(self, golden_markov):
        # a block's right endpoint must not select the next block's branch
        stationary = MarkovStationaryMeasure(golden_markov.p, golden_markov.M)
        for a, b in [(0, 1), (F(1, 5), F(4, 5)), (F(1, 3), F(2, 3)),
                     (F(2, 3), 1), (0, F(2, 3)), (F(1, 7), F(5, 6))]:
            assert pushforward_defect(golden_markov, stationary, a, b) == 0


class TestComparability:
    def test_cylinder_mass_ratios(self, gauss, gauss_measure):
        # mu/lambda on cylinders of depth <= 20 stays within [1/K', K'],
        # K' = 2.1 (observed worst ~1.34)
        rng = random.Random(1)
        worst = 1.0
        for _ in range(200):
            n = rng.randint(1, 20)
            w = tuple(rng.randint(1, 12) for _ in range(n + 1))
            c = cylinder_from_word(gauss, w)
            ratio = gauss_measure.interval_mass(c.left, c.right) / float(c.length)
            worst = max(worst, ratio, 1 / ratio)
        assert worst <= 2.1


MIXED = [[F(1, 3), F(2, 3), F(0)], [F(1, 2), F(0), F(1, 2)], [F(1, 5), F(2, 5), F(2, 5)]]


def _matrix_power(M, n, D):
    """M^n in Fractions, by squaring: the oracle of the integer-scaled chain."""
    result = [[F(1) if i == j else F(0) for j in range(D)] for i in range(D)]
    base = [list(row) for row in M]
    while n:
        if n & 1:
            result = [[sum(result[i][k] * base[k][j] for k in range(D))
                       for j in range(D)] for i in range(D)]
        base = [[sum(base[i][k] * base[k][j] for k in range(D))
                 for j in range(D)] for i in range(D)]
        n >>= 1
    return result


def _fraction_word_mass(mu, w):
    return mu.p[w[0]] * math.prod(mu.M[a][b] for a, b in zip(w, w[1:]))


class TestCorrelation:
    def test_mixed_denominators_match_the_fraction_oracle(self):
        mu = MarkovStationaryMeasure(stationary_vector(MIXED), MIXED)
        assert mu.scaled == (30, ((10, 20, 0), (15, 0, 15), (6, 12, 12)))
        for w in [(0,), (2, 1), (0, 2), (0, 1, 2), (1, 2, 2, 0), (1, 0, 0, 1, 2, 2, 2)]:
            assert mu.word_mass(w) == _fraction_word_mass(mu, w)
        # (0,) then (2,) has no step at gap 0: M[0][2] = 0
        pairs = [((1, 2, 0), (2, 2, 1)), ((2,), (0,)), ((0, 1), (1, 0)), ((2, 2), (0, 2))]
        for gap in range(201):
            P = _matrix_power(mu.M, gap + 1, 3)
            for A, Q in pairs:
                want = _fraction_word_mass(mu, Q) * P[Q[-1]][A[0]] * \
                    _fraction_word_mass(mu, A) / mu.p[A[0]]
                assert correlation_mass(mu, A, Q, len(Q) + gap) == want
        assert correlation_mass(mu, (2,), (0,), 1) == 0

    def test_uniform_exact_product(self):
        mu = MarkovStationaryMeasure.bernoulli([F(1, 2), F(1, 2)])
        for m in range(1, 7):
            for la in range(1, 4):
                A = tuple((k * 7 + 1) % 2 for k in range(la + 1))
                Q = tuple(k % 2 for k in range(m + 1))
                for ell in (m + 1, m + 2, m + 5):
                    v = correlation_mass(mu, A, Q, ell)
                    assert v == mu.word_mass(A) * mu.word_mass(Q)

    def test_skewed_bernoulli_exact_product(self):
        mu = MarkovStationaryMeasure.bernoulli([F(1, 3), F(2, 3)])
        A, Q = (0, 1, 1), (1, 0, 1)
        for ell in range(3, 9):
            assert correlation_mass(mu, A, Q, ell) == \
                mu.word_mass(A) * mu.word_mass(Q)

    def test_markov_bounded_ratio(self, markov_measure):
        # sup over ell >= m+1 of mu(T^-ell A cap Q)/(mu(A) mu(Q)) fitted <= 5
        mu = markov_measure
        worst = 0.0
        for m in range(1, 5):
            Q = tuple(k % 2 for k in range(m + 1))
            for A in ((0, 0), (0, 1), (1, 0), (1, 1)):
                base = mu.word_mass(A) * mu.word_mass(Q)
                for ell in range(m + 1, m + 8):
                    v = correlation_mass(mu, A, Q, ell)
                    worst = max(worst, float(v / base))
        assert worst <= 5.0

    def test_overlap_conflict_is_zero(self):
        mu = MarkovStationaryMeasure.bernoulli([F(1, 2), F(1, 2)])
        assert correlation_mass(mu, (0, 0), (1, 1), 1) == 0

    def test_agreeing_overlap_is_the_merged_word(self):
        # a partial overlap and a containment, under the measure and the map's own chain
        mu = MarkovStationaryMeasure(stationary_vector(MIXED), MIXED)
        for chain in (mu, MarkovLinear(MIXED, mu.p)):
            for Q, A, ell, merged in [((0, 1, 2), (1, 2, 2), 1, (0, 1, 2, 2)),
                                      ((1, 2, 2, 0), (2, 2), 1, (1, 2, 2, 0))]:
                assert correlation_mass(chain, A, Q, ell) == _fraction_word_mass(mu, merged) > 0


class TestChain:
    def test_map_and_measure_weigh_words_alike(self):
        rng = random.Random(7)
        mu = MarkovStationaryMeasure(stationary_vector(MIXED), MIXED)
        m = MarkovLinear(MIXED, mu.p)
        for _ in range(200):
            w = tuple(rng.randrange(3) for _ in range(rng.randint(1, 12)))
            assert m.word_mass(w) == mu.word_mass(w) == _fraction_word_mass(mu, w)


class TestSMBRegularFamily:
    def test_uniform_every_cylinder_qualifies(self):
        mu = MarkovStationaryMeasure.bernoulli([F(1, 2), F(1, 2)])
        words, total = smb_regular_cylinders(mu, 8, 0.3, 0, 0)
        assert len(words) == 2 ** 7
        assert total == F(2 ** 7, 2 ** 9)

    def test_skewed_mass_bound_small(self):
        # the regular cylinders inside P_1 returning onto P_2 carry at least
        # half of mu(P_1) mu(P_2); exact enumeration at N=10
        mu = MarkovStationaryMeasure.bernoulli([F(1, 3), F(2, 3)])
        for b1 in (0, 1):
            for b2 in (0, 1):
                _, total = smb_regular_cylinders(mu, 10, 0.3, b1, b2)
                assert total >= mu.p[b1] * mu.p[b2] / 2


def _smb_fraction_oracle(measure, N, eps, block_from, block_to):
    """The SMB enumeration with a Fraction mass at every node of the tree."""
    D = len(measure.p)
    h = -sum(float(measure.p[i] * measure.M[i][j]) * math.log(float(measure.M[i][j]))
             for i in range(D) for j in range(D) if measure.M[i][j] > 0)
    lo, hi = -N * (h + eps), -N * (h - eps)
    words, total = [], F(0)

    def rec(word, mass):
        nonlocal total
        if len(word) == N + 1:
            lm = math.log(mass.numerator) - math.log(mass.denominator)
            if word[-1] == block_to and lo < lm < hi:
                words.append(tuple(word))
                total += mass
            return
        for d in range(D):
            if measure.M[word[-1]][d] > 0:
                rec(word + [d], mass * measure.M[word[-1]][d])

    rec([block_from], measure.p[block_from])
    return words, total


class TestSMBIntegerEnumeration:
    def test_bernoulli_families_equal_fraction_oracle(self):
        # the families of acceptance 9 (eps 0.3) and their eps 0.35 neighbours
        mu = MarkovStationaryMeasure.bernoulli([F(1, 3), F(2, 3)])
        for eps in (0.3, 0.35):
            for b1 in (0, 1):
                for b2 in (0, 1):
                    words, total = smb_regular_cylinders(mu, 14, eps, b1, b2)
                    assert (list(words), total) == _smb_fraction_oracle(mu, 14, eps, b1, b2)

    def test_markov_families_equal_fraction_oracle(self, markov_measure, golden_markov):
        golden = MarkovStationaryMeasure(golden_markov.p, golden_markov.M)
        M3 = [[F(1, 5), F(3, 5), F(1, 5)], [F(1, 2), F(1, 4), F(1, 4)],
              [F(1, 3), F(1, 3), F(1, 3)]]
        three = MarkovStationaryMeasure(stationary_vector(M3), M3)
        for mu, N in ((markov_measure, 11), (golden, 12), (three, 7)):
            for eps in (0.05, 0.3):
                for b1 in range(len(mu.p)):
                    for b2 in range(len(mu.p)):
                        words, total = smb_regular_cylinders(mu, N, eps, b1, b2)
                        assert (list(words), total) == _smb_fraction_oracle(mu, N, eps, b1, b2)


@st.composite
def _small_chain_families(draw):
    """A stationary chain on D in {2, 3} digits whose rows have denominators
    <= 6, with a family's N <= 10, epsilon and entry and exit blocks."""
    D = draw(st.sampled_from([2, 3]))
    M = []
    for _ in range(D):
        den = draw(st.integers(1, 6))
        cuts = sorted(draw(st.lists(st.integers(0, den), min_size=D - 1, max_size=D - 1)))
        M.append([F(b - a, den) for a, b in zip([0] + cuts, cuts + [den])])
    try:
        mu = MarkovStationaryMeasure(stationary_vector(M), M)
    except MeasureError:
        assume(False)          # not primitive: no strictly positive stationary vector
    return (mu, draw(st.integers(1, 10)), draw(st.floats(0, 1)),
            draw(st.integers(0, D - 1)), draw(st.integers(0, D - 1)))


class TestSMBTypeCounting:
    @given(_small_chain_families())
    @settings(max_examples=100, deadline=None)
    def test_words_order_and_total_equal_fraction_oracle(self, family):
        mu, N, eps, b1, b2 = family
        words, total = smb_regular_cylinders(mu, N, eps, b1, b2)
        oracle = _smb_fraction_oracle(mu, N, eps, b1, b2)
        assert (list(words), total) == oracle       # list() unranks each index
        assert words[1::3] == oracle[0][1::3] and words[-2:] == oracle[0][-2:]

    def test_end_states_in_first_word_order(self, markov_measure):
        words, _ = smb_regular_cylinders(markov_measure, 11, 0.3, 0, 1)
        counts = collections.Counter(words.unrank(i)[1] for i in range(words.size))
        assert [(P, m) for (_, P), m in words.finals.items()] == list(counts.items())
        lam = [words.classes[P][0] for P in counts]
        assert sum(cnt * x for cnt, x in zip(counts.values(), lam)) == words.mass
        assert sum(cnt * words.classes[P][1] for P, cnt in counts.items()) == 1

    def test_family_past_sys_maxsize_indexes_without_len(self):
        words, total = smb_regular_cylinders(
            MarkovStationaryMeasure.bernoulli([F(1, 2)] * 2), 70, 0.3, 0, 0)
        assert words.size == 2 ** 69 and total == F(1, 4) and words
        assert words[-1] == (0,) + (1,) * 69 + (0,)
        assert words[:2] == [(0,) * 71, (0,) * 69 + (1, 0)]
        with pytest.raises(OverflowError):
            len(words)


def _chain_oracle(m, rng, length):
    """The sequential chain: one searchsorted per digit on the previous state."""
    cum = np.cumsum([[float(x) for x in row] for row in m.M], axis=1)
    out = np.empty(length, dtype=np.int64)
    out[0] = np.searchsorted(np.cumsum([float(x) for x in m.p]), rng.random(), side="right")
    u = rng.random(length - 1)
    for k in range(length - 1):
        out[k + 1] = np.searchsorted(cum[out[k]], u[k], side="right")
    return out


class TestChainSampler:
    # lengths around powers of two, where the scan's passes change count
    LENGTHS = (1, 2, 3, 7, 8, 9, 1023, 1024, 1025, 10007)

    @pytest.mark.parametrize("name", ["markov", "golden_markov", "zero_diagonal"])
    def test_equals_sequential_chain(self, request, name):
        m = request.getfixturevalue(name)
        for seed in (0, 1, 2):
            for length in self.LENGTHS:
                got = digit_draws(m, np.random.default_rng(seed))(length)
                want = _chain_oracle(m, np.random.default_rng(seed), length)
                assert got.dtype == np.min_scalar_type(m.D - 1), (seed, length)
                assert got.tolist() == want.tolist(), (seed, length)
        for seed in (5, 6):
            for length in (2 ** 16, 2 ** 16 + 1, 2 ** 16 + 2):  # tables of one and two chunks
                got = digit_draws(m, np.random.default_rng(seed))(length)
                assert np.array_equal(got, _chain_oracle(m, np.random.default_rng(seed), length))

    def test_forbidden_transitions_never_drawn(self, zero_diagonal):
        chain = digit_draws(zero_diagonal, np.random.default_rng(3))(50_000)
        assert not np.any(chain[1:] == chain[:-1])
        assert set(chain.tolist()) == {0, 1, 2}

    def test_uniform_above_a_float_row_sum_stays_in_range(self):
        # float(1/10) summed ten times is 0.9999999999999999, so a uniform
        # just below 1 lies past the cumulative row; it must still give the
        # last digit, not digit D
        tenth = [F(1, 10)] * 10
        m = MarkovLinear([tenth] * 10, tenth)
        assert np.cumsum([float(x) for x in tenth])[-1] < 1

        class NearOne:
            def random(self, size=None):
                return 1 - 2 ** -53 if size is None else np.full(size, 1 - 2 ** -53)

        assert digit_draws(m, NearOne())(5).tolist() == [9] * 5

    def test_million_digits_in_a_few_megabytes(self, markov):
        import tracemalloc
        n = 10 ** 6
        tracemalloc.start()
        try:
            digit_draws(markov, np.random.default_rng(0))(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the uniforms and the int64 output take 16 bytes a digit; the scan's
        # chunks (its two int32 tables of flat indices and its intp index
        # table, one entry a state and digit) must stay within 8 MiB more
        assert peak - 16 * n <= 8 * 2 ** 20


class TestChainSourceProperty:
    """The cut-table scan gives the sequential chain's digits on any chain,
    however the draws split the stream."""

    @settings(max_examples=30, deadline=None)
    @given(m=primitive_chains(), seed=st.integers(0, 2 ** 32 - 1),
           splits=st.lists(st.one_of(st.integers(1, 3000),
                                     st.integers(DRAW_CHUNK - 2, DRAW_CHUNK + 2)),
                           min_size=1, max_size=4))
    def test_split_draws_equal_sequential_chain(self, m, seed, splits):
        draw = digit_draws(m, np.random.default_rng(seed))
        got = np.concatenate([draw(k) for k in splits])
        want = _chain_oracle(m, np.random.default_rng(seed), sum(splits))
        assert np.array_equal(got, want)

    def test_thirty_two_states(self):
        rng = random.Random(5)      # a fixed chain, about a third of its entries 0
        m = weighted_chain([[rng.choice((0, 0, 1, 2, 3, 5)) for _ in range(32)]
                             for _ in range(32)])
        assert (np.asarray(m.M) == 0).any()
        splits = (1, 7, 1000, DRAW_CHUNK, 5)
        draw = digit_draws(m, np.random.default_rng(11))
        got = np.concatenate([draw(k) for k in splits])
        assert np.array_equal(got, _chain_oracle(m, np.random.default_rng(11), sum(splits)))


class _Uniforms:
    """A generator stand-in that serves the given uniforms in order."""

    def __init__(self, u):
        self.u, self.at = np.asarray(u, dtype=float), 0

    def random(self, size=None):
        n = 1 if size is None else size
        out, self.at = self.u[self.at:self.at + n], self.at + n
        return float(out[0]) if size is None else out


def _guide_buckets(m, u):
    """The cut count of each uniform u read from the map's guide table: its
    cell's count and one compare with each of the R cuts that follow it."""
    G, base, slots = m.float_chain[1]
    cell = (u * G).astype(np.intp)
    return base[cell] + (u >= slots[:, cell]).sum(axis=0)


def _edge_uniforms(m, seed):
    """Random uniforms, every cut and its float neighbours, the guide's cell
    edges k/G, 0 and the largest double below 1: those in [0, 1)."""
    cuts, G = _cuts(m), m.float_chain[1][0]
    u = np.concatenate((np.random.default_rng(seed).random(200), cuts, np.nextafter(cuts, -1),
                        np.nextafter(cuts, 2), np.arange(G) / G, [0.0, 1 - 2 ** -53]))
    return u[(0 <= u) & (u < 1)]


def _oracle_uniforms(m, u):
    """The uniforms u below the float sums of p and of every row of M: past
    one, the sequential oracle reads digit D."""
    return u[u < min(np.cumsum([float(x) for x in row])[-1] for row in [*m.M, m.p])]


def _cuts(m):
    """The distinct inner cuts of M's rows, as float_chain makes them."""
    cum = np.cumsum([[float(x) for x in row] for row in m.M], axis=1)
    for i in range(m.D):
        cum[i, max(m.branch_targets(i)):] = 1.0
    return np.unique(cum[:, :-1])


def _assert_guide_gives_searchsorted(m, seed):
    """At _edge_uniforms, the guide's buckets are searchsorted's and the chain's
    digits those of the sequential oracle."""
    u = _edge_uniforms(m, seed)
    assert np.array_equal(_guide_buckets(m, u), np.searchsorted(_cuts(m), u, side="right"))
    u = _oracle_uniforms(m, u)
    assert np.array_equal(digit_draws(m, _Uniforms(u))(len(u)),
                          _chain_oracle(m, _Uniforms(u), len(u)))


class TestGuideTable:
    """The guide table gives each uniform the bucket np.searchsorted gives
    among the cuts, so the chain's digits stay those of the sequential chain."""

    @settings(max_examples=60, deadline=None)
    @given(m=primitive_chains(max_states=16), seed=st.integers(0, 2 ** 32 - 1))
    def test_bucket_equals_searchsorted(self, m, seed):
        _assert_guide_gives_searchsorted(m, seed)
        G, _, slots = m.float_chain[1]
        assert len(slots) <= 1 or G == 2 ** 12     # a cell holds two cuts only at the cap

    def test_several_cuts_in_one_cell(self):
        # cuts 1/5003, 1/5002 and 1/5001 lie within 2^-12 of each other, so even
        # the finest guide holds all three in its first cell, past the cut at 0
        m = weighted_chain([[1, 5000, 0], [0, 1, 5001], [1, 0, 5002]])
        G, _, slots = m.float_chain[1]
        cuts = _cuts(m)
        assert G == 2 ** 12 and len(slots) == 3 and cuts[0] == 0.0 and cuts[-1] == 1.0
        _assert_guide_gives_searchsorted(m, 0)

    @pytest.mark.parametrize("name, G", [("markov", 4), ("golden_markov", 2), ("zero_diagonal", 2)])
    def test_dyadic_cuts_are_cell_edges(self, request, name, G):
        # every cut is a multiple of 1/G, so the cell's count alone places u: R = 0
        m = request.getfixturevalue(name)
        assert m.float_chain[1][0] == G and len(m.float_chain[1][2]) == 0


class TestCoalescingScan:
    """The chain scan stops before the first pass whose rows have all
    coalesced, and its streams stay those of the sequential chain."""

    def test_rarely_coalescing_chain_equals_sequential_chain(self, monkeypatch):
        # a step table row is constant only where u < 1/100 or u >= 99/100,
        # so the scan runs close to all of its ceil(log2 length) passes
        M = [[F(99, 100), F(1, 100)], [F(1, 100), F(99, 100)]]
        m = MarkovLinear(M, stationary_vector(M))
        checks = []
        monkeypatch.setattr(measures, "_coalesced",
                            lambda g, test=measures._coalesced: checks.append(len(g)) or test(g))
        for seed in (0, 1, 2):
            for length in (2, 3, 1024, 1025, 10007, 2 ** 16 + 2):
                checks.clear()
                got = digit_draws(m, np.random.default_rng(seed))(length)
                assert np.array_equal(got, _chain_oracle(m, np.random.default_rng(seed), length))
            assert len(checks) >= 9          # a full scan of 2^16 digits makes 16 passes

    def test_scan_stops_once_rows_coalesce(self, markov, monkeypatch):
        checks = []
        monkeypatch.setattr(measures, "_coalesced",
                            lambda g, test=measures._coalesced: checks.append(len(g)) or test(g))
        got = digit_draws(markov, np.random.default_rng(0))(2 ** 17 + 1)
        # two full table chunks, whose full scans make 16 passes each; the last
        # digit's one-row table makes none
        assert len(checks) <= 2 * 6
        assert np.array_equal(got, _chain_oracle(markov, np.random.default_rng(0), 2 ** 17 + 1))


class TestTrialSeeds:
    def test_documented_hash(self):
        import hashlib
        d = hashlib.sha256(b"shrinktargets:7:3").digest()
        assert trial_seed(7, 3) == int.from_bytes(d[:8], "big")

    def test_distinct(self):
        seeds = {trial_seed(0, t) for t in range(1000)}
        assert len(seeds) == 1000
