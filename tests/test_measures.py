import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from shrinktargets import (
    MarkovStationaryMeasure,
    MeasureError,
    bernoulli_map,
    correlation_mass,
    cylinder_from_word,
    entropy_birkhoff,
    entropy_birkhoff_batch,
    entropy_closed_form,
    entropy_smb,
    pushforward_defect,
    smb_regular_cylinders,
    stationary_vector,
    trial_seed,
)
from shrinktargets.measures import GAUSS_ENTROPY, float_orbit_start, float_orbit_step

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
        # decomposing [a,b) into cylinders recovers Lebesgue length exactly
        a, b = F(1, 7), F(5, 8)
        assert markov_measure.interval_mass(a, b, m=markov) == b - a


class TestStationaryVector:
    def test_symmetric(self):
        assert stationary_vector([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]) == \
            (F(1, 2), F(1, 2))

    def test_periodic_rejected(self):
        with pytest.raises(MeasureError, match="not primitive"):
            stationary_vector([[0, 1], [1, 0]])

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
        rngs, x = float_orbit_start(gauss_measure, [7, 8])
        x[0] = 0.5  # 1/x = 2: the orbit ends at 0
        x, restarts = float_orbit_step(gauss, gauss_measure, x, rngs)
        own, other = np.random.default_rng(7), np.random.default_rng(8)
        gauss_measure.sample(own, 1), other.random()
        assert restarts == 1 and x[0] == gauss_measure.sample(own, 1)[0]
        assert rngs[1].random() == other.random()

    def test_gauss_within_three_stderr(self, gauss, gauss_measure):
        est = entropy_birkhoff_batch(gauss, gauss_measure, 10 ** 5, 12, 3)
        assert abs(est.value - GAUSS_ENTROPY) <= 3 * est.standard_error
        assert est.details["resampled"] < 5


class TestEntropySMB:
    def test_dary_exact(self, dary2, lebesgue):
        est = entropy_smb(dary2, lebesgue, F(1, 3), 10)
        assert est.value == pytest.approx(11 / 10 * LOG2, abs=1e-14)

    def test_uniform_four_symbols(self):
        m = bernoulli_map([F(1, 4)] * 4)
        mu = MarkovStationaryMeasure.bernoulli([F(1, 4)] * 4)
        est = entropy_smb(m, mu, F(1, 5), 10)
        assert est.value == pytest.approx(math.log(4) * 11 / 10, abs=1e-14)

    def test_gauss_spread(self, gauss, gauss_measure):
        """Finite-depth SMB quotients at n=30 over 100 random rationals.

        Oracle-frozen behavior: the mean sits within the (n+1)/n inflation
        of the true entropy, but the per-seed spread is wide (sd ~ 0.29),
        so only ~42/100 seeds land within 0.15 of the entropy.
        """
        rng = random.Random(0)
        vals = []
        within = 0
        for _ in range(100):
            while True:
                x = F(rng.getrandbits(64), 2 ** 64)
                try:
                    est = entropy_smb(gauss, gauss_measure, x, 30)
                    break
                except Exception:
                    continue
            vals.append(est.value)
            within += abs(est.value - GAUSS_ENTROPY) <= 0.15
        mean = sum(vals) / len(vals)
        assert mean == pytest.approx(2.3937234573931536, abs=1e-9)
        assert abs(mean - GAUSS_ENTROPY) < 0.1
        assert within == 42


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
    def test_gauss_density_bounds(self, gauss_measure):
        lo, hi = gauss_measure.density_bounds()
        assert lo == pytest.approx(1 / (2 * LOG2))
        assert hi == pytest.approx(1 / LOG2)
        assert gauss_measure.comparability_constant() == 2.0

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


class TestCorrelation:
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


class TestTrialSeeds:
    def test_documented_hash(self):
        import hashlib
        d = hashlib.sha256(b"shrinktargets:7:3").digest()
        assert trial_seed(7, 3) == int.from_bytes(d[:8], "big")

    def test_distinct(self):
        seeds = {trial_seed(0, t) for t in range(1000)}
        assert len(seeds) == 1000
