import math
from fractions import Fraction as F

import numpy as np
import pytest

from shrinktargets import (
    Schedule,
    ScheduleError,
    TargetPoint,
    ball_mass_array,
    ball_mass_bruteforce,
    borel_cantelli_classify,
    refine_schedule_to_depths,
    run_metric_hits,
    run_symbolic_hits,
    trial_seed,
)
from shrinktargets.measures import MarkovStationaryMeasure

LOG2 = math.log(2)


class TestSchedule:
    def test_rates_closed_forms(self):
        assert Schedule.radii_power(2.0).rates() == {"ell_bar": 0.0, "ell_lower": 0.0}
        r = Schedule.radii_exp(0.7).rates()
        assert r["ell_bar"] == r["ell_lower"] == 0.7
        assert Schedule.depth_power_floor(0.5).rates()["w_bar"] == 0.0
        assert Schedule.depth_power_floor(2.0).rates()["w_bar"] == math.inf
        assert Schedule.depth_log_floor().rates()["w_bar"] == 0.0

    def test_monotonicity_validation(self):
        with pytest.raises(ScheduleError):
            Schedule.custom_radii([0.5, 0.7, 0.1])
        with pytest.raises(ScheduleError):
            Schedule.custom_depths([3, 2])
        with pytest.raises(ScheduleError):
            Schedule.radii_power(-1)

    @pytest.mark.parametrize("base", [0.5, 1])
    def test_log_base_at_most_one_rejected(self, base):
        with pytest.raises(ScheduleError, match="base"):
            Schedule.depth_log_floor(base)

    def test_depth_arrays(self):
        s = Schedule.depth_log_floor(2)
        t = s.depths_array(16)
        assert list(t[:4]) == [0, 1, 1, 2]
        assert t[15] == 4  # floor(log2 16)
        s2 = Schedule.depth_power_floor(2)
        assert list(s2.depths_array(4)) == [1, 4, 9, 16]


class TestSymbolicHits:
    def test_const_zero_depth_frequency(self, dary2, lebesgue):
        # hit iff the leading digit matches: ratio -> 1 with normalizer n/2
        tgt = TargetPoint.from_word(dary2, (0, 1))
        hs = run_symbolic_hits(dary2, lebesgue, tgt, Schedule.depth_const(0),
                               20000, 8, 11)
        assert hs.normalizer[-1] == pytest.approx(10000.0)
        assert hs.mean_final_ratio() == pytest.approx(1.0, abs=0.03)

    def test_power_floor_two_bounded_hits(self, dary2, lebesgue):
        tgt = TargetPoint.from_word(dary2, (0, 1))
        hs = run_symbolic_hits(dary2, lebesgue, tgt, Schedule.depth_power_floor(2),
                               10 ** 5, 50, 0)
        finals = hs.hits[:, -1]
        assert np.mean(finals <= 3) >= 0.99
        assert finals.max() <= 5

    def test_markov_engine(self, markov, markov_measure):
        tgt = TargetPoint.from_word(markov, (0, 1))
        hs = run_symbolic_hits(markov, markov_measure, tgt,
                               Schedule.depth_log_floor(2), 20000, 10, 5)
        assert 0.5 <= hs.mean_final_ratio() <= 1.5

    def test_needs_depth_schedule(self, dary2, lebesgue):
        with pytest.raises(ScheduleError):
            run_symbolic_hits(dary2, lebesgue, TargetPoint.from_word(dary2, (0, 1)),
                              Schedule.radii_power(1.0), 100, 1, 0)


class TestMetricHits:
    def test_const_radius_everything(self, dary2, lebesgue):
        hs = run_metric_hits(dary2, lebesgue, TargetPoint.from_point(dary2, F(1, 3)),
                             Schedule.radii_const(1.0), 500, 3, 1)
        assert hs.hits[:, -1].tolist() == [500, 500, 500]
        assert hs.mean_final_ratio() == pytest.approx(1.0)

    def test_engine_matches_exact_stream_oracle(self, dary2, lebesgue):
        """Feed the engine's own digit stream to an exact-arithmetic oracle
        and require identical hit decisions at every step."""
        N, seed = 4000, 13
        sched = Schedule.radii_power(1.0)
        hs = run_metric_hits(dary2, lebesgue, TargetPoint.from_point(dary2, F(1, 3)),
                             sched, N, 1, seed, collect_hits=True)
        rng = np.random.default_rng(trial_seed(seed, 0))
        stream = rng.integers(0, 2, size=N + 52 + 2, dtype=np.int64)
        # the whole stream as one binary numeral: the window stream[i:] is
        # the number formed by its last L - i bits
        L = len(stream)
        V = int("".join(map(str, stream.tolist())), 2)
        x0 = F(1, 3)
        hits = []
        for i in range(1, N + 1):
            lo = F(V % (1 << (L - i)), 1 << (L - i))
            hi = lo + F(1, 1 << (L - i))
            r = F(float(sched.radius(i)))
            if hi <= x0 + r and lo >= x0 - r:
                hits.append(i)
            else:
                # certified miss (the bracket is far finer than the margin)
                assert lo > x0 + r or hi < x0 - r
        assert hits == hs.hit_indices[0].tolist()

    def test_reciprocal_radii_ratio_near_one(self, dary2, lebesgue):
        # r_n = 1/n at the uniform shift: the quantitative limit is 1
        hs = run_metric_hits(dary2, lebesgue, TargetPoint.from_point(dary2, F(1, 3)),
                             Schedule.radii_power(1.0), 10 ** 6, 100, 0)
        assert 0.9 <= hs.mean_final_ratio() <= 1.1

    def test_monotone_coupling(self, dary2, lebesgue):
        # same seed, smaller radii: hits cannot increase
        tgt = TargetPoint.from_point(dary2, F(1, 3))
        big = run_metric_hits(dary2, lebesgue, tgt, Schedule.radii_power(1.0),
                              5000, 6, 21)
        small = run_metric_hits(dary2, lebesgue, tgt, Schedule.radii_power(0.5),
                                5000, 6, 21)
        assert np.all(small.hits[:, -1] <= big.hits[:, -1])

    def test_markov_window_engine(self, markov, lebesgue):
        tgt = TargetPoint.from_point(markov, F(1, 3))
        hs = run_metric_hits(markov, lebesgue, tgt, Schedule.radii_power(1.0),
                             2000, 4, 3)
        assert hs.engine == "symbolic-window"
        assert 0.3 <= hs.mean_final_ratio() <= 2.0

    def test_golden_mean_window_engine(self, golden_markov):
        # the chain has max M_ij = 1, so the window width must come from the
        # certified expansion; hit counts are compound Poisson with mean equal
        # to the normalizer, variance inflated by at most 4 at a fixed point
        mu = MarkovStationaryMeasure(golden_markov.p, golden_markov.M)
        tgt = TargetPoint.from_point(golden_markov, F(1, 3))
        hs = run_metric_hits(golden_markov, mu, tgt, Schedule.radii_power(2.0),
                             400, 2, 6)
        norm = float(hs.normalizer[-1])
        assert abs(hs.mean_final_ratio() - 1) <= 5 * math.sqrt(4 / (2 * norm))

    def test_gauss_float_engine(self, gauss, gauss_measure):
        tgt = TargetPoint.from_word(gauss, (1,))
        hs = run_metric_hits(gauss, gauss_measure, tgt, Schedule.radii_power(1.0),
                             20000, 10, 7, horizons=[2000, 20000])
        assert hs.engine == "float-orbit"
        assert 0.7 <= hs.mean_final_ratio() <= 1.3

    def test_symbolic_hits_are_metric_hits(self, dary2, lebesgue):
        """With t_k refined from r_k, P(t_k, x0) sits inside B(x0, r_k), so
        every symbolic hit must be a metric hit, trial by trial."""
        x0 = F(1, 3)
        N, seed = 3000, 17
        radii = [F(1, 2) * F(1, k) for k in range(1, N + 1)]
        depths = refine_schedule_to_depths(dary2, x0, radii)
        met = run_metric_hits(dary2, lebesgue, TargetPoint.from_point(dary2, x0),
                              Schedule.custom_radii([float(r) for r in radii]),
                              N, 3, seed, collect_hits=True)
        sym = run_symbolic_hits(dary2, lebesgue, TargetPoint.from_point(dary2, x0),
                                Schedule.custom_depths(depths), N, 3, seed,
                                collect_hits=True)
        for t in range(3):
            assert set(sym.hit_indices[t]).issubset(set(met.hit_indices[t]))

    def test_blaschke_circle_engine(self, blaschke_two, lebesgue):
        tgt = TargetPoint.from_point(blaschke_two, 0.2)
        hs = run_metric_hits(blaschke_two, lebesgue, tgt,
                             Schedule.radii_power(1.0), 5000, 6, 2)
        assert hs.engine == "float-orbit"
        # circle normalizer: arc mass min(2r, 1)
        assert hs.normalizer[-1] == pytest.approx(
            float(np.minimum(2 * Schedule.radii_power(1.0).radii_array(5000),
                             1.0).sum()))
        assert 0.6 <= hs.mean_final_ratio() <= 1.4

    def test_window_minima_monotone_for_convergent_radii(self, gauss, gauss_measure):
        tgt = TargetPoint.from_word(gauss, (1,))
        hs = run_metric_hits(gauss, gauss_measure, tgt, Schedule.radii_power(0.5),
                             10 ** 4, 20, 9, horizons=[10 ** 2, 10 ** 3, 10 ** 4])
        med = np.median(hs.window_minima, axis=0)
        assert med[0] < med[1] < med[2]


class TestNormalizer:
    def test_closed_form_vs_bruteforce(self, dary2, gauss, lebesgue, gauss_measure):
        radii = Schedule.radii_power(1.0).radii_array(10 ** 4)
        for m, mu, x0 in ((dary2, lebesgue, 1 / 3), (gauss, gauss_measure, 0.41)):
            fast = ball_mass_array(mu, m, x0, radii)
            slow = ball_mass_bruteforce(mu, m, x0, radii)
            assert float(np.abs(fast - np.asarray(slow)).max()) < 1e-12


class TestClassifier:
    def test_gauss_dichotomy(self, gauss, gauss_measure):
        tgt = TargetPoint.from_word(gauss, (1,))
        assert borel_cantelli_classify(
            gauss, gauss_measure, tgt, Schedule.radii_power(2.0)).verdict == \
            "FullMeasure"
        assert borel_cantelli_classify(
            gauss, gauss_measure, tgt, Schedule.radii_power(0.5)).verdict == \
            "MeasureZero"

    def test_bernoulli_dichotomy(self, dary2, lebesgue):
        tgt = TargetPoint.from_word(dary2, (0, 1))
        assert borel_cantelli_classify(
            dary2, lebesgue, tgt, Schedule.depth_log_floor()).verdict == \
            "FullMeasure"
        assert borel_cantelli_classify(
            dary2, lebesgue, tgt, Schedule.depth_power_floor(2.0)).verdict == \
            "MeasureZero"

    def test_log_floor_converges_for_rich_alphabet(self, lebesgue):
        # with D = 4 the log-floor masses sum like n^(-log 4), convergent
        from shrinktargets import bernoulli_map
        m4 = bernoulli_map([F(1, 4)] * 4)
        mu4 = MarkovStationaryMeasure.bernoulli([F(1, 4)] * 4)
        tgt = TargetPoint.from_word(m4, (0, 1, 2, 3))
        assert borel_cantelli_classify(
            m4, mu4, tgt, Schedule.depth_log_floor()).verdict == "MeasureZero"

    @pytest.mark.parametrize("D", [2, 3, 10])
    def test_log_floor_base_D_borderline_diverges(self, lebesgue, D):
        # depth-t masses are D^-(t+1) and each D-adic block of n adds (D-1)/D
        from shrinktargets import DAryShift
        m = DAryShift(D)
        tgt = TargetPoint.from_word(m, (0, 1))
        v = borel_cantelli_classify(m, lebesgue, tgt, Schedule.depth_log_floor(D))
        assert v.verdict == "FullMeasure" and not v.heuristic

    def test_borderline_alpha_inconclusive(self, dary2, lebesgue):
        tgt = TargetPoint.from_word(dary2, (0, 1))
        v = borel_cantelli_classify(dary2, lebesgue, tgt, Schedule.radii_power(1.0))
        assert v.verdict == "Inconclusive"

    def test_const_and_exp(self, dary2, lebesgue):
        tgt = TargetPoint.from_word(dary2, (0, 1))
        assert borel_cantelli_classify(
            dary2, lebesgue, tgt, Schedule.radii_const(0.1)).verdict == "FullMeasure"
        assert borel_cantelli_classify(
            dary2, lebesgue, tgt, Schedule.radii_exp(0.5)).verdict == "MeasureZero"
        assert borel_cantelli_classify(
            dary2, lebesgue, tgt, Schedule.depth_const(3)).verdict == "FullMeasure"

    def test_custom_heuristic_flagged(self, dary2, lebesgue):
        tgt = TargetPoint.from_word(dary2, (0, 1))
        # long convergent table: increments decay fast enough to call
        conv = [min(0.4, k ** -2.0) for k in range(1, 10 ** 5 + 1)]
        v = borel_cantelli_classify(dary2, lebesgue, tgt,
                                    Schedule.custom_radii(conv))
        assert v.heuristic and v.verdict == "MeasureZero"
        # long divergent table
        div = [min(0.4, k ** -0.5) for k in range(1, 10 ** 5 + 1)]
        v = borel_cantelli_classify(dary2, lebesgue, tgt,
                                    Schedule.custom_radii(div))
        assert v.heuristic and v.verdict == "FullMeasure"
        # short table padded by a vanishing tail: genuinely ambiguous
        short = [0.5 ** k for k in range(1, 200)]
        v = borel_cantelli_classify(dary2, lebesgue, tgt,
                                    Schedule.custom_radii(short))
        assert v.heuristic and v.verdict == "Inconclusive"

    def test_reports_series_and_partials(self, gauss, gauss_measure):
        tgt = TargetPoint.from_word(gauss, (1,))
        v = borel_cantelli_classify(gauss, gauss_measure, tgt,
                                    Schedule.radii_power(2.0))
        assert "eps" in v.series or "eps" in v.reasoning
        assert len(v.partial_sums) == 3


class TestMassRates:
    def test_uniform_rates_match_closed_form(self, dary2, lebesgue):
        from shrinktargets import target_mass_rates
        tgt = TargetPoint.from_word(dary2, (0, 1))
        # linear depths: t_n = n, so L = log 2 exactly up to the +1 digit
        r = target_mass_rates(Schedule.custom_depths(list(range(1, 2001))),
                              dary2, lebesgue, tgt, n_grid=(100, 500, 2000))
        assert r["L_bar"] == pytest.approx(LOG2, rel=0.02)
        assert r["closed_form"]["L_bar"] == pytest.approx(LOG2, rel=1e-12)


class TestTargetPoint:
    def test_finite_partition_exact_dims(self, dary2, markov, lebesgue):
        for m in (dary2, markov):
            tgt = TargetPoint.from_word(m, (0, 1))
            lo, hi, meta = tgt.local_dims(lebesgue)
            assert (lo, hi) == (1.0, 1.0) and meta["exact"]
            tau, meta = tgt.tau_bar()
            assert tau == 0.0 and meta["exact"]

    def test_gauss_bounded_digits(self, gauss, gauss_measure):
        tgt = TargetPoint.from_word(gauss, (1,))
        lo, hi, _ = tgt.local_dims(gauss_measure)
        assert 0.9 < lo <= hi < 1.1
        tau, _ = tgt.tau_bar()
        assert tau == 0.0

    def test_periodic_word_value(self, dary2):
        tgt = TargetPoint.from_word(dary2, (0, 1))
        assert tgt.value == F(1, 3)
        assert tgt.digits(5) == (0, 1, 0, 1, 0, 1)


class TestHitSeries:
    def test_csv_rows_and_summary(self, dary2, lebesgue):
        tgt = TargetPoint.from_word(dary2, (0, 1))
        hs = run_symbolic_hits(dary2, lebesgue, tgt, Schedule.depth_const(1),
                               1000, 2, 0, horizons=[100, 1000])
        rows = list(hs.csv_rows())
        assert len(rows) == 4  # 2 trials x 2 checkpoints
        assert rows[0][1] == 100 and rows[1][1] == 1000
        s = hs.summary()
        assert s["trials"] == 2 and s["checkpoints"] == [100, 1000]
        lo, hi = hs.ci95()
        assert lo <= s["mean_ratio"] <= hi
