import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from shrinktargets import (
    DAryShift,
    GaussMap,
    Schedule,
    ScheduleError,
    TargetPoint,
    ball_mass_array,
    borel_cantelli_classify,
    cylinder_from_word,
    entropy_birkhoff,
    refine_schedule_to_depths,
    run_metric_hits,
    run_symbolic_hits,
    trial_seed,
)
from shrinktargets.maps import BoundaryHit
from shrinktargets.measures import (
    GaussMeasure,
    MarkovStationaryMeasure,
    float_orbit_start,
    float_orbit_step,
)
from shrinktargets.recurrence import (
    _digit_stream,
    _window_positions,
    _window_width,
    cylinder_mass_by_depth,
    local_dims,
    tau_bar,
)

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

    @pytest.mark.parametrize("make, msg", [
        (lambda: Schedule.custom_depths([-1, 2]), ">= 0"),
        (lambda: Schedule.depth_const(-1), ">= 0"),
        (lambda: Schedule.custom_depths([]), "empty"),
        (lambda: Schedule.custom_radii([]), "empty"),
    ])
    def test_negative_depth_or_empty_table_rejected(self, make, msg):
        with pytest.raises(ScheduleError, match=msg):
            make()

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


def _exact_binary_hits(stream, x0, sched, N):
    """Hit indices of the D = 2 metric engine decided exactly from its digit
    stream.  The whole stream is one binary numeral: the window stream[i:]
    is the number formed by its last L - i bits."""
    L = len(stream)
    V = int("".join(map(str, stream.tolist())), 2)
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
    return hits


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
        assert _exact_binary_hits(stream, F(1, 3), sched, N) == hs.hit_indices[0].tolist()

    def test_borderline_step_resolved_exactly(self, dary2, lebesgue):
        """A constant radius equal to the float distance at step 1 puts that
        step inside the margin: the exact resolver decides it, and every
        decision matches the exact stream.  At this seed the float test
        alone would call step 1 a hit; the exact point lies outside."""
        N, seed, x0 = 200, 10, F(1, 3)
        W = _window_width(dary2, 0.05)[0]
        stream = np.random.default_rng(trial_seed(seed, 0)).integers(
            0, 2, size=N + W + 2, dtype=np.int64)
        r = abs(float(_window_positions(dary2, stream, N, W)[0]) - float(x0))
        assert _window_width(dary2, r)[0] == W
        sched = Schedule.radii_const(r)
        hs = run_metric_hits(dary2, lebesgue, TargetPoint.from_point(dary2, x0),
                             sched, N, 1, seed, collect_hits=True)
        assert hs.ambiguous_resolved >= 1 and hs.hit_indices[0][0] != 1
        assert _exact_binary_hits(stream, x0, sched, N) == hs.hit_indices[0].tolist()

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


class _HalfStartGauss(GaussMeasure):
    """Gauss measure whose first draw, the start of trial 0, is 1/2: the map
    sends it to 0, so trial 0 restarts from its own generator at n = 1."""

    def __init__(self):
        self.first = True

    def sample(self, rng, size):
        if self.first:
            self.first = False
            return np.array([0.5])
        return super().sample(rng, size)


def _metric_float_orbit_per_step(m, measure, x0f, radii, N, trials, seeds, cps,
                                 collect_hits):
    """The float-orbit metric engine as one Python step per n: the reference
    that the block engine must match bit for bit."""
    rngs, x = float_orbit_start(measure, seeds)
    resampled = 0
    hitcount = np.zeros(trials, dtype=np.int64)
    hits = np.zeros((trials, len(cps)), dtype=np.int64)
    wmins = np.full((trials, len(cps)), np.inf)
    cp_set = {c: k for k, c in enumerate(cps)}
    hit_idx = [[] for _ in range(trials)] if collect_hits else None
    window = 0
    for n in range(1, N + 1):
        x, restarts = float_orbit_step(m, measure, x, rngs)
        resampled += restarts
        d = np.abs(x - x0f)
        if m.circle:
            d = np.minimum(d, 1.0 - d)
        r = radii[n - 1]
        sel = d <= r
        hitcount += sel
        if collect_hits and sel.any():
            for t in np.flatnonzero(sel):
                hit_idx[t].append(n)
        np.minimum(wmins[:, window], d / r, out=wmins[:, window])
        if n in cp_set:
            hits[:, cp_set[n]] = hitcount
            window = min(window + 1, len(cps) - 1)
    return hits, wmins, resampled, hit_idx


def _birkhoff_float_per_step(m, measure, n_iter, seeds):
    """(mean, stderr, resampled) of the float Birkhoff sums, one step per n."""
    rngs, x = float_orbit_start(measure, seeds)
    s = np.zeros(len(seeds))
    resampled = 0
    for _ in range(n_iter):
        s += m.log_derivative_array(x)
        x, restarts = float_orbit_step(m, measure, x, rngs)
        resampled += restarts
    vals = s / n_iter
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(seeds))), resampled


class TestFloatOrbitBlocks:
    """The block engine (one map step per n, decisions per block of rows)
    is bit-identical to the per-step loop, also across block edges."""

    @staticmethod
    def _case(kind, blaschke_two, lebesgue):
        if kind == "gauss":
            return GaussMap(), _HalfStartGauss, (1,)
        return blaschke_two, lambda: lebesgue, 0.3

    @pytest.mark.parametrize("kind", ["gauss", "blaschke"])
    @pytest.mark.parametrize("N", [1, 127, 128, 129, 2 * 128 + 5])
    @pytest.mark.parametrize("horizons", [None, [127, 128, 255, 256], [1, 5, 100, 200]])
    def test_metric_matches_per_step_loop(self, kind, N, horizons, blaschke_two, lebesgue):
        m, measure, x0 = self._case(kind, blaschke_two, lebesgue)
        tgt = TargetPoint.from_word(m, x0) if isinstance(x0, tuple) \
            else TargetPoint.from_point(m, x0)
        sched = Schedule.radii_power(1.0)
        hs = run_metric_hits(m, measure(), tgt, sched, N, 4, 5, horizons=horizons,
                             collect_hits=True)
        hits, wmins, resampled, hit_idx = _metric_float_orbit_per_step(
            m, measure(), tgt.float_value(), sched.radii_array(N), N, 4,
            hs.trial_seeds, hs.checkpoints, True)
        assert hs.hits.tolist() == hits.tolist()
        assert hs.window_minima.tolist() == wmins.tolist()
        assert [h.tolist() for h in hs.hit_indices] == hit_idx
        assert hs.resampled == resampled and resampled >= (kind == "gauss")

    @pytest.mark.parametrize("kind", ["gauss", "blaschke"])
    @pytest.mark.parametrize("n_iter", [1, 127, 128, 129, 2 * 128 + 5])
    def test_birkhoff_matches_per_step_loop(self, kind, n_iter, blaschke_two, lebesgue):
        m, measure, _ = self._case(kind, blaschke_two, lebesgue)
        est = entropy_birkhoff(m, measure(), n_iter, 4, 5)
        seeds = [trial_seed(5, t) for t in range(4)]
        want = _birkhoff_float_per_step(m, measure(), n_iter, seeds)
        assert (est.value, est.standard_error, est.details["resampled"]) == want
        assert want[2] >= (kind == "gauss")


def _band(hs, trials):
    """Mean hitting ratio within 5 compound-Poisson deviations of 1 (variance
    inflated by at most 4 at a periodic target)."""
    norm = float(hs.normalizer[-1])
    return abs(hs.mean_final_ratio() - 1) <= 5 * math.sqrt(4 / (trials * norm))


class TestMarkovFastPath:
    def test_seeded_outputs_pinned(self, markov, markov_measure, golden_markov):
        """Seeded Markov outputs pinned to the values of a digit-by-digit
        chain and of windows composed one Fraction branch at a time."""
        stream = _digit_stream(markov, markov_measure, np.random.default_rng(11), 40)
        assert stream.tolist() == [0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1,
                                   1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0]
        alt = TargetPoint.from_word(markov, (0, 1))
        sym = run_symbolic_hits(markov, markov_measure, alt, Schedule.depth_log_floor(4),
                                10000, 4, 3)
        assert sym.hits.tolist() == [[46], [51], [34], [40]]
        met = run_metric_hits(markov, markov_measure, alt, Schedule.radii_power(2.0), 300, 2, 0)
        assert met.hits.tolist() == [[64], [60]] and met.ambiguous_resolved == 0
        golden_mu = MarkovStationaryMeasure(golden_markov.p, golden_markov.M)
        met = run_metric_hits(golden_markov, golden_mu,
                              TargetPoint.from_point(golden_markov, F(1, 3)),
                              Schedule.radii_power(2.0), 400, 2, 0)
        assert met.hits.tolist() == [[77], [76]] and met.ambiguous_resolved == 0
        est = entropy_birkhoff(markov, markov_measure, 5000, 8, 5)
        assert (est.value, est.standard_error) == (0.6040988158870807, 0.0031843492106405666)

    @pytest.mark.parametrize("kind", ["dary2", "dary3", "dary10", "chain", "golden"])
    def test_float_positions_within_rounding_term(self, kind, markov, golden_markov, lebesgue):
        m = {"dary2": DAryShift(2), "dary3": DAryShift(3), "dary10": DAryShift(10),
             "chain": markov, "golden": golden_markov}[kind]
        N, extra = 150, 40
        W, truncation, rounding = _window_width(m, 1 / math.sqrt(N))
        start = F(0) if isinstance(m, DAryShift) else F(1, 2)
        worst = worst_cut = F(0)
        for seed in (0, 1, 2):
            stream = _digit_stream(m, lebesgue, np.random.default_rng(seed),
                                   N + W + extra + 2)
            pos = _window_positions(m, stream, N, W)
            s = stream.tolist()
            for i in range(N):
                y = start
                for k in range(i + W, i, -1):
                    A, B = m.branch_affine(s[k], s[k + 1])
                    y = A + B * y
                worst = max(worst, abs(F(float(pos[i])) - y))
                # the true point lies in the cylinder of the longer word
                c = cylinder_from_word(m, s[i + 1:i + W + extra + 2])
                worst_cut = max(worst_cut, abs(c.left - y), abs(c.right - y))
        assert worst <= rounding
        assert worst_cut <= truncation
        if kind == "dary10":
            assert worst > truncation    # the truncation term alone misses rounding

    def test_zero_diagonal_chain_runs_every_engine(self, zero_diagonal):
        m = zero_diagonal
        mu = MarkovStationaryMeasure(m.p, m.M)
        c = cylinder_from_word(m, (0, 1, 2, 0))
        assert (c.left, c.right) == (F(1, 12), F(1, 8))
        target = TargetPoint.from_word(m, (0, 1, 2))
        sym = run_symbolic_hits(m, mu, target, Schedule.depth_log_floor(2), 20000, 4, 1)
        met = run_metric_hits(m, mu, target, Schedule.radii_power(2.0), 20000, 4, 1)
        assert _band(sym, 4) and _band(met, 4)
        # every branch has slope 2
        assert entropy_birkhoff(m, mu, 5000, 4, 1).value == pytest.approx(LOG2, abs=1e-12)

    def test_speed_gate(self, markov, markov_measure):
        """Budgeted run of the Markov window engine: chain [[3/4,1/4],[1/2,1/2]],
        r_n = n^-1/2, 100,000 steps x 2 trials within 10 s."""
        t0 = time.perf_counter()
        hs = run_metric_hits(markov, markov_measure, TargetPoint.from_word(markov, (0, 1)),
                             Schedule.radii_power(2.0), 100_000, 2, 0)
        elapsed = time.perf_counter() - t0
        assert elapsed <= 10.0, f"{elapsed:.2f} s over the 10 s budget"
        assert _band(hs, 2)


class TestExactResolver:
    def test_ambiguous_last_step_reads_on(self, dary2, lebesgue):
        # r = the float distance at n = N; the W + 2 stored digits of T^N x
        # straddle the ball edge, so the verdict needs the orbit's further
        # digits, which come from the trial's generator after its stream
        N, seed, x0 = 40, 0, F(1, 3)
        rng = np.random.default_rng(trial_seed(seed, 0))
        W = 30
        stream = _digit_stream(dary2, lebesgue, rng, N + W + 2)
        r = float(abs(_window_positions(dary2, stream, N, W)[N - 1] - float(x0)))
        assert _window_width(dary2, r)[0] == W
        R = F(r)
        window = cylinder_from_word(dary2, stream[N:].tolist())
        assert window.left < x0 - R < window.right or window.left < x0 + R < window.right
        word = stream[N:].tolist() + rng.integers(0, 2, size=300, dtype=np.int64).tolist()
        c = cylinder_from_word(dary2, word)
        inside = x0 - R <= c.left and c.right <= x0 + R
        assert inside or c.right < x0 - R or c.left > x0 + R
        hs = run_metric_hits(dary2, lebesgue, TargetPoint.from_point(dary2, x0),
                             Schedule.custom_radii([r]), N, 1, seed, collect_hits=True)
        assert hs.ambiguous_resolved >= 1
        assert (N in hs.hit_indices[0].tolist()) == inside

    def test_chain_reads_on_from_the_last_digit(self, zero_diagonal):
        # the continuation steps through row M[last], never redraws from p
        m = zero_diagonal
        mu = MarkovStationaryMeasure(m.p, m.M)
        cum = np.cumsum(np.asarray(m.M, dtype=float), axis=1)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            stream = _digit_stream(m, mu, rng, 50)
            u = np.random.default_rng()
            u.bit_generator.state = rng.bit_generator.state
            more = _digit_stream(m, mu, rng, 30, after=int(stream[-1]))
            want, prev = [], int(stream[-1])
            for x in u.random(30):
                prev = int(np.searchsorted(cum[prev], x, side="right"))
                want.append(prev)
            assert more.tolist() == want and want[0] != stream[-1]


def _ball_mass_bruteforce(measure, m, x0, radii) -> list:
    """Per-ball masses one interval_mass call at a time."""
    return [min(2 * float(r), 1.0) if m.circle else
            float(measure.interval_mass(max(x0 - r, 0), min(x0 + r, 1))) for r in radii]


class TestNormalizer:
    def test_closed_form_vs_bruteforce(self, dary2, gauss, lebesgue, gauss_measure):
        radii = Schedule.radii_power(1.0).radii_array(10 ** 4)
        for m, mu, x0 in ((dary2, lebesgue, 1 / 3), (gauss, gauss_measure, 0.41)):
            fast = ball_mass_array(mu, m, x0, radii)
            slow = _ball_mass_bruteforce(mu, m, x0, radii)
            assert float(np.abs(fast - np.asarray(slow)).max()) < 1e-12


def _per_depth_masses(measure, m, target, depths, exact_cap):
    """Reference: one target word and one mass per distinct depth."""
    mass = {}
    for t in np.unique(depths):
        t = int(t)
        word = target.digits(min(t, exact_cap))
        mass[t] = 0.0 if t > exact_cap else float(measure.cylinder_mass(m, word))
    return np.asarray([mass[int(t)] for t in depths])


class _CountingTarget(TargetPoint):
    calls = 0

    def digits(self, n):
        type(self).calls += 1
        return super().digits(n)


class TestNormalizerByDepth:
    # with exact_cap 6 these hold depths below, at and past the cap
    DEPTHS = (np.repeat(np.arange(0, 12), 3),
              Schedule.depth_power_floor(2).depths_array(40),
              Schedule.depth_log_floor(2).depths_array(3000),
              np.full(5, 6))

    @pytest.mark.parametrize("case", ["dary-word", "dary-point", "markov-word",
                                      "markov-measure", "markov-point", "gauss-word",
                                      "gauss-point", "gauss-rational"])
    def test_matches_per_depth_oracle(self, case, dary2, markov, gauss, lebesgue,
                                      markov_measure, gauss_measure):
        m, mu, tgt = {
            "dary-word": (dary2, lebesgue, TargetPoint.from_word(dary2, (0, 1, 1))),
            "dary-point": (dary2, lebesgue, TargetPoint.from_point(dary2, F(2, 7))),
            "markov-word": (markov, lebesgue, TargetPoint.from_word(markov, (0, 1))),
            "markov-measure": (markov, markov_measure,
                               TargetPoint.from_word(markov, (0, 0, 1))),
            "markov-point": (markov, lebesgue, TargetPoint.from_point(markov, 0.45)),
            "gauss-word": (gauss, gauss_measure, TargetPoint.from_word(gauss, (1, 2))),
            "gauss-point": (gauss, gauss_measure, TargetPoint.from_point(gauss, 0.41)),
            # the itinerary of 3/7 = [0; 2, 3] ends at 0: BoundaryHit past depth 1
            "gauss-rational": (gauss, gauss_measure,
                               TargetPoint.from_point(gauss, F(3, 7))),
        }[case]
        raised = 0
        for depths in self.DEPTHS:
            for exact_cap in (0, 6, 400):
                try:
                    want = _per_depth_masses(mu, m, tgt, depths, exact_cap)
                except BoundaryHit as e:
                    with pytest.raises(BoundaryHit) as got:
                        cylinder_mass_by_depth(mu, m, tgt, depths, exact_cap)
                    assert got.value.args == e.args
                    raised += 1
                    continue
                got = cylinder_mass_by_depth(mu, m, tgt, depths, exact_cap)
                assert got.dtype == want.dtype and np.array_equal(got, want)
        assert (raised > 0) == (case == "gauss-rational")

    @pytest.mark.parametrize("case", ["dary-01", "gauss-12"])
    def test_depths_0_to_400_in_one_walk(self, case, dary2, gauss, lebesgue, gauss_measure):
        # one factor per depth: 401 distinct depths cost one walk, not 401
        m, mu, tgt = {
            "dary-01": (dary2, lebesgue, TargetPoint.from_word(dary2, (0, 1))),
            "gauss-12": (gauss, gauss_measure, TargetPoint.from_word(gauss, (1, 2))),
        }[case]
        depths = np.arange(401)
        t0 = time.perf_counter()
        got = cylinder_mass_by_depth(mu, m, tgt, depths)
        elapsed = time.perf_counter() - t0
        want = _per_depth_masses(mu, m, tgt, depths, 400)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert elapsed < 0.1, f"{elapsed:.3f} s for depths 0..400"

    def test_one_target_word_per_call(self, dary2, lebesgue):
        tgt = _CountingTarget(dary2, value=F(1, 3))
        for sched, N in ((Schedule.depth_power_floor(2), 10 ** 4),
                         (Schedule.depth_log_floor(2), 10 ** 5),
                         (Schedule.depth_const(3), 10)):
            before = _CountingTarget.calls
            cylinder_mass_by_depth(lebesgue, dary2, tgt, sched.depths_array(N))
            assert _CountingTarget.calls - before == 1


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

    @pytest.mark.parametrize("chain_measure", [False, True])
    def test_log_floor_zero_diagonal_exact(self, zero_diagonal, lebesgue, chain_measure):
        # every depth-t cylinder has mass 1/3 * 2^-t: divergent iff base >= 2
        mu = MarkovStationaryMeasure(zero_diagonal.p, zero_diagonal.M) \
            if chain_measure else lebesgue
        tgt = TargetPoint.from_word(zero_diagonal, (0, 1, 2))
        for base, want in ((2, "FullMeasure"), (2.03, "FullMeasure"),
                           (1.9, "MeasureZero")):
            v = borel_cantelli_classify(zero_diagonal, mu, tgt,
                                        Schedule.depth_log_floor(base))
            assert v.verdict == want and not v.heuristic

    def test_log_floor_word_outside_support(self, zero_diagonal):
        # (0, 0, 1)^inf uses the forbidden 0 -> 0: every mass past depth 0 is 0
        mu = MarkovStationaryMeasure(zero_diagonal.p, zero_diagonal.M)
        tgt = TargetPoint.from_word(zero_diagonal, (0, 0, 1))
        v = borel_cantelli_classify(zero_diagonal, mu, tgt, Schedule.depth_log_floor(3))
        assert v.verdict == "MeasureZero"

    def test_fraction_radii_on_gauss(self, gauss, gauss_measure):
        tgt = TargetPoint.from_word(gauss, (1,))
        exact = borel_cantelli_classify(gauss, gauss_measure, tgt,
                                        Schedule.radii_const(F(1, 7)))
        flt = borel_cantelli_classify(gauss, gauss_measure, tgt,
                                      Schedule.radii_const(1 / 7))
        assert exact.verdict == "FullMeasure"
        assert exact.partial_sums == flt.partial_sums
        table = [F(1, k) for k in range(2, 3000)]
        v = borel_cantelli_classify(gauss, gauss_measure, tgt,
                                    Schedule.custom_radii(table))
        assert v.heuristic and len(v.partial_sums) == 3

    # schedules whose verdict reports the mass series itself
    @pytest.mark.parametrize("sched", [Schedule.radii_power(1.0), Schedule.radii_power(0.5),
                                       Schedule.radii_exp(0.5), Schedule.radii_const(0.1),
                                       Schedule.custom_radii([0.4 / k for k in range(1, 500)])])
    def test_radii_partial_sums_match_per_index_oracle(self, sched, dary2, gauss, lebesgue,
                                                      gauss_measure):
        # the classifier sums the float radii table; the reference evaluates
        # each radius on its own
        for m, mu, tgt in ((dary2, lebesgue, TargetPoint.from_word(dary2, (0, 1))),
                           (gauss, gauss_measure, TargetPoint.from_word(gauss, (1,)))):
            want, total, prev = [], 0.0, 0
            for s in (10 ** 3, 10 ** 4, 10 ** 5):
                r = np.asarray([sched.radius(k) for k in range(prev + 1, s + 1)])
                total += float(np.sum(ball_mass_array(mu, m, tgt.float_value(), r)))
                want.append(total)
                prev = s
            assert borel_cantelli_classify(m, mu, tgt, sched).partial_sums == want

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
            lo, hi, meta = local_dims(tgt, lebesgue)
            assert (lo, hi) == (1.0, 1.0) and meta["exact"]
            tau, meta = tau_bar(tgt)
            assert tau == 0.0 and meta["exact"]

    def test_gauss_bounded_digits(self, gauss, gauss_measure):
        tgt = TargetPoint.from_word(gauss, (1,))
        lo, hi, _ = local_dims(tgt, gauss_measure)
        assert 0.9 < lo <= hi < 1.1
        tau, _ = tau_bar(tgt)
        assert tau == 0.0

    def test_periodic_word_value(self, dary2):
        tgt = TargetPoint.from_word(dary2, (0, 1))
        assert tgt.value == F(1, 3)
        assert tgt.digits(5) == (0, 1, 0, 1, 0, 1)
        assert tgt.bracket(50) == (F(1, 3), F(1, 3))


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
