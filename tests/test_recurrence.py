import json
import math
import time
import tracemalloc
import warnings
from fractions import Fraction as F
from itertools import count

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shrinktargets import (
    BlaschkeBoundary,
    DAryShift,
    GaussMap,
    MarkovLinear,
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
from shrinktargets import recurrence
from shrinktargets.maps import BoundaryHit, InadmissibleDigit, MapError
from shrinktargets.measures import (
    ORBIT_BLOCK,
    GaussMeasure,
    LebesgueMeasure,
    MarkovStationaryMeasure,
    DRAW_CHUNK,
    MeasureError,
    digit_draws,
    float_orbit_blocks,
    stationary_vector,
)
from shrinktargets.recurrence import (
    EXACT_READ,
    MAX_DEPTH,
    SCHEDULE_KINDS,
    WINDOW_BLOCK,
    PrefixWalk,
    _checkpoints,
    _CheckpointTally,
    _Digits,
    _first_at_depth,
    _mass_at,
    _window_margin,
    _window_positions,
    _window_width,
    ball_holds,
    cylinder_mass_by_depth,
)
from conftest import (
    ScriptedGaussMeasure,
    affine_branch_reference,
    allowed,
    float_orbit_start_reference,
    float_orbit_step_reference,
)

LOG2 = math.log(2)


def _first_digits(m, rng, length):
    """The first length digits of the orbit that rng draws."""
    return digit_draws(m, rng)(length)[:length]


class TestSchedule:
    def test_monotonicity_validation(self):
        with pytest.raises(ScheduleError):
            Schedule.custom_radii([0.5, 0.7, 0.1])
        with pytest.raises(ScheduleError):
            Schedule.custom_depths([3, 2])
        with pytest.raises(ScheduleError):
            Schedule.radii_power(-1)

    @pytest.mark.parametrize("make, msg", [
        (lambda: Schedule.custom_depths([-1, 2]), r"table\.0: must be an integer in \[0, "),
        (lambda: Schedule.depth_const(-1), r"t: must be an integer in \[0, "),
        (lambda: Schedule.custom_depths([1, 10 ** 30]), r"table\.1: must be an integer in \[0, "),
        (lambda: Schedule.depth_const(10 ** 30), r"t: must be an integer in \[0, "),
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

    def test_power_floor_caps_at_max_depth(self, dary2, lebesgue):
        # 2^100 passes int64 and 10^400 the floats: both read as MAX_DEPTH
        sched = Schedule.depth_power_floor(100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = sched.depths_array(10 ** 4)
        assert t[0] == 1 and (t[1:] == MAX_DEPTH).all()
        v = borel_cantelli_classify(dary2, lebesgue, TargetPoint.from_word(dary2, (0, 1)), sched)
        assert v.verdict == "MeasureZero"

    @pytest.mark.parametrize("base", [2, 3, 4, 10])
    def test_log_floor_exact_at_powers(self, base):
        # the float log_3 of 243 and log_10 of 1000 fall just below 5 and 3
        N = 10 ** 6
        want = np.zeros(N, dtype=np.int64)       # want[n - 1] = floor(log_base n)
        p = base
        while p <= N:
            want[p - 1:] += 1
            p *= base
        assert np.array_equal(Schedule.depth_log_floor(base).depths_array(N), want)

    @pytest.mark.parametrize("sched", [
        Schedule.radii_power(2), Schedule.radii_exp(0.5), Schedule.radii_const(0.1),
        Schedule.custom_radii([0.5, 0.25]), Schedule.depth_log_floor(2),
        Schedule.depth_power_floor(0.5), Schedule.depth_const(3), Schedule.custom_depths([1, 2])],
        ids=lambda s: s.kind)
    def test_arrays_of_the_wrong_kind_or_no_index_rejected(self, sched):
        right, wrong = ((sched.radii_array, sched.depths_array) if sched.is_radii
                        else (sched.depths_array, sched.radii_array))
        with pytest.raises(ScheduleError, match="is not a"):
            wrong(5)
        with pytest.raises(ScheduleError, match="N >= 1"):
            right(0)


# two schedules of each kind of SCHEDULE_KINDS
GROWTH_SAMPLES = {
    "radii_power": (Schedule.radii_power(0.5), Schedule.radii_power(3)),
    "radii_exp": (Schedule.radii_exp(0.01), Schedule.radii_exp(0.7)),
    "radii_const": (Schedule.radii_const(0.1), Schedule.radii_const(F(1, 7))),
    "custom_radii": (Schedule.custom_radii([0.4, 0.2]),
                     Schedule.custom_radii([0.5 ** k for k in range(1, 60)])),
    "depth_log_floor": (Schedule.depth_log_floor(1.5), Schedule.depth_log_floor(10)),
    "depth_power_floor": (Schedule.depth_power_floor(0.5), Schedule.depth_power_floor(2)),
    "depth_const": (Schedule.depth_const(0), Schedule.depth_const(7)),
    "custom_depths": (Schedule.custom_depths([1, 3]), Schedule.custom_depths([0, 2, 5, 9])),
}


@pytest.mark.parametrize("kind", list(SCHEDULE_KINDS))
def test_growth_is_read_from_the_values(kind):
    """The (g, e) that the classifier reads is the growth of the schedule's
    own values: log(1/r_n) = g n + e log n + c for radii, solved from two
    differences at three indices where r_n is a normal float; for depths
    t_n steps from k - 1 to k at the first n >= g^k where g > 0, t_n =
    floor(n^e) where e > 0, and t_n is constant where both are 0."""
    for sched in GROWTH_SAMPLES[kind]:
        g, e = sched.growth
        if sched.is_radii:
            n = np.array([100, 200, 400])
            r = sched.radii_array(400)[n - 1]
            assert (r >= np.finfo(float).tiny).all()
            A = [[n[1] - n[0], math.log(n[1] / n[0])], [n[2] - n[1], math.log(n[2] / n[1])]]
            assert np.linalg.solve(A, np.diff(-np.log(r))) == pytest.approx([g, e], abs=1e-9)
            continue
        t = sched.depths_array(10 ** 5)
        if g > 0:
            assert e == 0
            for k in (2, 3, 4):
                n = math.ceil(g ** k)
                assert (t[n - 2], t[n - 1]) == (k - 1, k)
        elif e > 0:
            n = np.array([10, 1000, 10 ** 5])
            assert (t[n - 1] <= n ** e).all() and (n ** e < t[n - 1] + 1).all()
        else:
            assert t[999] == t[9999] == t[-1]


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


@pytest.mark.parametrize("engine, sched", [(run_symbolic_hits, Schedule.depth_const(1)),
                                           (run_metric_hits, Schedule.radii_const(0.1))],
                         ids=["symbolic", "metric"])
@pytest.mark.parametrize("N, trials, msg", [(0, 2, "N >= 1"), (-3, 2, "N >= 1"),
                                            (10, 0, "trials >= 1")], ids=["N0", "N-3", "trials0"])
def test_hit_engines_reject_empty_runs(engine, sched, N, trials, msg, dary2, lebesgue):
    with pytest.raises(ScheduleError, match=msg):
        engine(dary2, lebesgue, TargetPoint.from_word(dary2, (0, 1)), sched, N, trials, 0)


@pytest.mark.parametrize("engine, sched", [(run_symbolic_hits, Schedule.depth_const(1)),
                                           (run_metric_hits, Schedule.radii_const(0.1))],
                         ids=["symbolic", "metric"])
@pytest.mark.parametrize("horizons", [[0], [-5], [3, 0]], ids=["0", "-5", "3-0"])
def test_hit_engines_reject_horizons_below_1(engine, sched, horizons, dary2, lebesgue):
    # a checkpoint is an orbit index n >= 1, as the config schema's horizons are
    with pytest.raises(ScheduleError, match=r"^a horizon is an index n >= 1, got -?\d+$"):
        engine(dary2, lebesgue, TargetPoint.from_word(dary2, (0, 1)), sched, 100, 1, 0,
               horizons=horizons)


@pytest.mark.parametrize("engine, sched", [(run_symbolic_hits, Schedule.depth_const(1)),
                                           (run_metric_hits, Schedule.radii_const(0.1))],
                         ids=["symbolic", "metric"])
def test_hit_engines_read_an_array_of_horizons_as_a_list(engine, sched, dary2, lebesgue):
    tgt = TargetPoint.from_word(dary2, (0, 1))
    runs = [engine(dary2, lebesgue, tgt, sched, 20, 2, 0, horizons=h)
            for h in (np.array([3, 5]), [3, 5])]
    assert runs[0].checkpoints.tolist() == runs[1].checkpoints.tolist() == [3, 5, 20]
    for name, value in vars(runs[0]).items():
        np.testing.assert_equal(value, getattr(runs[1], name), err_msg=name)


def _every_n(N):
    """Every n = 1..N as a horizon: the checkpoint series is then S_n at each n."""
    return range(1, N + 1)


def _hit_indices(hs):
    """Per trial, the ascending n at which S_n steps up, as lists, from a run
    with every n as a horizon."""
    assert hs.checkpoints.tolist() == list(_every_n(hs.checkpoints[-1]))
    return [(np.flatnonzero(np.diff(row, prepend=0)) + 1).tolist() for row in hs.hits]


def _exact_binary_hits(stream, x0, sched, N):
    """Hit indices of the D = 2 metric engine decided exactly from its digit
    stream.  The whole stream is one binary numeral: the window stream[i:]
    is the number formed by its last L - i bits."""
    L = len(stream)
    V = int("".join(map(str, stream.tolist())), 2)
    radii = sched.radii_array(N)        # the engine's own r_n
    hits = []
    for i in range(1, N + 1):
        lo = F(V % (1 << (L - i)), 1 << (L - i))
        hi = lo + F(1, 1 << (L - i))
        r = F(float(radii[i - 1]))
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
                             sched, N, 1, seed, horizons=_every_n(N))
        stream = _first_digits(dary2, np.random.default_rng(trial_seed(seed, 0)), N + 52 + 2)
        assert _exact_binary_hits(stream, F(1, 3), sched, N) == _hit_indices(hs)[0]

    def test_borderline_step_resolved_exactly(self, dary2, lebesgue):
        """A constant radius equal to the float distance at step 1 puts that
        step inside the margin: the exact resolver decides it, and every
        decision matches the exact stream.  At this seed the float test
        alone would call step 1 a hit; the exact point lies outside."""
        N, seed, x0 = 200, 10, F(1, 3)
        W = _window_width(dary2, 0.05)[0]
        stream = _first_digits(dary2, np.random.default_rng(trial_seed(seed, 0)), N + W + 2)
        r = abs(float(_window_positions(dary2, stream, N, W)[0]) - float(x0))
        assert _window_width(dary2, r)[0] == W
        sched = Schedule.radii_const(r)
        hs = run_metric_hits(dary2, lebesgue, TargetPoint.from_point(dary2, x0),
                             sched, N, 1, seed, horizons=_every_n(N))
        assert hs.ambiguous_resolved >= 1 and _hit_indices(hs)[0][0] != 1
        assert _exact_binary_hits(stream, x0, sched, N) == _hit_indices(hs)[0]

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
                              N, 3, seed, horizons=_every_n(N))
        sym = run_symbolic_hits(dary2, lebesgue, TargetPoint.from_point(dary2, x0),
                                Schedule.custom_depths(depths), N, 3, seed,
                                horizons=_every_n(N))
        for s, m in zip(_hit_indices(sym), _hit_indices(met)):
            assert set(s).issubset(m)

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


# a double whose float Gauss orbit lands on 0 at step 300 and not before,
# found by a backward search over preimages on the 2^-52 grid
ENDS_AT_300 = float.fromhex("0x1.d277bad87b9c2p-1")


def _ends_at(n):
    """A start whose float Gauss orbit (np.modf(1/x)) ends at step n <= 300."""
    x = np.array([ENDS_AT_300])
    for _ in range(300 - n):
        x = np.modf(1.0 / x)[0]
    return float(x[0])


def _restart_script(seed):
    """Gauss draws, by trial seed, of four trials of master seed `seed`: the
    orbits end at n = 1 (trials 0 and 2, trial 2 through an overflowed 1/x),
    in the last rows of the first two blocks (trials 0 and 1 both at n = 127,
    trial 1 at 255), at the first row stepped from a carried row (trial 3 at
    128) and twice in one block (trial 0 at 1 and 127, trial 3 at 128 and
    129, trial 1 at 255 and 258)."""
    B = ORBIT_BLOCK
    draws = [[0.5, _ends_at(B - 2)],
             [_ends_at(B - 1), _ends_at(B), _ends_at(3)],
             [2.0 ** -1074],
             [_ends_at(B), 0.5]]
    return {trial_seed(seed, t): d for t, d in enumerate(draws)}


def _metric_float_orbit_per_step(m, measure, x0f, radii, N, trials, seeds, cps):
    """The float-orbit metric engine as one Python step per n: the reference
    that the block engine must match bit for bit.  Also returns each trial's
    hit indices."""
    rngs, _, state = float_orbit_start_reference(m, measure, seeds)
    resampled = 0
    hitcount = np.zeros(trials, dtype=np.int64)
    hits = np.zeros((trials, len(cps)), dtype=np.int64)
    wmins = np.full((trials, len(cps)), np.inf)
    cp_set = {c: k for k, c in enumerate(cps)}
    hit_idx = [[] for _ in range(trials)]
    window = 0
    for n in range(1, N + 1):
        state, x, restarts = float_orbit_step_reference(m, measure, state, rngs)
        resampled += restarts
        d = np.abs(x - x0f)
        if m.circle:
            d = np.minimum(d, 1.0 - d)
        r = radii[n - 1]
        sel = d <= r
        hitcount += sel
        for t in np.flatnonzero(sel):
            hit_idx[t].append(n)
        np.minimum(wmins[:, window], d / r, out=wmins[:, window])
        if n in cp_set:
            hits[:, cp_set[n]] = hitcount
            window = min(window + 1, len(cps) - 1)
    return hits, wmins, resampled, hit_idx


def _birkhoff_float_per_step(m, measure, n_iter, seeds):
    """(mean, stderr, resampled) of the float Birkhoff sums, one step per n."""
    rngs, x, state = float_orbit_start_reference(m, measure, seeds)
    s = np.zeros(len(seeds))
    resampled = 0
    for _ in range(n_iter):
        s += m.log_derivative_array(x)
        state, x, restarts = float_orbit_step_reference(m, measure, state, rngs)
        resampled += restarts
    vals = s / n_iter
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(seeds))), resampled


class TestFloatOrbitBlocks:
    """The block engine (the map steps row into row, restarts are found once
    per block) is bit-identical to the per-step loop, also across block
    edges and through every restart case of _restart_script."""

    ENDS = (1, 1, 127, 127, 128, 129, 255, 258)      # the scripted Gauss orbit ends
    SIZES = (1, ORBIT_BLOCK - 1, ORBIT_BLOCK, ORBIT_BLOCK + 1, 2 * ORBIT_BLOCK + 5)

    @staticmethod
    def _case(kind, blaschke_two, lebesgue):
        if kind == "gauss":
            return GaussMap(), lambda: ScriptedGaussMeasure(_restart_script(5)), (1,)
        return blaschke_two, lambda: lebesgue, 0.3

    def _restarts(self, kind, N):
        return sum(n <= N for n in self.ENDS) if kind == "gauss" else 0

    @pytest.mark.parametrize("n", [1, 3, ORBIT_BLOCK - 2, ORBIT_BLOCK - 1, ORBIT_BLOCK, 300])
    def test_scripted_start_ends_on_time(self, n):
        x = np.array([_ends_at(n)])
        for k in range(1, n + 1):
            x = np.modf(1.0 / x)[0]
            assert (x[0] == 0) == (k == n), k

    @pytest.mark.parametrize("kind", ["gauss", "blaschke"])
    @pytest.mark.parametrize("N", SIZES)
    def test_blocks_match_per_step_loop(self, kind, N, blaschke_two, lebesgue):
        m, measure, _ = self._case(kind, blaschke_two, lebesgue)
        seeds = [trial_seed(5, t) for t in range(4)]
        ref_measure = measure()
        rngs, x, state = float_orbit_start_reference(m, ref_measure, seeds)
        want, restarts = [x.copy()], [0]
        for _ in range(N):
            state, x, r = float_orbit_step_reference(m, ref_measure, state, rngs)
            want.append(x.copy())
            restarts.append(r)
        # each block is a view of one buffer that the next block overwrites
        got = [(n0, xs.copy(), r) for n0, xs, r in float_orbit_blocks(m, measure(), seeds, N)]
        rows = np.concatenate([xs for _, xs, _ in got])
        assert [n0 for n0, _, _ in got] == list(range(0, N + 1, ORBIT_BLOCK))
        assert rows.tobytes() == np.array(want).tobytes()
        assert [r for _, _, r in got] == [sum(restarts[n0:n0 + ORBIT_BLOCK])
                                          for n0, _, _ in got]
        assert sum(restarts) == self._restarts(kind, N)

    @pytest.mark.parametrize("kind", ["gauss", "blaschke"])
    @pytest.mark.parametrize("N", SIZES)
    @pytest.mark.parametrize("horizons", [None, [127, 128, 255, 256], [1, 5, 100, 200]])
    def test_metric_matches_per_step_loop(self, kind, N, horizons, blaschke_two, lebesgue):
        m, measure, x0 = self._case(kind, blaschke_two, lebesgue)
        tgt = TargetPoint.from_word(m, x0) if isinstance(x0, tuple) \
            else TargetPoint.from_point(m, x0)
        sched = Schedule.radii_power(1.0)
        hs = run_metric_hits(m, measure(), tgt, sched, N, 4, 5, horizons=horizons)
        hits, wmins, resampled, hit_idx = _metric_float_orbit_per_step(
            m, measure(), tgt.float_value(), sched.radii_array(N), N, 4,
            hs.trial_seeds, hs.checkpoints)
        assert hs.hits.tolist() == hits.tolist()
        assert hs.window_minima.tobytes() == wmins.tobytes()
        assert hs.resampled == resampled == self._restarts(kind, N)
        if horizons is None:        # the hit indices do not depend on the horizons
            every = run_metric_hits(m, measure(), tgt, sched, N, 4, 5, horizons=_every_n(N))
            assert _hit_indices(every) == hit_idx

    @pytest.mark.parametrize("kind", ["gauss", "blaschke"])
    @pytest.mark.parametrize("n_iter", SIZES)
    def test_birkhoff_matches_per_step_loop(self, kind, n_iter, blaschke_two, lebesgue):
        m, measure, _ = self._case(kind, blaschke_two, lebesgue)
        est = entropy_birkhoff(m, measure(), n_iter, 4, 5)
        seeds = [trial_seed(5, t) for t in range(4)]
        want = _birkhoff_float_per_step(m, measure(), n_iter, seeds)
        assert (est.value, est.standard_error, est.details["resampled"]) == want
        assert want[2] == self._restarts(kind, n_iter)


def _band(hs, trials):
    """Mean hitting ratio within 5 compound-Poisson deviations of 1 (variance
    inflated by at most 4 at a periodic target)."""
    norm = float(hs.normalizer[-1])
    return abs(hs.mean_final_ratio() - 1) <= 5 * math.sqrt(4 / (trials * norm))


class TestMarkovFastPath:
    def test_seeded_outputs_pinned(self, markov, markov_measure, golden_markov):
        """Seeded Markov outputs pinned to the values of a digit-by-digit
        chain and of windows composed one Fraction branch at a time."""
        stream = _first_digits(markov, np.random.default_rng(11), 40)
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
        assert (est.value, est.standard_error) == (0.6040988158870807, 0.0031843492106405887)

    @pytest.mark.parametrize("kind", ["dary2", "dary3", "dary10", "chain", "golden"])
    def test_float_positions_within_rounding_term(self, kind, markov, golden_markov):
        m = {"dary2": DAryShift(2), "dary3": DAryShift(3), "dary10": DAryShift(10),
             "chain": markov, "golden": golden_markov}[kind]
        N, extra = 150, 40
        W, truncation, rounding = _window_width(m, 1 / math.sqrt(N))
        start = F(0) if isinstance(m, DAryShift) else F(1, 2)
        worst = worst_cut = F(0)
        for seed in (0, 1, 2):
            stream = _first_digits(m, np.random.default_rng(seed),
                                   N + W + extra + 2)
            pos = _window_positions(m, stream, N, W)
            s = stream.tolist()
            for i in range(N):
                y = start
                for k in range(i + W, i, -1):
                    A, B = affine_branch_reference(m, s[k], s[k + 1])
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
        stream = _first_digits(dary2, rng, N + W + 2 + 300)
        r = float(abs(_window_positions(dary2, stream, N, W)[N - 1] - float(x0)))
        assert _window_width(dary2, r)[0] == W
        R = F(r)
        window = cylinder_from_word(dary2, stream[N:N + W + 2].tolist())
        assert window.left < x0 - R < window.right or window.left < x0 + R < window.right
        c = cylinder_from_word(dary2, stream[N:].tolist())
        inside = x0 - R <= c.left and c.right <= x0 + R
        assert inside or c.right < x0 - R or c.left > x0 + R
        hs = run_metric_hits(dary2, lebesgue, TargetPoint.from_point(dary2, x0),
                             Schedule.custom_radii([r]), N, 1, seed, horizons=_every_n(N))
        assert hs.ambiguous_resolved >= 1
        assert (N in _hit_indices(hs)[0]) == inside

    @staticmethod
    def _bits_of_bytes(gen, count):
        """The bits, most significant first, of count uniform bytes of gen."""
        return [b >> k & 1 for b in gen.integers(0, 256, size=count, dtype=np.uint8).tolist()
                for k in range(7, -1, -1)]

    @pytest.mark.parametrize("length", [1, 7, 8, 9, 1000])
    def test_binary_stream_is_the_bits_of_uniform_bytes(self, dary2, length):
        rng = np.random.default_rng(length)
        clone = np.random.default_rng()
        clone.bit_generator.state = rng.bit_generator.state
        stream = digit_draws(dary2, rng)(length)
        assert stream.dtype == np.uint8 and len(stream) == -(-length // 32) * 32
        assert stream.tolist() == self._bits_of_bytes(clone, len(stream) // 8)

    def test_binary_read_on_is_the_bits_of_the_next_bytes(self, dary2):
        rng = np.random.default_rng(9)
        clone = np.random.default_rng()
        clone.bit_generator.state = rng.bit_generator.state
        draw = digit_draws(dary2, rng)
        stream, more = draw(9), draw(40)
        assert stream.tolist() == self._bits_of_bytes(clone, 4)
        assert more.tolist() == self._bits_of_bytes(clone, 8)

    @pytest.mark.parametrize("D", [3, 5, 255, 256, 257, 2 ** 16])
    @pytest.mark.parametrize("length", [1000, DRAW_CHUNK + 1, 2 * DRAW_CHUNK + 777])
    def test_dary_stream_is_one_int64_draw_in_the_least_type(self, D, length):
        """D >= 3 digits, drawn as int32 a chunk at a time and held in the least
        type for D - 1, are the values of one int64 draw from the same seed,
        and a read-on that crosses a chunk edge continues that draw."""
        m, ref = DAryShift(D), np.random.default_rng(length)
        draw = digit_draws(m, np.random.default_rng(length))
        stream, more = draw(length), draw(DRAW_CHUNK + 5)
        assert stream.dtype == np.min_scalar_type(D - 1) == more.dtype
        assert stream.tolist() == ref.integers(0, D, size=length, dtype=np.int64).tolist()
        assert more.tolist() == ref.integers(0, D, size=DRAW_CHUNK + 5, dtype=np.int64).tolist()


def _symbolic_per_depth(m, measure, target, sched, N, trials, seed, horizons):
    """The symbolic engine as one full-length mask per digit depth, read
    until no index still matches: the reference that the survivor engine
    must match bit for bit, with each trial's hit indices.  A trial's one
    digit source (digit_draws) draws as far as the next depth needs."""
    depths = sched.depths_array(N)
    cps = _checkpoints(N, horizons)
    norm = np.cumsum(cylinder_mass_by_depth(m, measure, target, depths))[np.asarray(cps) - 1]
    hits = np.zeros((trials, len(cps)), dtype=np.int64)
    hit_idx = []
    for t in range(trials):
        draw = digit_draws(m, np.random.default_rng(trial_seed(seed, t)))
        stream = draw(N + 2)
        acc = np.ones(N, dtype=bool)       # acc[i-1]: prefix match at orbit index i
        hit = np.zeros(N, dtype=bool)
        for mm in count():
            digit = target.digits(mm)[mm]
            if not acc[depths >= mm].any():
                break
            if len(stream) < 1 + mm + N:
                stream = np.concatenate((stream, draw(1 + mm + N - len(stream))))
            acc &= stream[1 + mm: 1 + mm + N] == digit
            hit[depths == mm] = acc[depths == mm]
        hits[t] = np.cumsum(hit)[np.asarray(cps) - 1]
        hit_idx.append((np.flatnonzero(hit) + 1).tolist())
    return hits, norm, hit_idx


def _metric_whole_stream(m, measure, target, sched, N, trials, seed, horizons):
    """The linear metric engine as one pass over each trial's whole stream:
    the reference that the block engine must match bit for bit.  Also
    returns each trial's hit indices and the orbit indices it resolved exactly.  It reads
    _window_width through the module, so a monkeypatch reaches it."""
    radii = sched.radii_array(N)
    cps = _checkpoints(N, horizons)
    norm = np.cumsum(ball_mass_array(m, measure, target.float_value(), radii))[
        np.asarray(cps) - 1]
    W, truncation, rounding = recurrence._window_width(m, float(radii[-1]))
    margin = truncation + rounding
    lo_b, hi_b = target.bracket(120)
    x0f = float((lo_b + hi_b) / 2)
    tally = _CheckpointTally(cps, trials)
    reach = W + EXACT_READ + 1
    resolved, hit_idx = [], []
    for t in range(trials):
        stream = _first_digits(m, np.random.default_rng(trial_seed(seed, t)), N + W + 2 + reach)
        pos = _window_positions(m, stream, N, W)
        d = np.abs(pos - x0f)
        hit = d <= radii
        unsure = np.abs(d - radii) <= margin + (hi_b - lo_b)
        for i in np.flatnonzero(unsure):
            n = int(i) + 1
            point = PrefixWalk(m, stream[n:n + reach].tolist())
            hit[i] = ball_holds(point.bounds, target.bracket, F(float(radii[i])), W)
            resolved.append(n)
        tally.add(1, hit[:, None], d[:, None], radii[:, None], t0=t)
        hit_idx.append((np.flatnonzero(hit) + 1).tolist())
    return tally.hits, norm, hit_idx, tally.wmins, len(resolved), resolved


def _target_of(m, x0):
    return TargetPoint.from_word(m, x0) if isinstance(x0, tuple) else TargetPoint.from_point(m, x0)


_ORACLE_MAPS = {"dary2": ((0, 1), None), "dary3": (F(1, 4), None),
                "chain": ((0, 1), "markov"), "golden": (F(1, 3), "golden_markov")}


def _oracle_case(kind, request):
    """(map, measure, x0) of a named oracle case."""
    x0, fixture = _ORACLE_MAPS[kind]
    if fixture is None:
        return DAryShift(int(kind[-1])), LebesgueMeasure(), x0
    m = request.getfixturevalue(fixture)
    return m, MarkovStationaryMeasure(m.p, m.M), x0


B = WINDOW_BLOCK
# N smaller than a block, one block, and not a multiple of it, with horizons
# on both sides of block boundaries
_SIZES = [(1000, None), (B, [B - 1, B]), (2 * B + 5, [B, B + 1, 2 * B, 2 * B + 1])]


def _sticky_chain():
    M = [[F(99, 100), F(1, 100)], [F(1, 100), F(99, 100)]]
    return MarkovLinear(M, stationary_vector(M))


class TestSymbolicFullDepth:
    """On the sticky chain a run of 0s lasts 100 digits on average, so the
    target (0)^inf keeps survivors near index N that read far past it: at
    seed 4 each case reads up to 192 digits past N, in 8 reads over its two
    trials, and the test asserts that a survivor read past the first read."""

    @staticmethod
    def _zero_run_hits(stream, depths):
        """Orbit indices n whose digits n, ..., n + t_n are all 0: the prefix
        comparison with (0)^inf at full depth, from the length of the run of
        0s at each digit.  The stream must hold digit N + max t_n."""
        ends = np.append(np.flatnonzero(stream), len(stream))
        n = np.arange(1, len(depths) + 1)
        return n[ends[np.searchsorted(ends, n)] - n > depths]

    @pytest.mark.parametrize("sched", [
        Schedule.depth_const(100), Schedule.depth_const(200), Schedule.depth_const(450),
        Schedule.depth_power_floor(0.5)], ids=lambda s: f"{s.kind}{list(s.params.values())}")
    def test_hits_match_through_their_own_depth(self, sched, monkeypatch):
        m, N, trials, seed = _sticky_chain(), 10 ** 6, 2, 4
        ends, read = [], recurrence._Digits.read
        monkeypatch.setattr(recurrence._Digits, "read",
                            lambda self, lo, hi: ends.append(hi) or read(self, lo, hi))
        hs = run_symbolic_hits(m, LebesgueMeasure(), (0,), sched, N, trials, seed,
                               horizons=_every_n(N))
        depths = sched.depths_array(N)
        assert max(ends) > ends[0]      # a survivor read past the first read
        for t, idx in enumerate(_hit_indices(hs)):
            # one long draw: the trial's reads are slices of it
            rng = np.random.default_rng(trial_seed(seed, t))
            stream = _first_digits(m, rng, N + int(depths.max()) + 2)
            assert idx == self._zero_run_hits(stream, depths).tolist()
        # a hit run ends with chance q = 1/100 per step, so the count is compound
        # Poisson: about q * sum mu runs of mean length 1/q, variance (2 - q) / q^2
        q = 0.01
        sd = math.sqrt((2 - q) / (q * hs.normalizer[-1] * trials))
        assert abs(hs.mean_final_ratio() - 1) < 4 * sd


class TestLinearEnginesMatchOracles:
    """The survivor-list symbolic engine and the blocked metric engine give
    the outputs of the per-depth and whole-stream loops, bit for bit."""

    @pytest.mark.parametrize("kind", list(_ORACLE_MAPS))
    @pytest.mark.parametrize("sched", [
        Schedule.depth_log_floor(2), Schedule.depth_power_floor(2), Schedule.depth_const(0),
        Schedule.custom_depths([0, 0, 1, 3, 3, 7, 12, 12, 20])], ids=lambda s: s.kind)
    @pytest.mark.parametrize("N, horizons", _SIZES)
    @pytest.mark.parametrize("every_n", [True, False])
    def test_symbolic(self, kind, sched, N, horizons, every_n, request):
        m, mu, x0 = _oracle_case(kind, request)
        tgt = _target_of(m, x0)
        horizons = _every_n(N) if every_n else horizons
        hs = run_symbolic_hits(m, mu, tgt, sched, N, 3, 4, horizons=horizons)
        hits, norm, hit_idx = _symbolic_per_depth(m, mu, tgt, sched, N, 3, 4, horizons)
        assert hs.hits.tolist() == hits.tolist()
        assert hs.normalizer.tolist() == norm.tolist()
        if every_n:
            assert _hit_indices(hs) == hit_idx

    @staticmethod
    def _check_metric(m, mu, tgt, sched, N, horizons, every_n, trials=3, seed=4):
        """With every_n, every n is a horizon in place of the given ones, and
        the differenced series must give the oracle's hit indices."""
        horizons = _every_n(N) if every_n else horizons
        hs = run_metric_hits(m, mu, tgt, sched, N, trials, seed, horizons=horizons)
        hits, norm, hit_idx, wmins, amb, resolved = _metric_whole_stream(
            m, mu, tgt, sched, N, trials, seed, horizons)
        assert hs.hits.tolist() == hits.tolist()
        assert hs.normalizer.tolist() == norm.tolist()
        assert hs.window_minima.tobytes() == wmins.tobytes()      # bit for bit, nan included
        assert hs.ambiguous_resolved == amb
        if every_n:
            assert _hit_indices(hs) == hit_idx
        return resolved

    @pytest.mark.parametrize("kind", list(_ORACLE_MAPS))
    @pytest.mark.parametrize("sched", [
        Schedule.radii_power(2.0), Schedule.radii_const(0.01),
        Schedule.custom_radii([0.5, 0.25, 0.125, 2.0 ** -10, 2.0 ** -20])],
        ids=lambda s: s.kind)
    @pytest.mark.parametrize("N, horizons", _SIZES)
    @pytest.mark.parametrize("every_n", [True, False])
    def test_metric(self, kind, sched, N, horizons, every_n, request):
        m, mu, x0 = _oracle_case(kind, request)
        self._check_metric(m, mu, _target_of(m, x0), sched, N, horizons, every_n)

    def test_binary_windows_equal_the_correlation(self, dary2):
        """D = 2 window values are dyadics of at most W <= 52 bits: doubling
        windows gives the float correlation of the digits, bit for bit, and
        the same windows whether the digits are held as int64 or uint8."""
        stream = np.random.default_rng(3).integers(0, 2, size=5000, dtype=np.int64)
        for W in range(1, 53):
            w = 0.5 ** np.arange(1, W + 1)
            want = np.correlate(stream[1:4000 + W + 1].astype(float), w, mode="valid")[:4000]
            assert _window_positions(dary2, stream, 4000, W).tolist() == want.tolist(), W
            small = _window_positions(dary2, stream.astype(np.uint8), 4000, W)
            assert small.tolist() == want.tolist(), W

    @staticmethod
    def _spy_paths(monkeypatch):
        """Counts, over the blocks of the metric runs that follow, "filtered" where
        _near_rows kept the rows near x0, "fallback" where it found a window
        without a kept hit, and "full" for each full scan, the first block's
        included."""
        paths = {"filtered": 0, "fallback": 0, "full": 0}
        near, positions = recurrence._near_rows, recurrence._window_positions

        def near_rows(*args):
            got = near(*args)
            paths["fallback" if got is None else "filtered"] += 1
            return got

        def window_positions(m, stream, N, W):
            paths["full"] += N > 1      # a filtered block's columns are one window each
            return positions(m, stream, N, W)

        monkeypatch.setattr(recurrence, "_near_rows", near_rows)
        monkeypatch.setattr(recurrence, "_window_positions", window_positions)
        return paths

    # D, x0: generic points, the depth-k cylinder boundaries 1/2 (D = 2) and 1/3
    # (D = 3), and points near 0 and 1, where the code range clamps
    _FILTER_TARGETS = {"dary2": (2, (0, 1)), "dary2-half": (2, F(1, 2)),
                       "dary3": (3, F(1, 4)), "dary3-third": (3, F(1, 3)), "dary5": (5, F(2, 7)),
                       "dary2-near0": (2, F(1, 10 ** 6)), "dary3-near1": (3, 1 - F(1, 10 ** 6))}
    _FILTER_N = 3 * B + 7          # two filtered blocks and a short one
    _INSIDE = [B + 1000, 2 * B - 1, 2 * B + 20000, 3 * B + 3, 3 * B + 7]   # horizons in blocks

    def _check_filter(self, name, sched, horizons, monkeypatch, trials=3, seed=4):
        D, x0 = self._FILTER_TARGETS[name]
        m = DAryShift(D)
        paths = self._spy_paths(monkeypatch)
        self._check_metric(m, LebesgueMeasure(), _target_of(m, x0), sched, self._FILTER_N,
                           horizons, horizons is None, trials, seed)
        return paths

    @pytest.mark.parametrize("name", list(_FILTER_TARGETS))
    @pytest.mark.parametrize("horizons", [None, _INSIDE], ids=["final", "inside"])
    def test_filtered_blocks(self, name, horizons, monkeypatch):
        """r_n = n^-1/2: every block past the first takes the cylinder-code
        filter, at the final horizon and with horizons inside blocks."""
        paths = self._check_filter(name, Schedule.radii_power(2.0), horizons or [self._FILTER_N],
                                   monkeypatch)
        assert paths == {"filtered": 6, "fallback": 0, "full": 6}     # block 4 is 8 indices

    @pytest.mark.parametrize("name", ["dary2", "dary3-third", "dary5"])
    @pytest.mark.parametrize("sched, horizons", [
        (Schedule.radii_power(0.5), _INSIDE), (Schedule.radii_exp(0.02), _INSIDE),
        (Schedule.radii_power(0.5), None), (Schedule.radii_exp(0.02), None),
        (Schedule.radii_power(2.0), None)],
        ids=["n^-2", "underflow", "n^-2-every_n", "underflow-every_n", "sqrt-every_n"])
    def test_full_scan_blocks(self, name, sched, horizons, monkeypatch):
        """Rare hits (r_n = n^-2, and radii that underflow to 0, whose minima
        read inf) and every n a horizon (horizons None): the blocks past the
        first would find a window without a kept hit, so they take the full scan."""
        paths = self._check_filter(name, sched, horizons, monkeypatch)
        assert paths == {"filtered": 0, "fallback": 0, "full": 12}

    def test_filter_falls_back(self, monkeypatch):
        """r_n = 1/n: about 2 log((j + 1) / j) hits are expected in block j, so
        the filter is tried in blocks 2 and 3, and where a trial's block holds no
        kept hit it falls back to the full scan."""
        paths = self._check_filter("dary3", Schedule.radii_power(1.0), [self._FILTER_N],
                                   monkeypatch, trials=4, seed=1)
        assert paths["filtered"] > 0 and paths["fallback"] > 0
        assert paths["full"] == 4 + paths["fallback"] + 4      # block 4 is 8 indices

    def test_nan_minima(self, monkeypatch):
        """With 8-digit windows a D = 2 position hits x0 = 1/2 exactly once in
        256 indices, so where r_n has underflowed to 0, d / r_n reads nan."""
        monkeypatch.setattr(recurrence, "_window_width",
                            lambda m, r_min: (8, *_window_margin(m, 8)))
        m = DAryShift(2)
        hs = run_metric_hits(m, LebesgueMeasure(), F(1, 2), Schedule.radii_exp(0.03),
                             self._FILTER_N, 2, 4, horizons=self._INSIDE)
        assert np.isnan(hs.window_minima).any() and np.isinf(hs.window_minima).any()
        self._check_filter("dary2-half", Schedule.radii_exp(0.03), self._INSIDE, monkeypatch,
                           trials=2)

    @pytest.mark.parametrize("kind", ["dary2", "golden"])
    def test_exact_resolution_in_later_blocks(self, kind, request, monkeypatch):
        """A margin widened by 2e-3 puts steps in the second block and later,
        and in the last reach of the stream, so the exact test reads digits
        past the last block's windows: verdicts and counts match."""
        width = recurrence._window_width

        def wide(m, r_min):
            W, truncation, rounding = width(m, r_min)
            return W, truncation + 2e-3, rounding

        monkeypatch.setattr(recurrence, "_window_width", wide)
        m, mu, x0 = _oracle_case(kind, request)
        N = 2 * B + 300
        resolved = self._check_metric(m, mu, _target_of(m, x0), Schedule.radii_const(0.1),
                                      N, None, True, trials=2)
        assert any(n > B for n in resolved)
        assert max(resolved) > N - wide(m, 0.1)[0] - EXACT_READ - 1


@st.composite
def _window_maps(draw):
    """A D-ary map with D in 2..12, or a primitive chain on 2 or 3 digits
    whose rows have denominators <= 6; a zero entry forbids a transition."""
    if draw(st.booleans()):
        return DAryShift(draw(st.integers(2, 12)))
    D = draw(st.sampled_from([2, 3]))
    M = []
    for _ in range(D):
        den = draw(st.integers(1, 6))
        cuts = sorted(draw(st.lists(st.integers(0, den), min_size=D - 1, max_size=D - 1)))
        M.append([F(b - a, den) for a, b in zip([0] + cuts, cuts + [den])])
    try:
        return MarkovLinear(M, stationary_vector(M))
    except (MapError, MeasureError):
        assume(False)           # not primitive, or no certified expansion


class TestWindowRoutine:
    """The one doubling routine behind every linear map's window positions."""

    @given(_window_maps(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_positions_within_margin_at_every_width(self, m, seed):
        """For every W up to the widest window of the map, each float position
        lies within rounding of the exact composition of its W branches at the
        start point, and within truncation of every point of the cylinder of
        a longer word."""
        N, extra = 6, 60
        cap = _window_width(m, 0.0)[0]      # the width at the smallest radius
        stream = _first_digits(m, np.random.default_rng(seed), N + cap + extra + 2)
        s = stream.tolist()
        start = F(0) if isinstance(m, DAryShift) else F(1, 2)
        exact, cyls = [], []                # exact[i][W - 1]: window of W branches
        for i in range(N):
            A, B, row = F(0), F(1), []
            for k in range(i + 1, i + cap + 1):
                a, b = affine_branch_reference(m, s[k], s[k + 1])
                A, B = A + B * a, B * b
                row.append(A + B * start)
            exact.append(row)
            cyls.append(cylinder_from_word(m, s[i + 1:i + cap + extra + 2]))
        for W in range(1, cap + 1):
            truncation, rounding = _window_margin(m, W)
            pos = _window_positions(m, stream, N, W)
            for i in range(N):
                y = exact[i][W - 1]
                assert abs(F(float(pos[i])) - y) <= rounding, (W, i)
                c = cyls[i]
                assert max(abs(c.left - y), abs(c.right - y)) <= truncation, (W, i)

    def test_wide_alphabet_reads_one_slope(self, lebesgue):
        """D = 10,000: the D-ary windows read one scalar slope and build no
        D x D table (800 MB of doubles), so a metric run stays small and fast."""
        m = DAryShift(10_000)
        tgt = TargetPoint.from_point(m, F(1, 3))
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            hs = run_metric_hits(m, lebesgue, tgt, Schedule.radii_power(1.0), 50_000, 2, 0)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed <= 2.0, f"{elapsed:.2f} s over the 2 s budget"
        assert peak <= 30e6, f"{peak / 1e6:.1f} MB over the 30 MB budget"
        assert _band(hs, 2) and not hasattr(m, "float_branches")


class TestLinearEngineBudgets:
    def test_symbolic_speed(self, dary2, lebesgue):
        """D = 2, target (01)^inf, t_n = floor(log2 n), 300,000 steps x 20
        trials within 0.2 s, best of 3 (one full-length mask per depth took
        0.25-0.37 s)."""
        tgt, sched = TargetPoint.from_word(dary2, (0, 1)), Schedule.depth_log_floor(2)
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            run_symbolic_hits(dary2, lebesgue, tgt, sched, 300_000, 20, 1)
            best = min(best, time.perf_counter() - t0)
        assert best <= 0.2, f"{best:.3f} s over the 0.2 s budget"

    def test_metric_peak_memory(self, dary2, lebesgue):
        """Traced peak of the D = 2 metric engine at r_n = n^-1/2, 10^6 steps
        x 4 trials, within 36 MB (whole-stream temporaries took 47.7 MB)."""
        tracemalloc.start()
        try:
            run_metric_hits(dary2, lebesgue, TargetPoint.from_word(dary2, (0, 1)),
                            Schedule.radii_power(2.0), 10 ** 6, 4, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 36e6, f"{peak / 1e6:.1f} MB over the 36 MB budget"

    def test_metric_memory_is_the_radii_and_one_block(self, lebesgue):
        """Traced peak of the D = 3 metric engine at r_n = n^-1/2, 10^6 steps x
        2 trials, below the radii array's bytes plus 4 MB: the normalizer, the
        windows and the decisions work a block at a time and the stream holds
        a byte per digit, so no N-length temporary is left (3.4 MB over the
        radii; the whole-length normalizer and int64 digits took 16.9 MB)."""
        m, sched = DAryShift(3), Schedule.radii_power(2.0)
        budget = sched.radii_array(10 ** 6).nbytes + 4e6
        tracemalloc.start()
        try:
            run_metric_hits(m, lebesgue, TargetPoint.from_point(m, F(1, 4)), sched, 10 ** 6, 2, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget, f"{peak / 1e6:.1f} MB over the {budget / 1e6:.1f} MB budget"


def _traced_peak(run):
    """The tracemalloc peak, in bytes, of run()."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockSizedRuns:
    """Linear hit runs at N = 10^6 hold block-sized arrays and their outputs:
    no radii, depth, mass or 8-byte digit array of length N (the radii alone
    take 8 MB)."""

    def test_dary_metric(self, lebesgue):
        m = DAryShift(3)
        peak = _traced_peak(lambda: run_metric_hits(
            m, lebesgue, TargetPoint.from_point(m, F(1, 4)), Schedule.radii_power(2.0),
            10 ** 6, 2, 0))
        assert peak < 4e6, f"{peak / 1e6:.1f} MB over the 4 MB budget (11.4 MB with the radii)"

    def test_chain_metric(self, markov, lebesgue):
        peak = _traced_peak(lambda: run_metric_hits(
            markov, lebesgue, TargetPoint.from_word(markov, (0, 1)), Schedule.radii_power(2.0),
            10 ** 6, 2, 0))
        assert peak < 4e6, f"{peak / 1e6:.1f} MB over the 4 MB budget (36.1 MB with int64 digits)"

    def test_binary_symbolic(self, dary2, lebesgue):
        """The one-trial stream and mask take a byte a digit; the depths and
        the normalizer's masses are read a block at a time."""
        peak = _traced_peak(lambda: run_symbolic_hits(
            dary2, lebesgue, TargetPoint.from_word(dary2, (0, 1)), Schedule.depth_log_floor(2),
            10 ** 6, 2, 0))
        assert peak < 6e6, f"{peak / 1e6:.1f} MB over the 6 MB budget (24.0 MB at full length)"

    def test_every_n_a_horizon(self, dary2, lebesgue):
        """The four outputs of length N take 32 MB: checkpoints (an int64
        array, not a list of ints), hits, normalizer and window minima."""
        N = 10 ** 6
        peak = _traced_peak(lambda: run_metric_hits(
            dary2, lebesgue, TargetPoint.from_word(dary2, (0, 1)), Schedule.radii_power(2.0),
            N, 1, 0, horizons=range(1, N + 1)))
        assert peak <= 40e6, f"{peak / 1e6:.1f} MB over the 40 MB budget (80.0 MB with a list)"


class TestScheduleBlocks:
    @pytest.mark.parametrize("kind", sorted(SCHEDULE_KINDS))
    @pytest.mark.parametrize("N", [1, B - 1, B, B + 1, 3 * B + 17])
    def test_blocks_hold_the_values_of_one_evaluation(self, kind, N):
        sched = _one_of_each_kind()[kind]
        whole = sched.radii_array(N) if sched.is_radii else sched.depths_array(N)
        blocks = list(sched.blocks(N))
        assert [n0 for n0, _ in blocks] == [1, *range(B, N + 1, B)]
        got = np.concatenate([v for _, v in blocks])
        assert got.dtype == whole.dtype and np.array_equal(got, whole)
        last = sched.radii_array(N, N - 1) if sched.is_radii else sched.depths_array(N, N - 1)
        assert np.array_equal(last, whole[-1:])

    @pytest.mark.parametrize("kind", sorted(SCHEDULE_KINDS))
    def test_any_split_of_a_million_indices(self, kind):
        """Blocks of 2^15 and of 777 and single values give one evaluation's values."""
        sched, N = _one_of_each_kind()[kind], 1_000_003
        read = sched.radii_array if sched.is_radii else sched.depths_array
        whole = read(N)
        for size in (WINDOW_BLOCK, 777):
            got = np.concatenate([read(min(lo + size, N), lo) for lo in range(0, N, size)])
            assert np.array_equal(got, whole), size
        for n in np.random.default_rng(0).integers(1, N + 1, 500).tolist():
            assert np.array_equal(read(n, n - 1), whole[n - 1:n]), n

    @pytest.mark.parametrize("kind", ["depth_log_floor", "depth_power_floor", "custom_depths"])
    def test_first_index_at_each_depth(self, kind):
        sched, N = _one_of_each_kind()[kind], 3 * B + 17
        depths, first = sched.depths_array(N), _first_at_depth(sched, N)
        for mm in (*range(40), 0, 5, 200):
            assert first(mm) == np.searchsorted(depths, mm), mm


def _one_of_each_kind():
    return {"radii_power": Schedule.radii_power(1.5), "radii_exp": Schedule.radii_exp(1e-4),
            "radii_const": Schedule.radii_const(0.1),
            "depth_log_floor": Schedule.depth_log_floor(1.5),
            "depth_power_floor": Schedule.depth_power_floor(0.3),
            "depth_const": Schedule.depth_const(7),
            "custom_radii": Schedule.custom_radii([0.5, 0.25, 0.1]),
            "custom_depths": Schedule.custom_depths([0, 2, 2, 9])}


class TestOneDigitSource:
    """A trial's reads are slices of one long draw of its digit source, however
    the reads split the draws: digit i depends only on the seed and i."""

    @pytest.mark.parametrize("name", ["dary2", "dary3", "dary256", "dary257", "markov",
                                      "golden_markov", "zero_diagonal", "gauss"])
    @given(seed=st.integers(0, 2 ** 32 - 1),
           steps=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1,
                          max_size=8), scale=st.sampled_from([1, 7, 32, 1000, DRAW_CHUNK]))
    @settings(max_examples=40, deadline=None)
    def test_reads_are_slices_of_one_draw(self, name, seed, steps, scale, request):
        """Windows (lo, hi) with lo non-decreasing from read to read and hi >= lo,
        at scales that put their edges off multiples of 8 and 32 and across
        DRAW_CHUNK (the Gauss map, a per-digit loop, at most 1000)."""
        m = DAryShift(int(name[4:])) if name.startswith("dary") else \
            GaussMap() if name == "gauss" else request.getfixturevalue(name)
        scale = min(scale, 1000) if name == "gauss" else scale
        windows, lo = [], 0
        for step, width in steps:
            lo += step * scale + step
            windows.append((lo, lo + width * scale + width % 3))
        want = _first_digits(m, np.random.default_rng(seed), max(hi for _, hi in windows))
        source = _Digits(m, np.random.default_rng(seed))
        for lo, hi in windows:
            got = source.read(lo, hi)
            assert got.dtype == want.dtype and np.array_equal(got, want[lo:hi]), (lo, hi)


class TestMassesInBlocks:
    @pytest.mark.parametrize("split", [1, 7, 40])
    @pytest.mark.parametrize("case", ["markov-01", "golden-011", "dary-deep"])
    def test_blocks_go_on_from_one_walk(self, case, split, markov, golden_markov, dary2,
                                        lebesgue):
        """Masses read a block at a time through one _mass_at equal one call:
        runs across block edges, a forbidden transition's exact 0 and a far
        depth past the underflow included."""
        m, word, depths = {
            "markov-01": (markov, (0, 1), np.repeat(np.arange(0, 90), 3)),
            "golden-011": (golden_markov, (0, 1, 1), np.repeat(np.arange(0, 30), 4)),
            "dary-deep": (dary2, (0, 1), np.concatenate((np.arange(50), [3000] * 9))),
        }[case]
        tgt = TargetPoint.from_word(m, word)
        mass_at = _mass_at(m, lebesgue, tgt)
        got = np.concatenate([cylinder_mass_by_depth(m, lebesgue, tgt, depths[lo:lo + split],
                                                     mass_at)
                              for lo in range(0, len(depths), split)])
        want = cylinder_mass_by_depth(m, lebesgue, TargetPoint.from_word(m, word), depths)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert (want == 0).any() == (case != "markov-01")


def _ball_mass_bruteforce(m, measure, x0, radii) -> list:
    """Per-ball masses one interval_mass call at a time."""
    return [min(2 * float(r), 1.0) if m.circle else
            float(measure.interval_mass(max(x0 - r, 0), min(x0 + r, 1))) for r in radii]


class TestNormalizer:
    def test_closed_form_vs_bruteforce(self, dary2, gauss, lebesgue, gauss_measure):
        radii = Schedule.radii_power(1.0).radii_array(10 ** 4)
        for m, mu, x0 in ((dary2, lebesgue, 1 / 3), (gauss, gauss_measure, 0.41)):
            fast = ball_mass_array(m, mu, x0, radii)
            slow = _ball_mass_bruteforce(m, mu, x0, radii)
            assert float(np.abs(fast - np.asarray(slow)).max()) < 1e-12


def _per_depth_masses(m, measure, target, depths):
    """Reference: one target word and one exact mass, rounded to a float,
    per distinct depth."""
    mass = {int(t): float(measure.cylinder_mass(m, target.digits(int(t))))
            for t in np.unique(depths)}
    return np.asarray([mass[int(t)] for t in depths])


class TestNormalizerByDepth:
    # runs of equal depths, square depths (to 1600) whose gaps pass every
    # case's underflow, log depths, one repeated depth, and one far depth
    # after shallow ones, reached past the probes at 64, 128, ..., 2048
    DEPTHS = (np.repeat(np.arange(0, 12), 3),
              Schedule.depth_power_floor(2).depths_array(40),
              Schedule.depth_log_floor(2).depths_array(3000),
              np.full(5, 6),
              np.array([0, 1, 2, 2500]))

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
            # the double 0.41 is a rational, [0; 2, 2, 3, 1, 1, 1, 1, 4094181479427, 8, 1, 4]:
            # its exact itinerary ends at 0, BoundaryHit past depth 10
            "gauss-point": (gauss, gauss_measure, TargetPoint.from_point(gauss, 0.41)),
            # the itinerary of 3/7 = [0; 2, 3] ends at 0: BoundaryHit past depth 1
            "gauss-rational": (gauss, gauss_measure,
                               TargetPoint.from_point(gauss, F(3, 7))),
        }[case]
        raised = 0
        for depths in self.DEPTHS:
            try:
                want = _per_depth_masses(m, mu, tgt, depths)
            except BoundaryHit as e:
                with pytest.raises(BoundaryHit) as got:
                    cylinder_mass_by_depth(m, mu, tgt, depths)
                assert got.value.args == e.args
                raised += 1
                continue
            got = cylinder_mass_by_depth(m, mu, tgt, depths)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert (raised > 0) == (case in ("gauss-point", "gauss-rational"))

    @pytest.mark.parametrize("case", ["dary-01", "gauss-12"])
    def test_depths_0_to_400_in_one_walk(self, case, dary2, gauss, lebesgue, gauss_measure):
        # one factor per depth: 401 distinct depths cost one walk, not 401
        m, mu, tgt = {
            "dary-01": (dary2, lebesgue, TargetPoint.from_word(dary2, (0, 1))),
            "gauss-12": (gauss, gauss_measure, TargetPoint.from_word(gauss, (1, 2))),
        }[case]
        depths = np.arange(401)
        t0 = time.perf_counter()
        got = cylinder_mass_by_depth(m, mu, tgt, depths)
        elapsed = time.perf_counter() - t0
        want = _per_depth_masses(m, mu, tgt, depths)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert elapsed < 0.1, f"{elapsed:.3f} s for depths 0..400"

    def test_golden_gauss_masses_positive_and_decreasing(self, gauss, gauss_measure):
        # exact Gauss endpoints at every depth: no cylinder collapses to mass 0
        tgt = TargetPoint.from_word(gauss, (1,))
        got = cylinder_mass_by_depth(gauss, gauss_measure, tgt, np.arange(401))
        assert np.all(got > 0) and np.all(np.diff(got) < 0)
        assert got[184] == pytest.approx(4.97e-78, rel=1e-3)

    def test_dary_masses_to_underflow(self, dary2, lebesgue):
        # 2^-1074 is the least subnormal, and 2^-1075 rounds (to even) to 0
        tgt = TargetPoint.from_word(dary2, (0, 1))
        got = cylinder_mass_by_depth(dary2, lebesgue, tgt, np.arange(1101))
        assert got[:1074].tolist() == [2.0 ** -(t + 1) for t in range(1074)]
        assert not got[1074:].any()

    def test_golden_gauss_masses_to_underflow(self, gauss, gauss_measure):
        tgt = TargetPoint.from_word(gauss, (1,))
        got = cylinder_mass_by_depth(gauss, gauss_measure, tgt, np.arange(1001))
        assert got[:773].all() and not got[773:].any()

    def test_decreasing_depths_raise(self, dary2, lebesgue):
        tgt = TargetPoint.from_word(dary2, (0, 1))
        with pytest.raises(ValueError, match="non-decreasing"):
            cylinder_mass_by_depth(dary2, lebesgue, tgt, np.array([0, 2, 3, 1, 4]))

    def test_one_target_word_per_call(self, dary2, lebesgue):
        # the target's one walk serves every depth of every call: each of
        # its digits is read from the digit function once, in order
        reads = []
        tgt = TargetPoint(dary2, digits=lambda k: reads.append(k) or k * k % 3 % 2)
        for sched, N in ((Schedule.depth_power_floor(2), 10 ** 4),
                         (Schedule.depth_log_floor(2), 10 ** 5),
                         (Schedule.depth_const(3), 10)):
            cylinder_mass_by_depth(dary2, lebesgue, tgt, sched.depths_array(N))
        assert reads == list(range(len(tgt.walk().word))) and len(reads) > 1000


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
        m4 = MarkovLinear([[F(1, 4)] * 4] * 4, [F(1, 4)] * 4)
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

    def test_log_floor_on_4096_digits_in_a_second(self, lebesgue):
        # the uniform-chain rule reads the D-ary map's one shared row of M:
        # D entries, not D^2; 2 * 4096^-1 < 1, so the series converges
        m = DAryShift(4096)
        t0 = time.perf_counter()
        v = borel_cantelli_classify(m, lebesgue, TargetPoint.from_word(m, (0, 1)),
                                    Schedule.depth_log_floor(2))
        elapsed = time.perf_counter() - t0
        assert v.verdict == "MeasureZero" and not v.heuristic and elapsed < 1.0, f"{elapsed:.2f} s"

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

    @pytest.mark.parametrize("chain_measure", [False, True])
    def test_log_floor_word_outside_support(self, zero_diagonal, lebesgue, chain_measure):
        # (0, 0, 1)^inf uses the forbidden 0 -> 0: every mass past depth 0 is 0,
        # under either object for the chain's one law
        mu = MarkovStationaryMeasure(zero_diagonal.p, zero_diagonal.M) \
            if chain_measure else lebesgue
        tgt = TargetPoint.from_word(zero_diagonal, (0, 0, 1))
        masses = cylinder_mass_by_depth(zero_diagonal, mu, tgt, np.arange(5))
        assert masses.tolist() == [1 / 3, 0, 0, 0, 0]
        v = borel_cantelli_classify(zero_diagonal, mu, tgt, Schedule.depth_log_floor(3))
        assert v.verdict == "MeasureZero" and not v.heuristic

    @pytest.mark.parametrize("digits, message", [
        (lambda k: 5, "digit 5 out of range"), (lambda k: -1, "digit -1 out of range"),
        (lambda k: 7 if k else 0, "digit 7 out of range")], ids=["5", "-1", "0-then-7"])
    def test_digits_outside_the_alphabet_raise_the_walks_error(self, markov, lebesgue,
                                                               digits, message):
        # the chain's masses and the symbolic engine read the digits through
        # the target's walk: a digit outside the chain raises, at any depth,
        # and is never read as a forbidden transition's mass 0
        for run in (lambda tgt: borel_cantelli_classify(markov, lebesgue, tgt,
                                                        Schedule.depth_log_floor(2)),
                    lambda tgt: run_symbolic_hits(markov, lebesgue, tgt,
                                                  Schedule.depth_log_floor(2), 1000, 2, 0)):
            with pytest.raises(InadmissibleDigit, match=f"^{message}$"):
                run(TargetPoint(markov, digits=digits))

    @pytest.mark.parametrize("x0", [(0, 0, 1), lambda k: 0], ids=["word", "digits"])
    def test_symbolic_run_past_a_forbidden_transition(self, zero_diagonal, lebesgue, x0):
        # no drawn orbit takes 0 -> 0, so no index matches past depth 0 and
        # every cylinder mass past it is 0: the run ends with no hits
        tgt = TargetPoint.of(zero_diagonal, x0) if isinstance(x0, tuple) \
            else TargetPoint(zero_diagonal, digits=x0)
        hs = run_symbolic_hits(zero_diagonal, lebesgue, tgt, Schedule.depth_const(1), 1000, 2, 0)
        assert not hs.hits.any() and not hs.normalizer.any()

    @pytest.mark.parametrize("base", [2, 3])
    def test_log_floor_digits_outside_support(self, zero_diagonal, lebesgue, base):
        # the digits 0, 0, ... use the forbidden 0 -> 0: every mass past depth
        # 0 is exactly 0, so the series is a finite sum
        tgt = TargetPoint(zero_diagonal, digits=lambda k: 0)
        v = borel_cantelli_classify(zero_diagonal, lebesgue, tgt, Schedule.depth_log_floor(base))
        assert v.verdict == "MeasureZero" and not v.heuristic
        assert v.partial_sums == [(base - 1) / 3] * 3

    @pytest.mark.parametrize("chain_measure", [False, True])
    def test_depth_const_word_outside_support(self, zero_diagonal, lebesgue, chain_measure):
        # every term is the one depth-t mass: 0 once the word has used 0 -> 0
        mu = MarkovStationaryMeasure(zero_diagonal.p, zero_diagonal.M) \
            if chain_measure else lebesgue
        tgt = TargetPoint.from_word(zero_diagonal, (0, 0, 1))
        for t, want in ((0, "FullMeasure"), (1, "MeasureZero"), (3, "MeasureZero")):
            v = borel_cantelli_classify(zero_diagonal, mu, tgt, Schedule.depth_const(t))
            assert v.verdict == want and not v.heuristic
            assert (v.partial_sums[0] > 0) == (t == 0)

    def test_depth_const_periodic_word_at_depth_1e9_in_a_second(
            self, gauss, gauss_measure, markov, lebesgue):
        # admissibility reads one period and its wrap, not 10^9 digits
        for m, mu, word in ((gauss, gauss_measure, (1,)), (markov, lebesgue, (0, 1))):
            t0 = time.perf_counter()
            v = borel_cantelli_classify(m, mu, TargetPoint.from_word(m, word),
                                        Schedule.depth_const(10 ** 9))
            assert v.verdict == "FullMeasure" and time.perf_counter() - t0 < 1.0

    def test_depth_const_word_that_only_wraps_out_of_the_support(self, golden_markov,
                                                                 lebesgue):
        # (1, 0, 1) is admissible; its wrap 1 -> 1 is the one forbidden transition
        tgt = TargetPoint.from_word(golden_markov, (1, 0, 1))
        for t, want in ((2, "FullMeasure"), (3, "MeasureZero"), (10 ** 9, "MeasureZero")):
            v = borel_cantelli_classify(golden_markov, lebesgue, tgt, Schedule.depth_const(t))
            assert v.verdict == want and not v.heuristic

    def test_depth_const_past_the_exact_cap_diverges(self, dary2, lebesgue):
        # every term is the depth-250 mass 2^-251, a normal float
        v = borel_cantelli_classify(dary2, lebesgue, TargetPoint.from_word(dary2, (0, 1)),
                                    Schedule.depth_const(250))
        assert v.verdict == "FullMeasure"
        assert v.partial_sums == [n * 2.0 ** -251 for n in (1000, 5000, 10000)]

    def test_sticky_chain_square_depths_in_a_second(self):
        # masses 1/2 (99/100)^(n^2), walked to their underflow at n = 273
        m, sched = _sticky_chain(), Schedule.depth_power_floor(2)
        t0 = time.perf_counter()
        v = borel_cantelli_classify(m, LebesgueMeasure(), (0,), sched)
        elapsed = time.perf_counter() - t0
        assert v.verdict == "MeasureZero" and elapsed < 1.0, f"{elapsed:.2f} s"
        got = cylinder_mass_by_depth(m, LebesgueMeasure(), TargetPoint.from_word(m, (0,)),
                                     sched.depths_array(300))
        for n in (1, 100, 272, 273, 300):
            assert got[n - 1] == 99 ** (n * n) / (2 * 100 ** (n * n))
        assert got[271] > 0 and got[272] == 0.0

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
        assert v.verdict == "FullMeasure" and not v.heuristic and len(v.partial_sums) == 3

    # schedules whose verdict reports the mass series itself
    @pytest.mark.parametrize("sched", [Schedule.radii_power(1.0), Schedule.radii_power(0.5),
                                       Schedule.radii_power(2.0),
                                       Schedule.radii_exp(0.5), Schedule.radii_const(0.1),
                                       Schedule.custom_radii([0.4 / k for k in range(1, 500)])])
    def test_radii_partial_sums_match_per_index_oracle(self, sched, dary2, gauss, lebesgue,
                                                      gauss_measure):
        # the classifier sums the float radii table; the reference evaluates
        # each radius on its own, by its formula
        p = sched.params
        radius = {"radii_power": lambda k: k ** (-1.0 / p["alpha"]),
                  "radii_exp": lambda k: math.exp(-p["kappa"] * k),
                  "radii_const": lambda k: p["r"],
                  "custom_radii": lambda k: p["table"][min(k, len(p["table"])) - 1]}[sched.kind]
        for m, mu, tgt in ((dary2, lebesgue, TargetPoint.from_word(dary2, (0, 1))),
                           (gauss, gauss_measure, TargetPoint.from_word(gauss, (1,)))):
            want, total, prev = [], 0.0, 0
            for s in (10 ** 3, 10 ** 4, 10 ** 5):
                r = np.asarray([radius(k) for k in range(prev + 1, s + 1)])
                total += float(np.sum(ball_mass_array(m, mu, tgt.float_value(), r)))
                want.append(total)
                prev = s
            assert borel_cantelli_classify(m, mu, tgt, sched).partial_sums == want

    @pytest.mark.parametrize("case", ["dary-01", "gauss-1", "gauss-2", "gauss-12",
                                      "blaschke"])
    def test_borderline_alpha_full_measure(self, case, request):
        # sum 1/n diverges: the dynamical Borel-Cantelli lemma gives FullMeasure
        m, mu, x0 = _ALPHA_CASES[case]
        m, mu = request.getfixturevalue(m), request.getfixturevalue(mu)
        v = borel_cantelli_classify(m, mu, TargetPoint.of(m, x0), Schedule.radii_power(1.0))
        assert v.verdict == "FullMeasure" and not v.heuristic

    def test_const_and_exp(self, dary2, lebesgue):
        tgt = TargetPoint.from_word(dary2, (0, 1))
        assert borel_cantelli_classify(
            dary2, lebesgue, tgt, Schedule.radii_const(0.1)).verdict == "FullMeasure"
        assert borel_cantelli_classify(
            dary2, lebesgue, tgt, Schedule.radii_exp(0.5)).verdict == "MeasureZero"
        assert borel_cantelli_classify(
            dary2, lebesgue, tgt, Schedule.depth_const(3)).verdict == "FullMeasure"

    @pytest.mark.parametrize("table", [
        [min(0.4, k ** -2.0) for k in range(1, 10 ** 5 + 1)],
        [min(0.4, k ** -0.5) for k in range(1, 10 ** 5 + 1)],
        [0.5 ** k for k in range(1, 200)],
    ], ids=["k^-2", "k^-1/2", "2^-k"])
    def test_custom_radii_read_by_their_tail(self, dary2, lebesgue, table):
        # the engines repeat the last radius for ever, so every tail term is
        # one positive ball mass: the series diverges, however the table falls
        v = borel_cantelli_classify(dary2, lebesgue, TargetPoint.from_word(dary2, (0, 1)),
                                    Schedule.custom_radii(table))
        assert v.verdict == "FullMeasure" and not v.heuristic

    @pytest.mark.parametrize("m, mu, x0, sched, want", [
        ("dary2", "lebesgue", (0, 1), Schedule.custom_depths([60]), "FullMeasure"),
        ("dary2", "lebesgue", F(1, 3), Schedule.custom_radii([1e-12]), "FullMeasure"),
        ("dary2", "lebesgue", (0, 1), Schedule.custom_depths([1, 5, 40]), "FullMeasure"),
        ("gauss", "gauss_measure", (1,), Schedule.custom_depths([1, 10, 30]), "FullMeasure"),
        # the depth-2 word (0, 0) takes the forbidden 0 -> 0: every tail term is 0
        ("zero_diagonal", "lebesgue", (0, 0), Schedule.custom_depths([1, 2]), "MeasureZero"),
    ], ids=["dary-60", "dary-1e-12", "dary-1-5-40", "gauss-1-10-30", "zero-diagonal-1-2"])
    def test_custom_table_exact_verdicts(self, m, mu, x0, sched, want, request):
        m, mu = request.getfixturevalue(m), request.getfixturevalue(mu)
        v = borel_cantelli_classify(m, mu, TargetPoint.of(m, x0), sched)
        assert v.verdict == want and not v.heuristic

    @given(data=st.data(), radii=st.booleans(), chain=st.booleans())
    @settings(max_examples=60)
    def test_table_classified_as_its_last_entry(self, dary2, zero_diagonal, lebesgue,
                                                data, radii, chain):
        m = zero_diagonal if chain else dary2
        digits = st.integers(0, 2 if chain else 1)
        x0 = data.draw(st.one_of(st.lists(digits, min_size=1, max_size=4).map(tuple),
                                 st.fractions(0, 1).filter(lambda x: x < 1)))
        # a ball needs the point of the word, which a word off the support lacks
        assume(not (radii and isinstance(x0, tuple))
               or all(allowed(m, a, b) for a, b in zip(x0, x0[1:] + x0[:1])))
        tgt = TargetPoint.of(m, x0)
        if radii:
            table = sorted(data.draw(st.lists(st.floats(1e-12, 1), min_size=1, max_size=50)),
                           reverse=True)
            sched, tail = Schedule.custom_radii(table), Schedule.radii_const(table[-1])
        else:
            table = sorted(data.draw(st.lists(st.integers(0, 200), min_size=1, max_size=50)))
            sched, tail = Schedule.custom_depths(table), Schedule.depth_const(table[-1])
        v, want = (borel_cantelli_classify(m, lebesgue, tgt, s) for s in (sched, tail))
        # the tail term is one ball mass, > 0, or one cylinder mass, 0 only off the support
        full = radii or cylinder_mass_by_depth(m, lebesgue, tgt, np.asarray(table[-1:]))[0] > 0
        assert v.verdict == ("FullMeasure" if full else "MeasureZero")
        assert v.verdict == want.verdict and not v.heuristic and not want.heuristic

    def test_reports_series_and_partials(self, gauss, gauss_measure):
        tgt = TargetPoint.from_word(gauss, (1,))
        sched = Schedule.radii_power(2.0)
        v = borel_cantelli_classify(gauss, gauss_measure, tgt, sched)
        assert v.series == "sum mu(B(x0, r_n)), r_n ~ e^(-g n) n^(-e), (g, e) = (0, 0.5)"
        # the ball masses themselves, summed up to 10^3, 10^4 and 10^5
        masses = ball_mass_array(gauss, gauss_measure, tgt.float_value(),
                                 sched.radii_array(10 ** 5))
        chunks = [float(np.sum(masses[a:b])) for a, b in ((0, 10 ** 3), (10 ** 3, 10 ** 4),
                                                          (10 ** 4, 10 ** 5))]
        assert v.partial_sums == [sum(chunks[:k]) for k in (1, 2, 3)]


# (map fixture, measure fixture, target) of the radii cases, all exact
_ALPHA_CASES = {
    "dary-01": ("dary2", "lebesgue", (0, 1)),
    "markov-01": ("markov", "markov_measure", (0, 1)),
    "gauss-1": ("gauss", "gauss_measure", (1,)),
    "gauss-2": ("gauss", "gauss_measure", (2,)),
    "gauss-12": ("gauss", "gauss_measure", (1, 2)),
    "gauss-40": ("gauss", "gauss_measure", (40,)),
    "blaschke": ("blaschke_two", "lebesgue", 0.3),
    "gauss-3/7": ("gauss", "gauss_measure", F(3, 7)),
}

_CHAIN = MarkovLinear([[F(3, 4), F(1, 4)], [F(1, 2), F(1, 2)]], [F(2, 3), F(1, 3)])

# word target -> (map, measure, word, threshold base, oracle: whether the
# log-floor series diverges at an exact base b).  A word of period p
# diverges iff b^p >= 1/rho; on the Gauss map 1/rho = lambda^2 is the larger
# root of x^2 - s x + 1 with s = lambda^2 + lambda^-2: 3 for (1)^inf
# (phi^2) and 14 for (1, 2)^inf (7 + 4 sqrt 3).
_LOG_FLOOR = {
    "chain-01": (_CHAIN, MarkovStationaryMeasure(_CHAIN.p, _CHAIN.M), (0, 1),
                 math.sqrt(8), lambda b: b * b * F(1, 4) * F(1, 2) >= 1),
    "gauss-1": (GaussMap(), GaussMeasure(), (1,), (3 + math.sqrt(5)) / 2,
                lambda b: b > F(3, 2) and b * b - 3 * b + 1 >= 0),
    "gauss-12": (GaussMap(), GaussMeasure(), (1, 2), 2 + math.sqrt(3),
                 lambda b: b * b > 7 and b ** 4 - 14 * b * b + 1 >= 0),
    **{f"dary{D}": (DAryShift(D), LebesgueMeasure(), (0, 1), float(D),
                    lambda b, D=D: b * F(1, D) >= 1) for D in (2, 3, 10)},
}


class TestExactThresholds:
    """Verdicts on both sides of each exact threshold, each against an
    oracle written here apart from the classifier."""

    @pytest.mark.parametrize("case", sorted(_ALPHA_CASES))
    @pytest.mark.parametrize("alpha", [1 - 2 ** -20, 1.0, 1 + 2 ** -20, 1.001, 0.5, 2.0])
    def test_alpha_sweep(self, case, alpha, request):
        m, mu, x0 = _ALPHA_CASES[case]
        m, mu = request.getfixturevalue(m), request.getfixturevalue(mu)
        v = borel_cantelli_classify(m, mu, TargetPoint.of(m, x0), Schedule.radii_power(alpha))
        want = "MeasureZero" if alpha < 1 else "FullMeasure"
        assert v.verdict == want and not v.heuristic

    @pytest.mark.parametrize("case", sorted(_LOG_FLOOR))
    @given(rel=st.one_of(st.integers(-64, 64).map(lambda k: k * 2.0 ** -48),
                         st.floats(-0.4, 0.4)))
    @settings(max_examples=60)
    def test_log_floor_sweep(self, case, rel):
        m, mu, word, threshold, diverges = _LOG_FLOOR[case]
        b = threshold * (1 + rel)
        v = borel_cantelli_classify(m, mu, TargetPoint.from_word(m, word),
                                    Schedule.depth_log_floor(b))
        assert not v.heuristic
        assert v.verdict == ("FullMeasure" if diverges(F(b)) else "MeasureZero"), b

    @pytest.mark.parametrize("case, base, want", [
        ("chain-01", 2.78, "MeasureZero"), ("chain-01", 2.8, "MeasureZero"),
        ("chain-01", 2.8285, "FullMeasure"),
        ("gauss-1", 2.613, "MeasureZero"), ("gauss-1", 2.615, "MeasureZero"),
        ("gauss-1", 2.617, "MeasureZero"), ("gauss-1", 2.619, "FullMeasure"),
        ("gauss-12", 3.732, "MeasureZero"), ("gauss-12", 3.7321, "FullMeasure"),
    ])
    def test_log_floor_near_threshold(self, case, base, want):
        m, mu, word, _, _ = _LOG_FLOOR[case]
        v = borel_cantelli_classify(m, mu, TargetPoint.from_word(m, word),
                                    Schedule.depth_log_floor(base))
        assert v.verdict == want and not v.heuristic

    def test_without_a_period_factor_heuristic(self, gauss, gauss_measure, blaschke_two,
                                               lebesgue):
        # no exact period factor: log-floor verdicts on Blaschke maps and Gauss
        # points are flagged
        for m, mu, x0, sched in (
                (blaschke_two, lebesgue, 0.3, Schedule.depth_log_floor(2)),
                (gauss, gauss_measure, 0.41, Schedule.depth_log_floor(3))):
            assert borel_cantelli_classify(m, mu, TargetPoint.from_point(m, x0),
                                           sched).heuristic

    def test_power_radii_on_a_gauss_point_exact(self, gauss, gauss_measure):
        # the dynamical Borel-Cantelli lemma needs no period factor
        v = borel_cantelli_classify(gauss, gauss_measure, TargetPoint.from_point(gauss, F(3, 7)),
                                    Schedule.radii_power(2.0))
        assert v.verdict == "FullMeasure" and not v.heuristic


_BLASCHKE_TWO = BlaschkeBoundary([0, 0.5])
_GAUSS = GaussMap()

# the log-floor targets that no exact rule covers, each built once so that
# its walk serves every base
_RATE_TARGETS = (
    (_BLASCHKE_TWO, LebesgueMeasure(), TargetPoint(_BLASCHKE_TWO, value=0.3)),
    (_BLASCHKE_TWO, LebesgueMeasure(), TargetPoint(_BLASCHKE_TWO, value=0.7)),
    (_CHAIN, LebesgueMeasure(), TargetPoint(_CHAIN, value=0.3)),
    (_GAUSS, GaussMeasure(), TargetPoint(_GAUSS, digits=lambda k: 1 + k * k % 4)),
)
_RANK = {"MeasureZero": 0, "Inconclusive": 1, "FullMeasure": 2}


def _blaschke_multiplier(m, word):
    """prod |B'| over the periodic orbit of the word, each point the limit of
    the word's inverse branches composed, rotated to start at its digit."""
    total = 1.0
    for k in range(len(word)):
        x, rot = 0.3, word[k:] + word[:k]
        for _ in range(60):
            for d in reversed(rot):
                x = m.inverse_branch(d, x)
        total *= m.derivative_abs(x)
    return total


def _gauss_multiplier(word):
    """lambda^2, lambda the Perron root of prod [[a, 1], [1, 0]]."""
    P = np.eye(2)
    for a in word:
        P = P @ np.array([[a, 1], [1, 0]])
    return float(max(abs(np.linalg.eigvals(P)))) ** 2


class TestLogFloorRate:
    """Log-floor targets with no exact rule: one estimated decay rate of
    their masses per digit, and the verdict log b >= rate."""

    @given(bases=st.lists(st.floats(1.05, 12), min_size=2, max_size=2))
    @settings(max_examples=25, deadline=None)
    def test_verdict_monotone_in_base(self, bases):
        lo, hi = sorted(bases)
        for m, mu, tgt in _RATE_TARGETS:
            v_lo, v_hi = (borel_cantelli_classify(m, mu, tgt, Schedule.depth_log_floor(b))
                          for b in (lo, hi))
            assert v_lo.heuristic and v_hi.heuristic
            assert _RANK[v_lo.verdict] <= _RANK[v_hi.verdict], (tgt.value, lo, hi)

    @pytest.mark.parametrize("m, mu, word, multiplier", [
        (_CHAIN, LebesgueMeasure(), (0,), F(4, 3)),
        (_CHAIN, LebesgueMeasure(), (0, 1), 8),
        (_CHAIN, LebesgueMeasure(), (0, 0, 1), F(32, 3)),
        (_GAUSS, GaussMeasure(), (1,), _gauss_multiplier((1,))),
        (_GAUSS, GaussMeasure(), (1, 2), _gauss_multiplier((1, 2))),
        (_BLASCHKE_TWO, LebesgueMeasure(), (0, 1), _blaschke_multiplier(_BLASCHKE_TWO, (0, 1))),
        (_BLASCHKE_TWO, LebesgueMeasure(), (1, 1, 0),
         _blaschke_multiplier(_BLASCHKE_TWO, (1, 1, 0))),
    ])
    def test_rate_near_the_period_multiplier(self, m, mu, word, multiplier):
        rate = recurrence._mass_rate(m, mu, TargetPoint.from_word(m, word))
        assert rate == pytest.approx(math.log(multiplier) / len(word), rel=1e-4)

    def test_word_rate_splits_bases_at_its_threshold(self):
        # multiplier 8.875 per period 3: the series diverges iff b >= 2.0703
        tgt = TargetPoint.from_word(_BLASCHKE_TWO, (1, 1, 0))
        for b, want in ((2.06, "MeasureZero"), (2.08, "FullMeasure")):
            v = borel_cantelli_classify(_BLASCHKE_TWO, LebesgueMeasure(), tgt,
                                        Schedule.depth_log_floor(b))
            assert v.verdict == want and v.heuristic

    def test_mass_below_the_floats_stays_heuristic(self):
        # the digit 2^600 takes the depth-3 mass below every float: a rate
        # read as a lower bound, not an exactly zero mass
        tgt = TargetPoint(_GAUSS, digits=lambda k: 1 if k < 3 else 2 ** 600)
        v = borel_cantelli_classify(_GAUSS, GaussMeasure(), tgt, Schedule.depth_log_floor(3))
        assert v.verdict == "MeasureZero" and v.heuristic

    def test_blaschke_multipliers(self):
        # the oracle against the cylinder-length ratios per period on zeros [0, 1/2]
        assert _blaschke_multiplier(_BLASCHKE_TWO, (0, 1)) == pytest.approx(2.25)
        assert _blaschke_multiplier(_BLASCHKE_TWO, (1, 1, 0)) == pytest.approx(8.875)

    def test_walk_that_ends_before_depth_2_inconclusive(self, gauss, gauss_measure):
        # 3/7 = [0; 2, 3]: masses at depths 0 and 1 only; at b = 10^5 the
        # partial sums stop at depth 0
        v = borel_cantelli_classify(gauss, gauss_measure, TargetPoint.from_point(gauss, F(3, 7)),
                                    Schedule.depth_log_floor(10 ** 5))
        assert v.verdict == "Inconclusive" and v.heuristic


class TestTargetPoint:
    def test_periodic_word_value(self, dary2):
        tgt = TargetPoint.from_word(dary2, (0, 1))
        assert tgt.value == F(1, 3) and tgt.word == (0, 1)
        assert TargetPoint.from_point(dary2, F(1, 3)).word is None
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

    def test_rows_and_trace_equal_the_per_checkpoint_loop(self):
        """csv_rows and the ratio trace of simulate (ratio_of the mean hits),
        built from whole arrays, give the Python ints and floats of one loop per
        checkpoint, with nan where the normalizer is 0 (radii that underflowed)."""
        rng = np.random.default_rng(0)
        hits = np.cumsum(rng.integers(0, 3, (3, 50)), axis=1)
        norm = np.cumsum(rng.random(50))
        norm[:4] = 0.0
        hs = recurrence.HitSeries(np.arange(1, 51) * 7, hits, norm, [0] * 3, "e", "metric")
        want = [(t, int(n), int(hits[t, k]), float(norm[k]),
                 float(hits[t, k] / norm[k]) if norm[k] > 0 else math.nan)
                for t in range(3) for k, n in enumerate(hs.checkpoints)]
        assert repr(list(hs.csv_rows())) == repr(want)
        trace = [float(hits[:, k].mean() / norm[k]) if norm[k] > 0 else math.nan
                 for k in range(50)]
        assert repr(hs.ratio_of(hits.mean(axis=0)).tolist()) == repr(trace)

    @pytest.mark.parametrize("trials", [1, 2, 5])
    def test_window_minima_medians_are_those_of_each_window(self, trials):
        """One median over the trials axis gives each window's median, inf and
        nan (a radius that underflowed to 0) included, as JSON writes them;
        one np.median call per window took 18.6 s at 10^6 windows."""
        rng = np.random.default_rng(trials)
        wmins = rng.random((trials, 400))
        wmins[:, 7] = np.inf
        wmins[0, 8] = np.inf
        wmins[-1, 9] = np.nan
        hs = recurrence.HitSeries(np.arange(1, 401), np.ones((trials, 400), np.int64),
                                  np.ones(400), [0] * trials, "e", "metric", window_minima=wmins)
        want = [float(np.median(wmins[:, w])) for w in range(400)]
        assert json.dumps(hs.summary()["window_minima_median"]) == json.dumps(want)
        assert hs.summary()["checkpoints"] == list(range(1, 401))
