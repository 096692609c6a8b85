import json
import math
import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinktargets import (
    DAryShift,
    DimensionError,
    InadmissibleDigit,
    IntervalSplitGrid,
    ProductSplitGrid,
    Schedule,
    StageConstructionError,
    TargetPoint,
    bound_code_lower,
    bound_code_w,
    bound_doubling,
    bound_hoeffding,
    bound_radii_lower,
    bound_upper_finite,
    build_cantor_stage,
    cantor_lambda,
    frostman_exponent,
    grid_regularity_probe,
    grid_transfer,
    rectangle_counterexample_balls,
    refine_depth,
)
from shrinktargets import dimension, measures
from shrinktargets.dimension import BOUNDS, ProbeRecord, _intermediate_constraints
from shrinktargets.measures import RegularWords
from conftest import level_classes_reference, regular_states

LOG2 = math.log(2)
GAUSS_H = math.pi ** 2 / (6 * LOG2)


class TestRadiiLowerBound:
    def test_zero_rate_gives_one(self):
        b = bound_radii_lower(LOG2, 1.0, 0.0, 0.0, LOG2)
        assert b.grid_lower == 1.0 and b.hausdorff_lower == 1.0

    def test_gauss_kappa_formula(self):
        for kappa in (0.1, 0.7, 2.0):
            b = bound_radii_lower(GAUSS_H, 1.0, kappa, 0.0, LOG2)
            expected = math.pi ** 2 / (math.pi ** 2 + 6 * kappa * LOG2)
            assert b.grid_lower == pytest.approx(expected, abs=1e-14)

    def test_half(self):
        b = bound_radii_lower(LOG2, 1.0, LOG2, 0.0, LOG2)
        assert b.grid_lower == pytest.approx(0.5, abs=1e-15)

    def test_correction_factor_flagged(self):
        b = bound_radii_lower(LOG2, 1.0, LOG2, 0.1, LOG2)
        expected = 0.5 * (1 - 0.1 * LOG2 ** 2 / (LOG2 ** 2 * LOG2))
        assert b.hausdorff_lower == pytest.approx(expected)
        assert "ell_bar" in b.notes["ell_squared_term"]

    def test_monotone_in_ell(self):
        vals = [bound_radii_lower(LOG2, 1.0, e, 0.0, LOG2).grid_lower
                for e in np.linspace(0, 3, 20)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(DimensionError):
            bound_radii_lower(0.0, 1, 1, 0, LOG2)
        with pytest.raises(DimensionError):
            bound_radii_lower(1.0, 1, 1, 0, 0.0)


class TestOtherBounds:
    def test_doubling(self):
        assert bound_doubling(1, 0, 1, LOG2).hausdorff_lower == 1.0
        assert bound_doubling(1, LOG2, 1, LOG2).hausdorff_lower == 0.0
        b = bound_doubling(1, 0.2, 1, math.log(3))
        assert b.hausdorff_lower == pytest.approx(1 - 0.2 / math.log(3))

    def test_code_bounds(self):
        assert bound_code_lower(0.9, 0).grid_lower == 1.0
        assert bound_code_w(1.0).grid_lower == 0.5
        assert bound_code_w(math.inf).grid_lower == 0.0
        # L = h*w identity: both routes give 1/2
        assert bound_code_lower(LOG2, LOG2).grid_lower == pytest.approx(
            bound_code_w(1.0).grid_lower)

    def test_upper_finite(self):
        assert bound_upper_finite(2, LOG2, L_lower=0).upper == 1.0
        assert bound_upper_finite(2, LOG2, L_lower=LOG2).upper == \
            pytest.approx(0.5, abs=1e-15)
        assert bound_upper_finite(3, math.log(3), delta_lower=1,
                                  ell_lower=math.log(3)).upper == \
            pytest.approx(0.5, abs=1e-15)
        with pytest.raises(DimensionError):
            bound_upper_finite(2, LOG2)

    def test_sandwich_uniform(self):
        # lower h/(h+L) <= upper log D/(h+L), equality iff h = log D
        for D, L in ((2, 0.4), (3, 1.0), (5, 0.2)):
            h = math.log(D)
            lo = bound_code_lower(h, L).grid_lower
            hi = bound_upper_finite(D, h, L_lower=L).upper
            assert lo == pytest.approx(hi, abs=1e-14)
        lo = bound_code_lower(0.5, 0.3).grid_lower
        hi = bound_upper_finite(2, 0.5, L_lower=0.3).upper
        assert lo < hi


class TestHoeffding:
    def test_uniform_collapse_exact(self):
        for D in (2, 3, 4):
            for L in (0.0, 0.3, 1.0, 2.5):
                h = math.log(D)
                b = bound_hoeffding([1.0 / D] * D, L)
                assert abs(b.upper - h / (h + L)) <= 1e-12

    def test_zero_rate(self):
        assert bound_hoeffding([0.25, 0.75], 0.0).upper == 1.0

    def test_sandwich(self):
        p = [0.25, 0.75]
        h = -sum(x * math.log(x) for x in p)
        b = bound_hoeffding(p, 1.0)
        assert h / (h + 1.0) < b.upper < 1.0

    def test_zero_probability_rejected(self):
        with pytest.raises(DimensionError):
            bound_hoeffding([0.5, 0.5, 0.0], 1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.0, max_value=4.0),
           st.floats(min_value=0.01, max_value=4.0))
    def test_monotone_in_L(self, L, dL):
        p = [0.3, 0.7]
        assert bound_hoeffding(p, L + dL).upper <= bound_hoeffding(p, L).upper + 1e-12


# finite floats over the whole double range, its ends and the edges of underflow
POSITIVE = st.one_of(st.sampled_from([5e-324, 2.2250738585072014e-308, 1e-300, 1e-150, 1.0,
                                      1e150, 1e200, 1e300, 1.7e308]),
                     st.floats(min_value=5e-324, max_value=1.7e308))
RATE = st.one_of(st.just(0.0), POSITIVE)
REAL = st.one_of(POSITIVE, POSITIVE.map(lambda x: -x), st.just(0.0))
UNIT = st.floats(min_value=5e-324, max_value=1.0, exclude_max=True)     # (0, 1)


@st.composite
def _envelope(draw):
    b_n = sorted(draw(st.lists(UNIT, min_size=3, max_size=6, unique=True)), reverse=True)
    return {"a_n": [b * draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
                    for b in b_n],
            "b_n": b_n, "grid_dim": draw(st.floats(min_value=0.0, max_value=1.0))}


SWEEP = {   # formula -> its arguments drawn over their ranges
    "radii_lower": st.fixed_dictionaries({"h": POSITIVE, "delta_bar": RATE, "ell_bar": RATE,
                                          "tau_bar": RATE, "log_beta": POSITIVE}),
    "doubling": st.fixed_dictionaries({"delta_bar": RATE, "ell_bar": RATE, "s": POSITIVE,
                                       "log_beta": POSITIVE}),
    "code_lower": st.fixed_dictionaries({"h": POSITIVE, "L_bar": RATE}),
    "code_w": st.fixed_dictionaries({"w_bar": st.one_of(RATE, st.just(math.inf))}),
    "upper_finite": st.fixed_dictionaries(
        {"D": st.integers(2, 2 ** 80), "h": POSITIVE},
        optional={"L_lower": RATE, "delta_lower": RATE, "ell_lower": RATE}),
    "hoeffding": st.fixed_dictionaries({
        "p": st.one_of(UNIT.map(lambda x: [x, 1 - x]), POSITIVE.map(lambda x: [1 + 5e-13, x])),
        "L_lower": RATE}),
    "cantor_lambda": st.fixed_dictionaries({
        "a": REAL, "b": REAL, "c": REAL, "delta": st.floats(min_value=5e-324, max_value=1.0),
        "N_js": st.lists(st.integers(1, 10 ** 30), min_size=1, max_size=5).map(sorted)}),
    "grid_transfer": _envelope(),
}


# formula -> (its grid_lower in Fractions of the float args, before clamping; the args
# that replace drawn ones): cantor_lambda's b/(a + c) term alone, at delta = 1
EXACT = {
    "code_lower": (lambda h, L_bar: h / (h + L_bar), {}),
    "code_w": (lambda w_bar: 1 / (1 + w_bar), {}),      # 1/(1 + inf) is 0.0 in floats
    "radii_lower": (lambda h, delta_bar, ell_bar, **_: h / (h + delta_bar * ell_bar), {}),
    "cantor_lambda": (lambda a, b, c, **_: b / (a + c), {"delta": 1.0}),
}


def _finite_clamp01(x, clamp=dimension._clamp01):
    if not math.isfinite(x):
        raise AssertionError(f"_clamp01 got {x}")
    return clamp(x)


class TestBoundsAtExtremes:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(list(SWEEP)).flatmap(lambda f: st.tuples(st.just(f), SWEEP[f])))
    def test_no_arithmetic_error_or_nan(self, drawn):
        """No bound passes an inf or a nan to _clamp01, and each formula of
        EXACT lies within a relative 1e-12 (or one subnormal step) of its
        exact value, clamped."""
        formula, args = drawn
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dimension, "_clamp01", _finite_clamp01)
            try:
                b = BOUNDS[formula][0](**args)
            except DimensionError:      # outside the table's ranges or rules
                return
            values = [b.grid_lower, b.hausdorff_lower, b.upper]
            assert not any(math.isnan(v) for v in values if v is not None), (formula, args, b)
            if formula not in EXACT:
                return
            exact, at = EXACT[formula]
            got = BOUNDS[formula][0](**{**args, **at}).grid_lower
        want = min(1, max(0, exact(**{k: F(v) if isinstance(v, float) and math.isfinite(v)
                                      else v for k, v in args.items()})))
        assert abs(F(got) - F(want)) <= F(want) * F(1e-12) + F(math.ulp(0.0)), \
            (formula, args, got, want)

    @pytest.mark.parametrize("args", [{"h": 1.7e308, "L_lower": 1.7e308},
                                      {"h": 1.0, "delta_lower": 1e200, "ell_lower": 1e200}],
                             ids=["h+L", "delta*ell"])
    def test_upper_finite_past_the_float_range(self, args):
        """An overflowing h + L or delta * ell is evaluated in Fractions, and
        the inputs are the given rates, not their product."""
        b = bound_upper_finite(2, **args)
        rate = args.get("L_lower") or F(args["delta_lower"]) * F(args["ell_lower"])
        assert b.upper == float(F(LOG2) / (F(args["h"]) + F(rate)))
        assert b.inputs == {"D": 2, **args}
        if "L_lower" in args:
            assert b.upper == 2.0386681781174870e-309


class TestCantorLambda:
    def test_trivial_one(self):
        b = cantor_lambda(LOG2, LOG2, 0.0, 1.0, [4, 8, 16])
        assert b.grid_lower == 1.0

    def test_epsilon_form(self):
        h, eps, kappa = LOG2, 0.05, 0.4
        b = cantor_lambda(h + 2 * eps, h - 2 * eps, kappa + eps, 1.0,
                          [8, 16, 32, 64, 128, 256, 512, 1024])
        assert b.grid_lower == pytest.approx(
            (h - 2 * eps) / (h + 2 * eps + kappa + eps), abs=1e-12)
        assert b.notes["lim_term_vanishes_in_the_limit"]

    def test_linear_levels_partial_term(self):
        js = list(range(1, 40))
        b = cantor_lambda(1.0, 1.0, 0.0, 0.5, js)
        j = len(js)
        expected = 1.0 - math.log(2) * (j / sum(js))
        assert b.grid_lower == pytest.approx(expected, abs=1e-12)
        assert b.notes["lim_term"] == pytest.approx(2 / (j + 1), abs=1e-12)


class TestGridTransfer:
    def test_equal_masses_factor_one(self):
        n = 200
        a = [2.0 ** -k for k in range(1, n)]
        b = grid_transfer(a, a, 0.75)
        assert b.notes["transfer_factor"] == pytest.approx(1.0, abs=1e-3)
        assert b.hausdorff_lower == pytest.approx(0.75, abs=1e-3)

    def test_factor_two(self):
        n = 200
        a = [4.0 ** -k for k in range(1, n)]
        bseq = [2.0 ** -k for k in range(1, n)]
        b = grid_transfer(a, bseq, 0.75)
        assert b.notes["transfer_factor"] == pytest.approx(2.0, abs=1e-3)
        assert b.hausdorff_lower == pytest.approx(0.5, abs=1e-3)

    def test_grid_dim_one(self):
        a = [4.0 ** -k for k in range(1, 50)]
        bseq = [2.0 ** -k for k in range(1, 50)]
        assert grid_transfer(a, bseq, 1.0).hausdorff_lower == 1.0

    def test_validation(self):
        with pytest.raises(DimensionError):
            grid_transfer([0.5, 0.6], [0.5, 0.4], 0.5)


def _exact(s):
    """A number of stage.json: "0x..." as an int, "0x.../0x..." as a Fraction."""
    num, _, den = s.partition("/")
    return F(int(num, 16), int(den, 16)) if den else int(num, 16)


def stage_json_blocks(path, chain):
    """Per level of a stage.json, its fine and nested (word, lam, nu) in
    block order, its classes and its family's prefix types: each family
    unranked by RegularWords from the prefix types that the map's integer
    chain rebuilds from the file's end types."""
    doc = json.loads(path.read_text())
    Q, S = chain.scaled
    scaled = [[(d, x) for d, x in enumerate(row) if x > 0] for row in S]
    parents, out = [(tuple(doc["root_word"]), _exact(doc["root_lam"]), F(1))], []
    for lvl in doc["levels"]:
        assert _exact(lvl["Q"]) == Q and _exact(lvl["parents"]) == len(parents)
        finals = {(d, _exact(P)): _exact(m) for d, P, m in lvl["finals"]}
        fam = RegularWords(scaled, lvl["first"], Q,
                           regular_states(scaled, lvl["first"], lvl["N"], finals), finals)
        words = list(map(fam.unrank, range(fam.size)))
        fine = [(w + word[1:], lam * F(P, Q ** fam.N), nu * F(P, fam.prod_sum))
                for w, lam, nu in parents for word, P in words]
        rel, tail = _exact(lvl["nested_rel"]), tuple(lvl["nested_suffix"])
        parents = [(w + tail, lam * rel, nu) for w, lam, nu in fine]
        out.append((fine, parents, [tuple(map(_exact, c)) for c in lvl["classes"]], fam.states))
    return out


def iter_blocks(stage, j, kind="fine"):
    """Oracle: (word, lam, nu) of the fine or nested blocks of
    ``stage.levels[j]`` in block order, each parent's children in turn."""
    lvl = stage.levels[j]
    tail, rel = (lvl.nested_suffix, lvl.nested_rel) if kind == "nested" else ((), 1)
    classes = lvl.family.classes
    family = [(word[1:] + tail, classes[P][0] * rel, classes[P][1])
              for word, P in map(lvl.family.unrank, range(lvl.family.size))]
    parents = iter_blocks(stage, j - 1, "nested") if j else \
        [(stage.x0_digits[:1], stage.root_lam, F(1))]
    for w, lam, nu in parents:
        for suf, s_lam, s_nu in family:
            yield w + suf, lam * s_lam, nu * s_nu


@pytest.fixture(scope="module")
def stage():
    return build_cantor_stage(DAryShift(2), (0, 1),
                              Schedule.radii_exp(LOG2), 2, (8, 12))


class TestCantorStage:

    def test_family_sizes(self, stage):
        assert [len(l.fine_suffix) for l in stage.levels] == [128, 262144]
        assert [l.family.N for l in stage.levels] == [8, 12]
        assert [l.d_j for l in stage.levels] == [8, 27]
        lvl = stage.levels[1]
        assert lvl.fine_suffix[-1] == lvl.fine_suffix[lvl.count - 1]
        with pytest.raises(IndexError):
            lvl.fine_suffix[lvl.count]

    def test_nu_is_probability_each_level(self, stage):
        assert stage.nu_level_sums() == [F(1), F(1)]

    def test_nesting_strict(self, stage):
        assert stage.nesting_violations() == 0

    def test_level_ratio_bounds(self, stage):
        # the children of the first two parents of each level, block by block
        for j, lvl in enumerate(stage.levels):
            F_ = lvl.family.size
            parents = iter_blocks(stage, j - 1, "nested") if j else \
                [(stage.x0_digits[:1], stage.root_lam, F(1))]
            blocks = iter_blocks(stage, j)
            for p, (pword, plam, _) in zip(range(2), parents):
                for s in range(F_):
                    word, lam, _ = next(blocks)
                    assert word[:len(pword)] == pword
                    assert word[len(pword):] == lvl.fine_suffix[p * F_ + s]
                    assert lam == stage.map.word_mass(word)
                    assert lvl.alpha_j <= lam / plam <= lvl.beta_j
            assert lvl.alpha_j <= lvl.beta_j
            assert lvl.nested_rel > 0 and 0 < lvl.family.mass <= 1

    def test_return_words_realize_hits(self, stage):
        # every level-1 nested block maps into B(x0, r_{d_1}) after d_1 steps:
        # its word fixes positions d_1..d_1+k_1 to x0's digits
        lvl = stage.levels[0]
        k1, d1 = len(lvl.nested_suffix), lvl.d_j
        x0_digits = stage.x0_digits
        words = [w for w, _, _ in iter_blocks(stage, 0, "nested")]
        assert len(words) == lvl.count
        for w in words:
            assert w[d1:] == x0_digits[:k1 + 1]

    def test_containment_exact_interval(self, stage):
        # exact interval check of the hit property for a sample of leaves
        from shrinktargets import cylinder_from_word, periodic_point
        m = stage.map
        x0 = periodic_point(m, (0, 1))
        r = F(1, 2 ** stage.levels[0].d_j)
        nested = list(iter_blocks(stage, 0, "nested"))
        for i in (0, 63, 127):
            word, lam, _ = nested[i]
            c = cylinder_from_word(m, word)
            assert c.length == lam      # uniform D=2: lambda is the length
            # image of the leaf under T^{d_1} is P(k_1, x0) inside the ball
            img = cylinder_from_word(m, stage.x0_digits[:len(stage.levels[0].nested_suffix) + 1])
            assert x0 - r <= img.left and img.right <= x0 + r

    def test_frostman_exponent_near_half(self, stage):
        fr = frostman_exponent(stage)
        assert fr["gamma"] == pytest.approx(0.5178848941, abs=1e-6)
        assert abs(fr["gamma"] - 0.5) <= 0.07
        assert fr["blocks"] >= 10

    def test_frostman_consistency_with_level_rates(self, stage):
        rates = stage.geometric_rates()
        cl = cantor_lambda(rates["a"], rates["b"], rates["c"], rates["delta"],
                           rates["N_js"])
        fr = frostman_exponent(stage)
        assert fr["gamma"] >= cl.grid_lower - 0.1

    def test_degenerate_depth_zero(self):
        st2 = build_cantor_stage(DAryShift(2), (0, 1), Schedule.depth_const(0),
                                 2, (4, 5))
        assert [len(l.nested_suffix) for l in st2.levels] == [0, 0]
        assert st2.nu_level_sums() == [F(1), F(1)]
        # nu is uniform across each level's admissible leaves
        for j in range(len(st2.levels)):
            assert len({nu for _, _, nu in iter_blocks(st2, j)}) == 1
        fr = frostman_exponent(st2)
        assert fr["gamma"] == pytest.approx(1.0)

    def test_too_small_levels_error(self):
        with pytest.raises(StageConstructionError, match="window empty"):
            build_cantor_stage(DAryShift(2), (0, 1), Schedule.radii_exp(LOG2),
                               2, (2, 2))

    def test_fast_schedule_extends_target_digits(self):
        # radii shrinking at 3x the expansion rate push the refine depth far
        # past the level budget; the suffix must still be full length
        sched = Schedule.radii_exp(3 * LOG2)
        st = build_cantor_stage(DAryShift(2), (0, 1), sched, 2, (8, 10))
        for lvl in st.levels:
            r = F(float(sched.radii_array(lvl.d_j)[-1]))
            assert len(lvl.nested_suffix) == refine_depth(DAryShift(2), (0, 1), r) > 8
        assert st.nesting_violations() == 0
        assert st.nu_level_sums() == [F(1), F(1)]

    def test_stage_reads_the_map_chain(self, monkeypatch):
        # the stage weighs blocks by the map's own chain: no chain measure is
        # built, so its O(D^2) chain check never runs
        def refuse(*args):
            raise AssertionError("the stage re-checked the map's chain")
        monkeypatch.setattr(measures, "chain_violations", refuse)
        st4 = build_cantor_stage(DAryShift(64), (0, 1), Schedule.depth_const(3), 1, [2],
                                 epsilon=3)
        assert st4.nu_level_sums() == [F(1)] and st4.levels[0].family.size == 64

    def test_insufficient_resolution_error(self):
        tiny = build_cantor_stage(DAryShift(2), (0, 1), Schedule.depth_const(0),
                                  1, (3,))
        with pytest.raises(DimensionError, match="insufficient resolution"):
            frostman_exponent(tiny)

    def test_flush_suffix_rejected(self):
        # all-zero target word makes the appended suffix flush left
        with pytest.raises(StageConstructionError, match="containment"):
            build_cantor_stage(DAryShift(2), (0, 0), Schedule.radii_exp(LOG2),
                               1, (6,))

    def test_markov_stage(self, markov):
        st3 = build_cantor_stage(markov, (0, 1), Schedule.radii_exp(LOG2),
                                 2, (6, 8))
        assert st3.nu_level_sums() == [F(1), F(1)]
        assert st3.nesting_violations() == 0
        fr = frostman_exponent(st3)
        assert 0 < fr["gamma"] <= 1
        rates = st3.geometric_rates()
        cl = cantor_lambda(rates["a"], rates["b"], rates["c"], rates["delta"],
                           rates["N_js"])
        assert fr["gamma"] >= cl.grid_lower - 0.1

    def test_dump_json(self, tmp_path):
        st2 = build_cantor_stage(DAryShift(2), (0, 1), Schedule.depth_const(0),
                                 1, (4,))
        path = tmp_path / "stage.json"
        st2.dump_json(path)
        doc = json.loads(path.read_text())
        assert doc["root_word"] == [0] and _exact(doc["root_lam"]) == F(1, 2)
        lvl, = doc["levels"]
        assert [tuple(map(_exact, c)) for c in lvl["classes"]] == st2.levels[0].classes
        assert (lvl["first"], lvl["N"], lvl["Q"], lvl["parents"]) == (0, 4, "0x2", "0x1")
        assert lvl["nested_suffix"] == [] and _exact(lvl["nested_rel"]) == 1
        assert lvl["finals"] == [[0, "0x1", "0x8"]]
        # no prefix types: the chain rebuilds the five layers from the finals
        scaled = [[(d, x) for d, x in enumerate(row) if x > 0] for row in st2.map.scaled[1]]
        states = regular_states(scaled, 0, 4, {(0, 1): 8})
        assert "states" not in lvl and len(states) == 5 and states[0] == {(0, 1): (8, 8)}

    @pytest.mark.parametrize("chain, sizes", [(False, (4, 5)), (True, (6, 8))])
    def test_stage_json_rebuilds_every_block(self, markov, tmp_path, chain, sizes):
        st_ = build_cantor_stage(markov if chain else DAryShift(2), (0, 1),
                                 Schedule.radii_exp(LOG2), 2, sizes)
        path = tmp_path / "stage.json"
        st_.dump_json(path)
        levels = stage_json_blocks(path, st_.map)
        for j, (fine, nested, classes, states) in enumerate(levels):
            assert fine == list(iter_blocks(st_, j))
            assert nested == list(iter_blocks(st_, j, "nested"))
            assert classes == st_.levels[j].classes
            assert list(map(list, states)) == list(map(list, st_.levels[j].family.states))
            assert states == st_.levels[j].family.states
        assert [len(fine) for fine, *_ in levels] == [lvl.count for lvl in st_.levels]


def _flat_oracle(stage, c_cap=1e3):
    """Block-by-block recomputation over iter_blocks: nu level sums, the
    (fine lam, nested lam, nu) classes in first-occurrence order, the
    Frostman gamma, the block count and the set of prefix constraints,
    lengths 1..N_j below each parent (length N_j: the fine blocks)."""
    log_cap = math.log(c_cap)

    def lg(q):
        return math.log(q.numerator) - math.log(q.denominator)

    def key(*qs):                       # exact and cheap to hash
        return tuple(x for q in qs for x in (q.numerator, q.denominator))

    M = stage.map.M
    nu_sums, classes, constraints, inter, blocks = [], [], [], set(), 0
    parents = {stage.x0_digits[:1]: stage.root_lam}        # nested word -> lam
    for j, lvl in enumerate(stage.levels):
        plen = len(next(iter(parents)))
        counts, children, nested, nu_by_den = {}, {}, {}, {}
        for (w, lam, nu), (wn, lam_n) in zip(
                iter_blocks(stage, j),
                ((wn, lam_n) for wn, lam_n, _ in iter_blocks(stage, j, "nested"))):
            assert wn[:len(w)] == w
            nu_by_den[nu.denominator] = nu_by_den.get(nu.denominator, 0) + nu.numerator
            k = key(lam, lam_n, nu)
            counts[k] = counts.get(k, 0) + 1
            children.setdefault(w[:plen], []).append((w[plen:], nu))
            if j + 1 < len(stage.levels):
                nested[wn] = lam_n
        nu_sums.append(sum((F(n, d) for d, n in nu_by_den.items()), F(0)))
        counts = {(F(a, b), F(c, d), F(e, f)): cnt
                  for (a, b, c, d, e, f), cnt in counts.items()}
        classes.append([k + (cnt,) for k, cnt in counts.items()])
        blocks += sum(counts.values()) * (2 if lvl.nested_suffix else 1)
        for (lam_f, lam_n, nu) in counts:
            for lam in {lam_f, lam_n}:
                constraints.append((log_cap - lg(nu)) / -lg(lam))
        seen = set()
        for pword, kids in children.items():
            cls = (parents[pword], kids[0][1])
            if cls in seen:
                continue
            seen.add(cls)
            for n in range(1, len(kids[0][0]) + 1):
                groups = {}
                for suf, nu in kids:
                    groups[suf[:n]] = groups.get(suf[:n], 0) + nu
                for pref, nu in groups.items():
                    lam, last = parents[pword], pword[-1]
                    for d in pref:
                        lam, last = lam * M[last][d], d
                    inter.add((log_cap - lg(nu)) / -lg(lam))
        parents = nested
    return nu_sums, classes, min(1.0, min(constraints), min(inter)), blocks, inter


class TestFactorizedStage:

    @pytest.mark.parametrize("name", ["dary2-8-12", "markov-6-8", "depthconst-4-5"])
    def test_matches_flat_oracle(self, name, stage, markov):
        st_ = {
            "dary2-8-12": lambda: stage,
            "markov-6-8": lambda: build_cantor_stage(
                markov, (0, 1), Schedule.radii_exp(LOG2), 2, (6, 8)),
            "depthconst-4-5": lambda: build_cantor_stage(
                DAryShift(2), (0, 1), Schedule.depth_const(0), 2, (4, 5)),
        }[name]()
        nu_sums, classes, gamma, blocks, inter = _flat_oracle(st_)
        assert st_.nu_level_sums() == nu_sums == [F(1)] * len(st_.levels)
        assert [lvl.classes for lvl in st_.levels] == classes
        fr = frostman_exponent(st_)
        assert fr["gamma"] == gamma
        assert fr["blocks"] == blocks
        # every intermediate constraint, not only the binding one
        parents, factorized = [(st_.root_lam, F(1))], set()
        for lvl, level_classes in zip(st_.levels, classes):
            factorized.update(_intermediate_constraints(lvl, parents, math.log(1e3)))
            parents = [(lam_n, nu) for _, lam_n, nu, _ in level_classes]
        assert factorized == inter

    @pytest.mark.parametrize("name", ["dary2-8-12", "dary2-8-12-14", "chain-6-30-60-eps-0.05"])
    def test_classes_are_the_parent_family_merge(self, name, stage, markov):
        """The classes each level stores at build time are those the merge of
        its parent classes with its family classes gives."""
        st_ = {
            "dary2-8-12": lambda: stage,
            "dary2-8-12-14": lambda: build_cantor_stage(
                DAryShift(2), (0, 1), Schedule.radii_exp(LOG2), 3, (8, 12, 14)),
            "chain-6-30-60-eps-0.05": lambda: build_cantor_stage(
                markov, (0, 1), Schedule.depth_power_floor(1), 3, (6, 30, 60), epsilon=0.05),
        }[name]()
        assert [lvl.classes for lvl in st_.levels] == level_classes_reference(st_)

    @pytest.mark.parametrize("c_cap", [math.nan, math.inf, 0, -1, "1e3"])
    def test_c_cap_is_checked(self, stage, c_cap):
        with pytest.raises(DimensionError, match=r"^params\.c_cap: must be a finite number > 0 "
                                                 r"for cantor, got "):
            frostman_exponent(stage, c_cap)

    def test_three_levels(self):
        t0 = time.perf_counter()
        st3 = build_cantor_stage(DAryShift(2), (0, 1), Schedule.radii_exp(LOG2),
                                 3, (8, 12, 14))
        fr = frostman_exponent(st3)
        elapsed = time.perf_counter() - t0
        assert st3.nu_level_sums() == [F(1)] * 3
        assert st3.nesting_violations() == 0
        assert len(st3.levels[2].fine_suffix) == 2 ** 31
        assert 0 < fr["gamma"] <= 1
        assert elapsed < 5

    @pytest.mark.parametrize("chain, sizes", [(False, (8, 12, 100)), (True, (6, 30))])
    def test_deep_levels_build_and_score_within_a_second(self, markov, chain, sizes):
        # the deepest families come from word trees of 2^99 and 2^29 leaves:
        # counted by type, never listed
        t0 = time.perf_counter()
        st_ = build_cantor_stage(markov if chain else DAryShift(2), (0, 1),
                                 Schedule.radii_exp(LOG2), len(sizes), sizes)
        assert st_.nu_level_sums() == [F(1)] * len(sizes)
        fr = frostman_exponent(st_)
        elapsed = time.perf_counter() - t0
        assert 0 < fr["gamma"] <= 1
        assert elapsed < 1

    def test_target_digits_are_read_without_matrices(self):
        """The stage reads x0's 60,064 digits as digits: a prefix walk composed
        an exact matrix per digit, of about t bits at depth t (568 MB traced)."""
        import tracemalloc
        tracemalloc.start()
        try:
            st_ = build_cantor_stage(DAryShift(2), (0, 1), Schedule.depth_const(3), 2, (8, 15000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # x0's digits through the stage's depth d_2 + k_2 = (8 + 3 + 15000) + 3, and no further
        assert len(st_.x0_digits) == 15015
        assert peak < 150e6, f"{peak / 1e6:.0f} MB over the 150 MB budget"

    def test_target_digits_are_read_only_as_deep_as_the_stage(self):
        """A digit fault past the stage's depth d_1 + k_1 = 4 + 3 is never read."""
        x0 = TargetPoint(DAryShift(2), lambda k: k % 2 if k < 20 else 2)
        st_ = build_cantor_stage(DAryShift(2), x0, Schedule.depth_const(3), 1, [4], epsilon=3)
        assert st_.x0_digits == (0, 1) * 4
        with pytest.raises(InadmissibleDigit):
            x0.digits(20)

    @pytest.mark.parametrize("case", ["forbidden", "out-of-range", "first-out-of-range"])
    def test_target_digits_keep_the_walk_errors(self, case, golden_markov):
        """An inadmissible target word fails as its prefix walk fails."""
        m, word = {"forbidden": (golden_markov, (0, 1, 1)),
                   "out-of-range": (DAryShift(2), (0, 2)),
                   "first-out-of-range": (DAryShift(2), (2, 0))}[case]
        with pytest.raises(InadmissibleDigit) as got:
            build_cantor_stage(m, word, Schedule.depth_const(3), 1, [4], epsilon=3)
        with pytest.raises(InadmissibleDigit) as want:
            TargetPoint.from_word(m, word).walk().digits(10)
        assert got.value.args == want.value.args

    def test_rates_past_float_underflow(self):
        st_ = build_cantor_stage(DAryShift(2), (0, 1), Schedule.depth_const(3), 2, (8, 1100))
        assert float(st_.levels[1].alpha_j) == 0.0      # 2^-1100 underflows
        assert st_.geometric_rates()["a"] == pytest.approx(LOG2)
        assert frostman_exponent(st_)["blocks"] == 2 * 128 * (1 + 2 ** 1099)


def _fraction_leaves(split, a, b, n, cap):
    """Oracle: level-n leaves of the split grid meeting (a, b), as Fractions."""
    out, stack = [], [(F(0), F(1), 0)]
    while stack:
        lo, hi, depth = stack.pop()
        if hi <= a or lo >= b:
            continue
        if depth == n + 1:
            out.append((lo, hi))
            if len(out) > cap:
                raise DimensionError("leaf enumeration exceeded the cap")
            continue
        mid = lo + split * (hi - lo)
        stack += [(lo, mid, depth + 1), (mid, hi, depth + 1)]
    return out


def _fraction_band(split, a, b, n):
    """Oracle: union extent of the level-n leaves meeting (a, b)."""
    def leaf(point):
        lo, hi = F(0), F(1)
        for _ in range(n + 1):
            mid = lo + split * (hi - lo)
            lo, hi = (lo, mid) if point < mid else (mid, hi)
        return lo, hi
    lo_leaf = leaf(a)
    lo = lo_leaf[0] if lo_leaf[1] > a else lo_leaf[1]
    if b >= 1:
        return lo, F(1)
    hi_leaf = leaf(b)
    return lo, (hi_leaf[1] if hi_leaf[0] < b else hi_leaf[0])


def _fraction_probe(grid, balls, levels=None):
    """Oracle: the probe with every endpoint, union and level kept as a
    Fraction, as before the integer lattice."""
    def level(bmass):
        n, sup = 0, grid.sup_ratio
        while float(sup) > bmass:
            n, sup = n + 1, sup * grid.sup_ratio
        return n if levels is None else max(n, levels)

    out = []
    for k, ball in enumerate(balls, start=1):
        if isinstance(grid, IntervalSplitGrid):
            x, r = ball
            a, b = max(x - r, F(0)), min(x + r, F(1))
            bmass = float(b - a)
            n = level(bmass)
            union = sum(hi - lo for lo, hi in _fraction_leaves(grid.split, a, b, n, 10 ** 4))
        else:
            cx, cy, r = ball
            bmass = math.pi * float(r) ** 2
            n = level(bmass)
            ya, yb = max(cy - r, F(0)), min(cy + r, F(1))
            union = F(0)
            for xl, xh in _fraction_leaves(grid.a, max(cx - r, F(0)), min(cx + r, F(1)), n, 512):
                if xl <= cx <= xh:
                    ylo, yhi = _fraction_band(grid.b, ya, yb, n)
                    union += (xh - xl) * (yhi - ylo)
                    continue
                dx = min(abs(cx - xl), abs(cx - xh))
                if dx * dx >= r * r:
                    continue
                for yl, yh in _fraction_leaves(grid.b, ya, yb, n, 4096):
                    dy = F(0) if yl <= cy <= yh else min(abs(cy - yl), abs(cy - yh))
                    if dx * dx + dy * dy < r * r:
                        union += (xh - xl) * (yh - yl)
        out.append(ProbeRecord(k, n, bmass, float(union)))
    return out


class TestGridProbes:
    def test_dyadic_never_exceeds_three(self):
        g = IntervalSplitGrid(F(1, 2))
        for center in (F(1, 3), F(5, 7), F(9, 16) + F(1, 1000)):
            balls = [(center, F(3, 7) * F(1, 2) ** k) for k in range(1, 22)]
            recs = grid_regularity_probe(g, balls)
            assert max(r.ratio for r in recs) <= 3.0

    def test_rectangle_counterexample_blows_up(self):
        g = ProductSplitGrid(F(7, 10), F(6, 10))
        balls = rectangle_counterexample_balls(F(7, 10), F(6, 10), 32)
        recs = grid_regularity_probe(g, balls)
        cs = [r.ratio for r in recs]
        first = next(r.k for r in recs if r.ratio > 100)
        assert first <= 40
        # increasing trend (exponential growth ~ e^{0.16 k}, local wobble
        # from the discrete level selection)
        assert all(cs[k + 5] > cs[k] for k in range(len(cs) - 5))

    def test_square_grid_bounded(self):
        g = ProductSplitGrid(F(1, 2), F(1, 2))
        balls = [(F(1, 3), F(1, 3), F(1, 2) ** k) for k in range(1, 16)]
        recs = grid_regularity_probe(g, balls)
        assert max(r.ratio for r in recs) < 10.0

    @pytest.mark.parametrize("grid, balls, levels", [
        (ProductSplitGrid(F(7, 10), F(6, 10)),
         rectangle_counterexample_balls(F(7, 10), F(6, 10), 40), None),
        (ProductSplitGrid(F(1, 2), F(1, 2)),
         [(F(1, 3), F(1, 3), F(1, 2) ** k) for k in range(1, 16)]
         + [(F(1, 2), F(1, 4), F(1, 8) ** k) for k in (1, 2, 3)], None),
        # leaf corners (1/2 + 3/16, 1/2 + 4/16) on the circle of radius 5/16
        (ProductSplitGrid(F(1, 2), F(1, 2)), [(F(1, 2), F(1, 2), F(5, 16))], 4),
        (ProductSplitGrid(F(2, 3), F(3, 5)),
         [(F(2, 7), F(5, 9), F(1, 3) ** k) for k in range(1, 9)]
         + [(F(3, 5), F(1, 9), F(1, 5)), (F(1, 2), F(1, 2), F(1, 4)), (F(1, 2), F(3, 2), F(1, 4)),
            (F(1, 2), F(5, 4), F(1, 4))],
         None),
        (ProductSplitGrid(F(7, 10), F(6, 10)),
         rectangle_counterexample_balls(F(7, 10), F(6, 10), 8)[3:], 11),
        (IntervalSplitGrid(F(1, 2)),
         [(c, F(3, 7) * F(1, 2) ** k) for c in (F(1, 2), F(1, 4), F(1, 3))
          for k in range(1, 22)] + [(F(1, 8), F(1, 4)), (F(7, 8), F(1, 3))]
         + [(F(1, 2), F(1, 8)), (F(1, 4), F(1, 16))], None),     # measures 2^-(n+1)
        (IntervalSplitGrid(F(2, 5)),
         [(c, F(1, 3) ** k) for c in (F(2, 5), F(1, 2), F(4, 25)) for k in range(1, 12)]
         + [(F(0), F(1, 7)), (F(1), F(2, 9))], None),
        (IntervalSplitGrid(F(2, 5)), [(F(2, 5), F(1, 3) ** k) for k in range(1, 6)], 7),
    ])
    def test_records_match_fraction_oracle(self, grid, balls, levels):
        got = grid_regularity_probe(grid, balls, levels=levels)
        assert repr(got) == repr(_fraction_probe(grid, balls, levels))

    def test_grid_lines_go_right(self):
        g = IntervalSplitGrid(F(2, 5))      # level 1: 0 < 4/25 < 10/25 < 16/25 < 1
        assert g.leaf_containing(F(2, 5), 1) == (10, 16)
        assert g.leaf_containing(F(4, 25), 1) == (4, 10)
        assert g.leaf_containing(F(1), 1) == (16, 25)
        assert g.band(F(4, 25), F(2, 5), 1) == (4, 10)

    def test_enumeration_caps_raise(self):
        # a 1-D probe measures the band of its leaves, more than 10^4 of them here
        (rec,) = grid_regularity_probe(IntervalSplitGrid(F(1, 100)), [(F(1, 2), F(1, 4))])
        lo, hi = _fraction_band(F(1, 100), F(1, 4), F(3, 4), rec.level)
        assert rec.union_measure == float(hi - lo)
        square, disc = ProductSplitGrid(F(1, 2), F(1, 2)), [(F(1, 2), F(1, 2), F(1, 4))]
        grid_regularity_probe(square, disc, levels=9)          # 512 x-leaves, at the cap
        with pytest.raises(DimensionError, match="cap"):      # 1024 x-leaves
            grid_regularity_probe(square, disc, levels=10)

    def test_balls_checked_before_any_is_probed(self):
        interval, rect = IntervalSplitGrid(), ProductSplitGrid(F(7, 10), F(6, 10))
        with pytest.raises(DimensionError, match=r"^balls\.1: must be 1 centre"):
            grid_regularity_probe(interval, [(F(1, 2), F(1, 4)), (F(1, 2), F(1, 2), F(1, 4))])
        with pytest.raises(DimensionError, match=r"^balls\.0\.2: must be a radius > 0"):
            grid_regularity_probe(rect, [(F(1, 2), F(1, 2), F(0))])
        # pi r^2 of the 406th disc is 0.0 as a float
        with pytest.raises(DimensionError, match=r"^balls\.405: its measure 0\.0"):
            grid_regularity_probe(rect, rectangle_counterexample_balls(F(7, 10), F(6, 10), 500))

    def test_rectangle_probe_is_fast(self):
        g = ProductSplitGrid(F(7, 10), F(6, 10))
        balls = rectangle_counterexample_balls(F(7, 10), F(6, 10), 40)
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            grid_regularity_probe(g, balls)
            best = min(best, time.perf_counter() - t0)
        assert best < 0.025


class TestFormulaSandwich:
    def test_lower_at_most_upper_when_both_defined(self):
        # Bernoulli-uniform instances: lower h/(h+L), upper log D/(h+L)
        for D in (2, 3, 4):
            h = math.log(D)
            for L in (0.1, 0.5, 2.0):
                lo = bound_code_lower(h, L).grid_lower
                hi = bound_upper_finite(D, h, L_lower=L).upper
                assert lo <= hi + 1e-14
