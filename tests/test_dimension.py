import itertools
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
    IntervalSplitGrid,
    ProductSplitGrid,
    Schedule,
    StageConstructionError,
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
)
from shrinktargets.dimension import _intermediate_constraints

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


@pytest.fixture(scope="module")
def stage():
    return build_cantor_stage(DAryShift(2), (0, 1),
                              Schedule.radii_exp(LOG2), 2, (8, 12))


class TestCantorStage:

    def test_family_sizes(self, stage):
        assert [len(l.fine_suffix) for l in stage.levels] == [128, 262144]
        assert [l.N_j for l in stage.levels] == [8, 12]
        assert [l.d_j for l in stage.levels] == [8, 27]

    def test_nu_is_probability_each_level(self, stage):
        assert stage.nu_level_sums() == [F(1), F(1)]

    def test_nesting_strict(self, stage):
        assert stage.nesting_violations() == 0

    def test_level_ratio_bounds(self, stage):
        for j, lvl in enumerate(stage.levels):
            for i in range(0, len(lvl.fine_suffix), 4097):
                parent = int(lvl.fine_parent[i])
                parent_lam = stage.root_lam if j == 0 else \
                    stage.levels[j - 1].nested_lam[parent]
                ratio = float(lvl.fine_lam[i] / parent_lam)
                assert lvl.alpha_j <= ratio <= lvl.beta_j
            assert lvl.alpha_j <= lvl.beta_j
            assert lvl.gamma_j > 0 and 0 < lvl.delta_j <= 1

    def test_return_words_realize_hits(self, stage):
        # every level-1 nested block maps into B(x0, r_{d_1}) after d_1 steps:
        # its word fixes positions d_1..d_1+k_1 to x0's digits
        lvl = stage.levels[0]
        k1, d1 = lvl.k_j, lvl.d_j
        x0_digits = stage.x0_digits
        for i in range(len(lvl.fine_suffix)):
            w = stage.nested_word(0, i)
            assert w[d1:] == x0_digits[:k1 + 1]

    def test_containment_exact_interval(self, stage):
        # exact interval check of the hit property for a sample of leaves
        from shrinktargets import cylinder_from_word, periodic_point
        m = stage.map
        x0 = periodic_point(m, (0, 1))
        r = Fraction = F(1, 2 ** stage.levels[0].d_j)
        for i in (0, 63, 127):
            c = cylinder_from_word(m, stage.nested_word(0, i))
            # image of the leaf under T^{d_1} is P(k_1, x0) inside the ball
            img = cylinder_from_word(m, stage.x0_digits[:stage.levels[0].k_j + 1])
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

    def test_lambda_hypothesis_margin_positive(self, stage):
        assert stage.lambda_hypothesis_margin() > 0

    def test_degenerate_depth_zero(self):
        st2 = build_cantor_stage(DAryShift(2), (0, 1), Schedule.depth_const(0),
                                 2, (4, 5))
        assert [l.k_j for l in st2.levels] == [0, 0]
        assert st2.nu_level_sums() == [F(1), F(1)]
        # nu is uniform across each level's admissible leaves
        for lvl in st2.levels:
            assert len(set(lvl.fine_nu)) == 1
        fr = frostman_exponent(st2)
        assert fr["gamma"] == pytest.approx(1.0)

    def test_too_small_levels_error(self):
        with pytest.raises(StageConstructionError, match="window empty"):
            build_cantor_stage(DAryShift(2), (0, 1), Schedule.radii_exp(LOG2),
                               2, (2, 2))

    def test_fast_schedule_extends_target_digits(self):
        # radii shrinking at 3x the expansion rate push the refine depth far
        # past the level budget; the suffix must still be full length
        st = build_cantor_stage(DAryShift(2), (0, 1),
                                Schedule.radii_exp(3 * LOG2), 2, (8, 10))
        for lvl in st.levels:
            assert len(lvl.nested_suffix) == lvl.k_j
        assert st.nesting_violations() == 0
        assert st.nu_level_sums() == [F(1), F(1)]

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
        import json
        doc = json.loads(path.read_text())
        recs = doc["levels"][0]
        assert all("/" in r["lambda"] and "/" in r["nu"] for r in recs)
        assert {r["kind"] for r in recs} == {"fine", "nested"}


def _flat_oracle(stage, c_cap=1e3):
    """Block-by-block recomputation over iter_blocks: nu level sums, the
    (fine lam, nested lam, nu) classes in first-occurrence order, the
    Frostman gamma, the block count and the set of intermediate-prefix
    constraints."""
    log_cap = math.log(c_cap)

    def lg(q):
        return math.log(q.numerator) - math.log(q.denominator)

    def key(*qs):                       # exact and cheap to hash
        return tuple(x for q in qs for x in (q.numerator, q.denominator))

    M = stage.measure.M
    nu_sums, classes, constraints, inter, blocks = [], [], [], set(), 0
    parents = {stage.root_word: stage.root_lam}        # nested word -> lam
    for j, lvl in enumerate(stage.levels):
        plen = len(next(iter(parents)))
        counts, children, nested, nu_by_den = {}, {}, {}, {}
        for (w, lam, nu), (wn, lam_n) in zip(
                stage.iter_blocks(j),
                ((wn, lam_n) for wn, lam_n, _ in stage.iter_blocks(j, "nested"))):
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
            for n in range(1, len(kids[0][0])):
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
        assert st_.level_classes() == classes
        fr = frostman_exponent(st_)
        assert fr["gamma"] == gamma
        assert fr["blocks"] == blocks
        # every intermediate constraint, not only the binding one
        parents, factorized = [(st_.root_lam, F(1))], set()
        for lvl, level_classes in zip(st_.levels, classes):
            factorized.update(_intermediate_constraints(st_.measure, lvl, parents,
                                                        math.log(1e3)))
            parents = [(lam_n, nu) for _, lam_n, nu, _ in level_classes]
        assert factorized == inter

    def test_views_index_like_sequences(self, stage):
        lvl = stage.levels[1]
        n = len(lvl.fine_lam)
        first = list(itertools.islice(stage.iter_blocks(1), 3000))
        for i in (0, 2047, 2048, 2999):          # 2048 suffixes per parent
            word, lam, nu = first[i]
            assert stage.fine_word(1, i) == word
            assert (lvl.fine_lam[i], lvl.fine_nu[i]) == (lam, nu)
            assert lvl.nested_lam[i] == lam * lvl.nested_rel
        assert lvl.fine_lam[-1] == lvl.fine_lam[n - 1]
        with pytest.raises(IndexError):
            lvl.fine_nu[n]

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

    def test_dump_budget(self, stage, tmp_path, monkeypatch):
        from shrinktargets import dimension
        monkeypatch.setattr(dimension, "DUMP_BLOCK_BUDGET", 1000)
        path = tmp_path / "stage.json"
        with pytest.raises(DimensionError, match="dump budget"):
            stage.dump_json(path)
        assert not path.exists()


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


class TestFormulaSandwich:
    def test_lower_at_most_upper_when_both_defined(self):
        # Bernoulli-uniform instances: lower h/(h+L), upper log D/(h+L)
        for D in (2, 3, 4):
            h = math.log(D)
            for L in (0.1, 0.5, 2.0):
                lo = bound_code_lower(h, L).grid_lower
                hi = bound_upper_finite(D, h, L_lower=L).upper
                assert lo <= hi + 1e-14
