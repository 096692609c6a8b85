"""The benchmark's workloads: operations on `shrinktargets` and their checks.

`build(workload, seed, tmp)` is the set-up step.  It makes every input from
the seed (maps, measures, schedules, targets, CLI config files) and returns
the list of operations.  An operation calls public functions of the package
the way a researcher or the CLI would; its check judges the output by a
tolerance or by theory, never by a seeded bit pattern, so a change of random
streams is not a failure.

An operation whose failure at the seed commit is a known defect carries the
failure signature in `expect`; `failed` counts it, but it does not make the
run incorrect unless it fails some other way.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import traceback
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Any, Callable, Optional

import shrinktargets as st
from shrinktargets import cli

WORKLOADS = ("linear-stream", "float-orbit", "exact-dimension", "cli-batch")

LOG2 = math.log(2)
GAUSS_H = math.pi ** 2 / (6 * LOG2)
M_CHAIN = [[F(3, 4), F(1, 4)], [F(1, 2), F(1, 2)]]
P_CHAIN = [F(2, 3), F(1, 3)]
M_GOLDEN = [[F(1, 2), F(1, 2)], [F(1), F(0)]]
P_GOLDEN = [F(2, 3), F(1, 3)]
# entropy sum_ij p_i M_ij log(1/M_ij) of the chain
H_CHAIN = -sum(float(P_CHAIN[i] * M_CHAIN[i][j]) * math.log(M_CHAIN[i][j])
               for i in range(2) for j in range(2))

# Hit counts are compound Poisson with mean equal to the normalizer (the
# measure is invariant).  Clustering at a periodic target with extremal
# index theta inflates the variance by (2 - theta) / theta <= 3 for
# theta >= 1/2; KAPPA adds margin on top.  Z standard deviations keep a
# correct engine from failing on any seed in practice.
KAPPA = 4.0
Z = 5.0
# Entropy estimates must lie within ENTROPY_TOL of the closed form and
# within ENTROPY_Z reported standard errors (t-distributed with >= 8 trials).
ENTROPY_TOL = 0.02
ENTROPY_Z = 6.0


@dataclass
class Op:
    name: str
    fn: Callable[[], Any]
    check: Callable[[Any], Optional[str]]      # None when the output is right
    expect: Optional[str] = None               # failure signature at the seed commit


# ---------------------------------------------------------------------------
# checks shared by several operations

def ratio_band(hits, normalizer, label="") -> Optional[str]:
    """Mean hitting ratio within Z compound-Poisson deviations of 1."""
    trials = len(hits)
    mean = sum(hits) / trials / normalizer
    half = Z * math.sqrt(KAPPA / (trials * normalizer))
    if not abs(mean - 1) <= half:
        return f"{label}mean ratio {mean:.4f} outside 1 +- {half:.4f}"
    return None


def hit_series_band(hs) -> Optional[str]:
    for k, n in enumerate(hs.checkpoints):
        bad = ratio_band(hs.hits[:, k].tolist(), float(hs.normalizer[k]),
                         f"n={n}: ")
        if bad:
            return bad
    return None


def entropy_close(est, exact) -> Optional[str]:
    err = abs(est.value - exact)
    if not (err <= ENTROPY_TOL and est.standard_error is not None
            and err <= ENTROPY_Z * est.standard_error):
        return (f"entropy {est.value:.6f} vs {exact:.6f}: |err| {err:.2e} "
                f"(tol {ENTROPY_TOL}, stderr {est.standard_error})")
    return None


def cf_value(word) -> F:
    """[0; a_0, a_1, ..., a_n] by backward recursion."""
    x = F(0)
    for a in reversed(word):
        x = 1 / (a + x)
    return x


def cf_cylinder(word):
    """Exact closed interval of the continued-fraction cylinder of `word`."""
    a = cf_value(word)
    b = cf_value(word[:-1] + (word[-1] + 1,))
    return min(a, b), max(a, b)


def dary_cylinder(D, x0: F, t: int):
    """Depth-t D-ary cylinder of a point that is not a D-adic rational."""
    scale = D ** (t + 1)
    k = math.floor(x0 * scale)
    return F(k, scale), F(k + 1, scale)


def below_golden(q: F) -> bool:
    """q < (sqrt 5 - 1) / 2, exactly, for rational q."""
    s = 2 * q + 1
    return s <= 0 or s * s < 5


def minimal_depths(depths, radii, contained, sample) -> Optional[str]:
    """Depths are non-decreasing and minimal at the sampled indices."""
    if any(b < a for a, b in zip(depths, depths[1:])):
        return "depths decrease along non-increasing radii"
    for i in sample:
        t, r = depths[i], radii[i]
        if not contained(t, r):
            return f"radius {r}: depth {t} cylinder not inside the ball"
        if t > 0 and contained(t - 1, r):
            return f"radius {r}: depth {t} not minimal"
    return None


# ---------------------------------------------------------------------------
# linear-stream: exact digit-stream engines of linear maps

def _linear_stream(rng, tmp):
    d2, d3 = st.DAryShift(2), st.DAryShift(3)
    leb = st.LebesgueMeasure()
    chain = st.MarkovLinear(M_CHAIN, P_CHAIN)
    chain_mu = st.MarkovStationaryMeasure(P_CHAIN, M_CHAIN)
    golden = st.MarkovLinear(M_GOLDEN, P_GOLDEN)
    golden_mu = st.MarkovStationaryMeasure(P_GOLDEN, M_GOLDEN)
    alt2 = st.TargetPoint.from_word(d2, (0, 1))
    quarter3 = st.TargetPoint.from_point(d3, F(1, 4))
    alt_chain = st.TargetPoint.from_word(chain, (0, 1))
    third_golden = st.TargetPoint.from_point(golden, F(1, 3))
    log2_depths = st.Schedule.depth_log_floor(2)
    log4_depths = st.Schedule.depth_log_floor(4)
    sqrt_radii = st.Schedule.radii_power(2.0)
    s = [rng.randrange(2 ** 32) for _ in range(7)]

    def symbolic(hs):
        return "engine is not symbolic" if hs.engine != "symbolic" else hit_series_band(hs)

    return [
        Op("symbolic-dary2-log2",
           lambda: st.run_symbolic_hits(d2, leb, alt2, log2_depths, 300_000, 20, s[0]),
           symbolic),
        Op("metric-dary2-sqrt",
           lambda: st.run_metric_hits(d2, leb, alt2, sqrt_radii, 1_000_000, 4, s[1]),
           hit_series_band),
        Op("metric-dary3-sqrt",
           lambda: st.run_metric_hits(d3, leb, quarter3, sqrt_radii, 1_000_000, 4, s[2]),
           hit_series_band),
        Op("symbolic-markov-log4",
           lambda: st.run_symbolic_hits(chain, chain_mu, alt_chain, log4_depths,
                                        10_000, 10, s[3]),
           symbolic),
        Op("metric-markov-sqrt",
           lambda: st.run_metric_hits(chain, chain_mu, alt_chain, sqrt_radii,
                                      300, 2, s[4]),
           hit_series_band),
        Op("entropy-markov-birkhoff",
           lambda: st.entropy_birkhoff(chain, chain_mu, 5_000, 16, s[5]),
           lambda est: entropy_close(est, H_CHAIN)),
        Op("metric-golden-mean-sqrt",
           lambda: st.run_metric_hits(golden, golden_mu, third_golden, sqrt_radii,
                                      100, 1, s[6]),
           hit_series_band, expect="ZeroDivisionError"),
    ]


# ---------------------------------------------------------------------------
# float-orbit: float-orbit engine and Birkhoff estimators

def _float_orbit(rng, tmp):
    gauss, gauss_mu = st.GaussMap(), st.GaussMeasure()
    blaschke = st.BlaschkeBoundary([0, 0.5])
    leb = st.LebesgueMeasure()
    golden = st.TargetPoint.from_word(gauss, (1,))
    point = st.TargetPoint.from_point(blaschke, 0.3)
    # Jensen's formula for B(z) = z (z - a) / (1 - a z): h = log(1 + sqrt(1 - a^2))
    h_blaschke = math.log(1 + math.sqrt(1 - 0.5 ** 2))
    s = [rng.randrange(2 ** 32) for _ in range(4)]

    def liminf_grows(hs):
        bad = hit_series_band(hs)
        if bad:
            return bad
        w = hs.window_minima
        grew = int(((w[:, 1] > w[:, 0]) & (w[:, 2] > w[:, 0])).sum())
        if grew < 0.9 * w.shape[0]:
            return f"liminf statistic grew in {grew}/{w.shape[0]} trials (< 90%)"
        return None

    def quadrature(est):
        if abs(est.value - h_blaschke) > 1e-9:
            return f"quadrature {est.value!r} vs Jensen {h_blaschke!r}"
        return None

    return [
        Op("metric-gauss-golden-n^-2",
           lambda: st.run_metric_hits(gauss, gauss_mu, golden, st.Schedule.radii_power(0.5),
                                      30_000, 100, s[0], horizons=[300, 3_000, 30_000]),
           liminf_grows),
        Op("entropy-gauss-birkhoff-batch",
           lambda: st.entropy_birkhoff_batch(gauss, gauss_mu, 40_000, 20, s[1]),
           lambda est: entropy_close(est, GAUSS_H)),
        Op("metric-blaschke-sqrt",
           lambda: st.run_metric_hits(blaschke, leb, point, st.Schedule.radii_power(2.0),
                                      15_000, 10, s[2]),
           hit_series_band),
        Op("entropy-blaschke-birkhoff",
           lambda: st.entropy_birkhoff(blaschke, leb, 2_000, 8, s[3]),
           lambda est: entropy_close(est, h_blaschke)),
        Op("entropy-blaschke-quadrature",
           lambda: st.entropy_closed_form(blaschke, leb), quadrature),
    ]


# ---------------------------------------------------------------------------
# exact-dimension: Fraction-heavy dimension, refinement and enumeration

def _stage_summary(stage, frostman: bool):
    out = {"nu_sums": stage.nu_level_sums(),
           "nesting": stage.nesting_violations(),
           "blocks": [len(l.fine_suffix) for l in stage.levels]}
    if frostman:
        out["gamma"] = st.frostman_exponent(stage)["gamma"]
    return out


def _stage_ok(summary, blocks=None) -> Optional[str]:
    if any(x != 1 for x in summary["nu_sums"]):
        return f"nu level sums {summary['nu_sums']} not exactly 1"
    if summary["nesting"]:
        return f"{summary['nesting']} nesting violations"
    if blocks is not None and summary["blocks"][-1] != blocks:
        return f"{summary['blocks'][-1]} deepest-level blocks, expected {blocks}"
    if "gamma" in summary:
        g = summary["gamma"]
        if not (g >= 0.43 and abs(g - 0.5) <= 0.07):
            return f"Frostman exponent {g:.4f} not in [0.43, 0.57]"
    return None


def _exact_dimension(rng, tmp):
    d2, gauss = st.DAryShift(2), st.GaussMap()
    chain = st.MarkovLinear(M_CHAIN, P_CHAIN)
    rate2 = st.Schedule.radii_exp(LOG2)
    third = F(1, 3)
    radii_point = [F(1, k) for k in range(2, 2_002)]
    radii_gauss = [F(1, k) for k in range(2, 1_002)]
    radii_word = [F(1, k) for k in range(2, 502)]
    golden_word = st.WordTarget(gauss, (1,))
    alt_word = st.WordTarget(d2, (0, 1))
    sample = lambda radii: sorted(rng.sample(range(len(radii)), 12))
    s_point, s_gauss, s_word = sample(radii_point), sample(radii_gauss), sample(radii_word)
    cf_words = []
    for _ in range(100):
        n = rng.randint(1, 15)
        cf_words.append(tuple(rng.randint(1, 40) for _ in range(n + 1)))
    uniform = st.MarkovStationaryMeasure.bernoulli([F(1, 2), F(1, 2)])
    skew = st.MarkovStationaryMeasure.bernoulli([F(1, 3), F(2, 3)])
    dyadic = st.IntervalSplitGrid(F(1, 2))
    dyadic_balls = [(F(1, 3), F(3, 7) * F(1, 2) ** k) for k in range(1, 25)]
    rect = st.ProductSplitGrid(F(7, 10), F(6, 10))
    rect_balls = st.rectangle_counterexample_balls(F(7, 10), F(6, 10), 40)

    def in_dary_ball(t, r):
        lo, hi = dary_cylinder(2, third, t)
        return third - r <= lo and hi <= third + r

    def in_golden_ball(t, r):
        lo, hi = cf_cylinder((1,) * (t + 1))
        return not below_golden(lo + r) and below_golden(hi - r)

    def cf_bounds(cyls):
        for word, c in zip(cf_words, cyls):
            lower = upper = F(1)
            for d in word:
                lower /= F(d + 1) ** 2
                upper /= F(d) ** 2
            if (c.left, c.right) != cf_cylinder(word):
                return f"cylinder {word} endpoints differ from the convergents"
            if not lower <= c.length <= upper:
                return f"cylinder {word} length outside the CF digit bounds"
        return None

    def smb(b1, b2, eps):
        return lambda: st.smb_regular_cylinders(skew, 14, eps, b1, b2)[1]

    def smb_ok(b1, b2):
        need = skew.p[b1] * skew.p[b2] / 2
        return lambda total: None if total >= need else \
            f"regular mass {float(total):.4g} below mu(P1) mu(P2) / 2 = {float(need):.4g}"

    def small_stages():
        return [_stage_summary(st.build_cantor_stage(chain, (0, 1), rate2, 2, (6, 8)), False),
                _stage_summary(st.build_cantor_stage(
                    d2, (0, 1), st.Schedule.depth_const(0), 2, (4, 5)), False)]

    def first_bad(results):
        return next((bad for bad in results if bad), None)

    def correlations():
        exact_bad, worst = 0, 0.0
        for m in range(1, 7):
            Q = tuple(k % 2 for k in range(m + 1))
            for A in ((0,), (0, 1), (1, 1, 0)):
                for ell in (m + 1, m + 2, m + 4):
                    if st.correlation_mass(uniform, A, Q, ell) != \
                            uniform.word_mass(A) * uniform.word_mass(Q):
                        exact_bad += 1
                    v = st.correlation_mass(skew, A, Q, ell)
                    worst = max(worst, float(v / (skew.word_mass(A) * skew.word_mass(Q))))
        return exact_bad, worst

    def corr_ok(res):
        bad, worst = res
        return None if bad == 0 and worst <= 5 else \
            f"{bad} inexact uniform products, skewed ratio {worst:.3f}"

    def rect_ok(recs):
        first = next((r.k for r in recs if r.ratio > 100), None)
        return None if first is not None and first <= 40 else \
            f"rectangle probe first exceeds 100 at k={first}"

    def dyadic_ok(recs):
        worst = max(r.ratio for r in recs)
        return None if worst <= 3 else f"dyadic probe ratio {worst:.3f} > 3"

    def enumerations():
        return (correlations(), st.grid_regularity_probe(dyadic, dyadic_balls),
                st.grid_regularity_probe(rect, rect_balls),
                [st.cylinder_from_word(gauss, w) for w in cf_words])

    def enumerations_ok(res):
        corr, dy, rc, cyls = res
        return first_bad([corr_ok(corr), dyadic_ok(dy), rect_ok(rc), cf_bounds(cyls)])

    # The SMB block pairs all cost the same, so the per-operation median and
    # tail fall among them rather than between unlike operations.  The wider
    # window holds every word of the narrower one, so the mass bound holds.
    return [
        Op("cantor-dary2-8-12-frostman",
           lambda: _stage_summary(st.build_cantor_stage(d2, (0, 1), rate2, 2, (8, 12)), True),
           lambda s: _stage_ok(s, 262_144)),
        Op("cantor-markov-6-8-and-depthconst-4-5", small_stages,
           lambda stages: first_bad(_stage_ok(s) for s in stages)),
        Op("refine-point-third",
           lambda: st.refine_schedule_to_depths(d2, third, radii_point),
           lambda d: minimal_depths(d, radii_point, in_dary_ball, s_point)),
        Op("refine-gauss-golden-word",
           lambda: st.refine_schedule_to_depths(gauss, golden_word, radii_gauss),
           lambda d: minimal_depths(d, radii_gauss, in_golden_ball, s_gauss)),
        Op("refine-word-01",
           lambda: st.refine_schedule_to_depths(d2, alt_word, radii_word),
           lambda d: minimal_depths(d, radii_word, in_dary_ball, s_word),
           expect="RuntimeError: containment test failed to resolve"),
        *[Op(f"smb-regular-bernoulli-14-eps{eps}-{b1}{b2}", smb(b1, b2, eps), smb_ok(b1, b2))
          for eps in (0.3, 0.35) for b1 in (0, 1) for b2 in (0, 1)],
        Op("correlations-gridprobes-cf-cylinders", enumerations, enumerations_ok),
    ]


# ---------------------------------------------------------------------------
# cli-batch: many small CLI invocations in one process

@dataclass
class CliOutcome:
    code: Optional[int]
    stdout: str
    stderr: str
    traceback: Optional[str]
    out_dir: Optional[str]


def call_cli(argv, out_dir=None) -> CliOutcome:
    """Run `shrinktargets.cli.main` in-process, capturing its output.

    A `SystemExit` (argparse) gives its exit code; any other exception is a
    traceback the user would have seen.
    """
    out, err = io.StringIO(), io.StringIO()
    tb = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception:
            code, tb = None, traceback.format_exc()
    return CliOutcome(code, out.getvalue(), err.getvalue(), tb, out_dir)


def cli_verdict(code: int, check, o: CliOutcome) -> Optional[str]:
    """No traceback, the expected exit code, then the output check."""
    if o.traceback is not None or "Traceback" in o.stderr:
        last = (o.traceback or o.stderr).strip().splitlines()[-1]
        return f"traceback {last}"
    if o.code != code:
        return f"exit {o.code}, expected {code}"
    return check(o) if check else None


def _results(o: CliOutcome) -> dict:
    with open(os.path.join(o.out_dir, "results.json")) as fh:
        return json.load(fh)


def _simulate_ok(o):
    res = _results(o)
    by_n = {}
    for rec in res["records"]:
        by_n.setdefault(rec["n"], ([], rec["normalizer"]))[0].append(rec["hits"])
    for n, (hits, norm) in sorted(by_n.items()):
        bad = ratio_band(hits, norm, f"n={n}: ")
        if bad:
            return bad
    return None


def _verdict_is(want):
    def check(o):
        got = _results(o)["verdicts"]["borel_cantelli"]
        return None if got == want else f"verdict {got}, theory says {want}"
    return check


def _entropy_near(exact, tol=None):
    def check(o):
        s = _results(o)["summary"]
        err = abs(s["value"] - exact)
        if tol is not None:
            return None if err <= tol else f"entropy {s['value']} vs {exact}"
        se = s.get("stderr")
        if se is None or not (err <= ENTROPY_Z * se and se < 0.1):
            return f"entropy {s['value']} vs {exact} (stderr {se})"
        return None
    return check


def _bounds_half(o):
    recs = _results(o)["records"]
    if len(recs) != 3:
        return f"{len(recs)} bound records, expected 3"
    for r in recs:
        v = r["grid_lower"] if r["grid_lower"] is not None else r["upper"]
        if abs(v - 0.5) > 1e-12:
            return f"{r['formula_tag']} gives {v}, expected 1/2"
    return None


def _cantor_ok(o):
    s = _results(o)["summary"]
    if not s["nu_level_sums_exact_one"] or s["nesting_violations"]:
        return "nu level sums not exactly 1 or nesting violated"
    if not os.path.getsize(os.path.join(o.out_dir, "stage.json")):
        return "empty stage.json"
    return None


def _rectangle_blows_up(o):
    first = _results(o)["summary"]["first_k_over_100"]
    return None if first is not None and first <= 40 else \
        f"rectangle probe first exceeds 100 at k={first}"


def _report_ok(records):
    def check(o):
        return None if _results(o)["records"] == records else "report changed the records"
    return check


def _cli_specs(rng):
    s = lambda: rng.randrange(2 ** 31)
    chain = {"kind": "markov", "M": [["3/4", "1/4"], ["1/2", "1/2"]], "p": ["2/3", "1/3"]}
    sqrt_r = {"kind": "radii_power", "alpha": 2.0}
    x0_d3 = rng.choice(["1/4", "1/5", "2/7"])
    x0_bl = rng.choice([0.3, 0.6, 0.85])
    gauss_word = rng.choice([[1], [2], [1, 2]])
    sim = lambda **kw: {"experiment": "simulate", "seed": s(), **kw}
    golden_target = {"word": [1]}
    alt = {"word": [0, 1]}
    d2 = {"kind": "dary", "D": 2}
    gauss = {"kind": "gauss"}
    report_records = [{"trial": t, "n": 100, "hits": 3 + t, "normalizer": 3.5,
                       "ratio": (3 + t) / 3.5} for t in range(4)]
    report_doc = {"config": {"experiment": "simulate"}, "records": report_records,
                  "summary": {"mean_ratio": 1.0}, "verdicts": {}, "provenance": {}}

    specs = [
        # (name, subcommand, config document, check, exit code, expected failure)
        ("simulate-dary2-log2", "simulate",
         sim(map=d2, x0=alt, schedule={"kind": "depth_log_floor", "base": 2},
             horizons=[1000, 5000], trials=8), _simulate_ok, 0, None),
        ("simulate-dary3-sqrt", "simulate",
         sim(map={"kind": "dary", "D": 3}, x0={"rational": x0_d3}, schedule=sqrt_r,
             horizons=[2000], trials=2), _simulate_ok, 0, None),
        ("simulate-markov-log4", "simulate",
         sim(map=chain, x0=alt, schedule={"kind": "depth_log_floor", "base": 4},
             horizons=[2000], trials=4), _simulate_ok, 0, None),
        ("simulate-markov-sqrt", "simulate",
         sim(map=chain, x0=alt, schedule=sqrt_r, horizons=[60], trials=1),
         _simulate_ok, 0, None),
        ("simulate-gauss-sqrt", "simulate",
         sim(map=gauss, x0={"word": gauss_word}, schedule=sqrt_r, horizons=[500, 2000],
             trials=4), _simulate_ok, 0, None),
        ("simulate-blaschke-sqrt", "simulate",
         sim(map={"kind": "blaschke", "zeros": [[0, 0], [0.5, 0]]},
             x0={"decimal": x0_bl}, schedule=sqrt_r, horizons=[1000], trials=2),
         _simulate_ok, 0, None),
        ("classify-gauss-a2", "classify",
         {"map": gauss, "x0": golden_target, "schedule": {"kind": "radii_power", "alpha": 2}},
         _verdict_is("FullMeasure"), 0, None),
        ("classify-dary2-log", "classify",
         {"map": d2, "x0": alt, "schedule": {"kind": "depth_log_floor"}},
         _verdict_is("FullMeasure"), 0, None),
        ("classify-gauss-a1/2", "classify",
         {"map": gauss, "x0": golden_target, "schedule": {"kind": "radii_power", "alpha": 0.5}},
         _verdict_is("MeasureZero"), 0, None),
        ("classify-dary2-n^2", "classify",
         {"map": d2, "x0": alt, "schedule": {"kind": "depth_power_floor", "kappa": 2.0}},
         _verdict_is("MeasureZero"), 0, None),
        ("classify-dary3-n^2", "classify",
         {"map": {"kind": "dary", "D": 3}, "x0": {"word": [0, 2]},
          "schedule": {"kind": "depth_power_floor", "kappa": 2.0}},
         _verdict_is("MeasureZero"), 0, None),
        ("classify-dary4-n^2", "classify",
         {"map": {"kind": "dary", "D": 4}, "x0": {"word": [1, 3]},
          "schedule": {"kind": "depth_power_floor", "kappa": 2.0}},
         _verdict_is("MeasureZero"), 0, None),
        ("classify-dary2-log2-borderline", "classify",
         {"map": d2, "x0": alt, "schedule": {"kind": "depth_log_floor", "base": 2}},
         _verdict_is("FullMeasure"), 0,
         "verdict Inconclusive, theory says FullMeasure"),
        ("entropy-gauss-closed", "entropy", {"map": gauss},
         _entropy_near(GAUSS_H, 1e-12), 0, None),
        ("entropy-gauss-birkhoff", "entropy",
         {"map": gauss, "params": {"method": "birkhoff", "n_iter": 500}, "trials": 16,
          "seed": s()}, _entropy_near(GAUSS_H), 0, None),
        ("entropy-markov-closed", "entropy", {"map": chain},
         _entropy_near(H_CHAIN, 1e-12), 0, None),
        ("entropy-blaschke-closed", "entropy",
         {"map": {"kind": "blaschke", "zeros": [[0, 0], [0.5, 0]]}},
         _entropy_near(math.log(1 + math.sqrt(0.75)), 1e-9), 0, None),
        ("bounds-uniform-shift", "bounds",
         {"params": {"evaluations": [
             {"formula": "radii_lower", "h": LOG2, "delta_bar": 1.0, "ell_bar": LOG2,
              "log_beta": LOG2},
             {"formula": "hoeffding", "p": [0.5, 0.5], "L_lower": LOG2},
             {"formula": "upper_finite", "D": 2, "h": LOG2, "L_lower": LOG2}]}},
         _bounds_half, 0, None),
        ("cantor-dary2-4-5", "cantor",
         {"map": d2, "x0": alt, "schedule": {"kind": "radii_exp", "kappa": LOG2},
          "params": {"levels": 2, "level_sizes": [4, 5]}}, _cantor_ok, 0, None),
        ("gridprobe-rectangle", "gridprobe",
         {"params": {"grid": {"kind": "rectangle", "a": "7/10", "b": "6/10"},
                     "balls": {"kind": "corner_discs", "kmax": 40}}},
         _rectangle_blows_up, 0, None),
        ("gridprobe-dyadic", "gridprobe",
         {"params": {"grid": {"kind": "interval", "split": "1/2"},
                     "balls": {"kind": "shrinking_intervals", "kmax": 24}}},
         lambda o: None if _results(o)["summary"]["max_C"] <= 3
         else "dyadic probe ratio > 3", 0, None),
        ("report-from-results", "report", report_doc, _report_ok(report_records), 0, None),
        # malformed configs: the right outcome is exit 2 with no traceback
        ("bad-map-without-D", "simulate",
         sim(map={"kind": "dary"}, x0=alt, schedule=sqrt_r, horizons=[100]),
         None, 2, "traceback KeyError"),
        ("bad-x0-out-of-domain", "simulate",
         sim(map=d2, x0={"rational": "3/2"}, schedule=sqrt_r, horizons=[100]),
         None, 2, "exit 0, expected 2"),
        ("bad-no-horizons", "simulate", sim(map=d2, x0=alt, schedule=sqrt_r),
         None, 2, None),
        ("bad-zero-trials", "simulate",
         sim(map=d2, x0=alt, schedule=sqrt_r, horizons=[100], trials=0), None, 2, None),
        ("bad-unknown-schedule", "classify",
         {"map": d2, "x0": alt, "schedule": {"kind": "radii_wobble"}}, None, 2, None),
        ("bad-unknown-experiment", "simulate", {"experiment": "levitate"}, None, 2, None),
        ("bad-subcommand-mismatch", "classify",
         sim(map=d2, x0=alt, schedule=sqrt_r, horizons=[100]), None, 2, None),
        ("bad-json", "bounds", "{not json", None, 2, None),
    ]
    # small simulate calls, where fixed per-call costs dominate: each map
    # kind equally often; the seed draws only targets and trial seeds, which
    # leave the cost of a call unchanged
    small = {
        "dary": lambda: sim(map=d2, x0={"word": rng.choice([[0, 1], [1, 0], [0, 0, 1]])},
                            schedule=sqrt_r, horizons=[2000], trials=2),
        "markov": lambda: sim(map=chain, x0={"word": rng.choice([[0, 1], [1, 0], [0, 1, 1]])},
                              schedule={"kind": "depth_log_floor", "base": 4},
                              horizons=[300], trials=2),
        "gauss": lambda: sim(map=gauss, x0={"word": rng.choice([[1], [2], [1, 3]])},
                             schedule=sqrt_r, horizons=[300], trials=2),
        "blaschke": lambda: sim(map={"kind": "blaschke", "zeros": [[0, 0], [0.5, 0]]},
                                x0={"decimal": rng.choice([0.2, 0.45, 0.7])},
                                schedule=sqrt_r, horizons=[200], trials=2),
    }
    for i in range(24):
        kind = sorted(small)[i % 4]
        specs.append((f"small-{kind}-{i}", "simulate", small[kind](), _simulate_ok, 0, None))

    return specs


def _cli_batch(rng, tmp):
    cfg_dir = os.path.join(tmp, "configs")
    os.makedirs(cfg_dir, exist_ok=True)
    ops = []
    for name, sub, doc, check, code, expect in _cli_specs(rng):
        slug = name.replace("/", "_")
        path = os.path.join(cfg_dir, slug + ".json")
        with open(path, "w") as fh:
            fh.write(doc if isinstance(doc, str) else json.dumps(doc))
        argv = [sub, "--config", path]
        out = os.path.join(tmp, "out", slug)
        if code == 0:
            argv += ["--out", out]
        ops.append(Op(name, lambda argv=argv, out=out: call_cli(argv, out),
                      lambda o, code=code, check=check: cli_verdict(code, check, o),
                      expect=expect))
    rng.shuffle(ops)
    return ops


_BUILDERS = {
    "linear-stream": _linear_stream,
    "float-orbit": _float_orbit,
    "exact-dimension": _exact_dimension,
    "cli-batch": _cli_batch,
}


def build(workload: str, seed: int, tmp: str) -> list:
    """Set-up: every input of `workload`, derived from `seed` alone."""
    return _BUILDERS[workload](random.Random(f"perfbench:{workload}:{seed}"), tmp)
