"""Write BENCH_<pr>.json: the perfbench metrics of every declared workload,
the wall times of the Tier-1 suite and of each acceptance criterion, and
the line count of each source module.

Run from the root of a checkout:

    python3 tools/bench_json.py --pr N

For each workload in BENCHMARK.json it runs perfbench/run.py for the file's
run_seconds at seed SEED, once with --trace 0 (end-to-end metrics) and
TRACED_RUNS times with --trace 1 (per-layer metrics).  Traced runs are not
speed-calibrated, so one of them can read 1.3-1.5x slow with no code change:
each per-layer metric is recorded as the median of the traced runs, with
their values beside it (``runs``).  It also records the failed and attempted
operation counts of each run and the machine that run.py reports.  The runs
are sequential, one worker process at a time, as run.py starts them.  Then it runs the Tier-1 command once with pytest's
--durations, and records its wall time, its outcome counts, the time of
each test in tests/test_acceptance.py and, as slowest_s, the ten slowest
test ids with their times (setup, call and teardown summed).  It times
the digit-stream layer, one draw of measures.digit_draws on each chain of
STREAM_CHAINS (the test suite's three, the sticky chain and a 16-state
chain), on each D-ary shift of DARY_STREAMS and on the Gauss map (its
per-digit loop over one float orbit), at STREAM_DIGITS digits each, best of 3 runs, with the bytes that hold each digit
(and each chain's cut count and guide table size G and R), and the normalizer layer,
recurrence.cylinder_mass_by_depth on the depths floor(n^2) of n = 1..WALK_N
for each target of WALKS, walked to the underflow of its masses, best of 3
runs, the cylinder-construction layer, the microseconds per digit of
coding.PrefixWalk.read and of PrefixWalk.matrix through each depth of
PREFIX_DEPTHS on each map of PREFIX_MAPS, best of 5 runs, and the float-orbit
layer, the orbit-steps/s of measures.float_orbit_blocks for each map of
FLOAT_STEPS, best of 3 runs;
the Gauss runs at widths (trials stepped together) 1, 2, 4 and 10 give the
width at which one stepped row costs less per trial than one digit of the
Gauss digit stream.  Then metric_windows: the seconds and orbit-steps/s of
recurrence.run_metric_hits for each run of METRIC_WINDOWS, METRIC_N indices,
best of 3 runs (the D-ary runs at n^-1/2 take the cylinder-code filter, the
n^-2, every-n and chain runs the full window scan).  Then the verdict sweep: for each log-floor target of
SWEEP_TARGETS, which no exact rule covers, the verdicts of
recurrence.borel_cantelli_classify at the 50 bases of SWEEP_BASES, a
``monotone`` flag (no verdict ranks below the one at a smaller base,
MeasureZero < Inconclusive < FullMeasure) and the best-of-3 seconds of the
sweep.  Then radii_verdicts: for each target of RADII_TARGETS, the verdict
and the heuristic flag of recurrence.borel_cantelli_classify under
radii_power(alpha) at each alpha of RADII_ALPHAS.  Every map is measured
with its own measure (measures.own_measure).
Then chain_checks: the best-of-3 seconds of the exact chain checks on the
D = 18 Wielandt chain WIELANDT (i -> i + 1, and 17 -> {0, 1}; primitivity
exponent (D - 1)^2 + 1 = 290), which are harness.parse_config of a classify
config, MarkovLinear(M, p) and stationary_vector(M), those of a
depth_log_floor(2) classify of the word (0, 1) on DAryShift(CHAIN_DARY), and
those of a one-level depth_const(3) Cantor stage build on DAryShift(D), for
each D of STAGE_DARY, map construction included.
Then sharpness: for each stage of SHARPNESS, the paper's bound beside the
Frostman exponent gamma of the stage (dimension.frostman_exponent at its
default c_cap), gamma - bound, the seconds of the build and of the score,
the Frostman block count and the class count of each level, or the
exception that the build raised.  The bounds are hand values: h/(h + L) at
t_n = n and h/(h + ell) at radii_exp(log 2), from the map's entropy h, the
target's mass decay L per digit and the radii rate ell.
Then memory: the tracemalloc peak and the seconds, traced, of each run of
MEMORY_RUNS in this process, the guard runs of
tests/test_recurrence.py::TestBlockSizedRuns (linear hit runs at N = 10^6),
the D = 2 (8,15000) Cantor stage build of tests/test_dimension.py and the
Birkhoff entropy of the chain at MEMORY_N steps.
Then config_exits: the exit code of cli.main on each malformed config of
MALFORMED, each of which breaks one hypothesis on an input (a map, a bound,
a point x0, a gridprobe grid or ball) and should exit 2, never 3; and
extreme_exits, the same on each config of EXTREME, at the ends of the float
range, whose bounds should exit 0 and whose gridprobes, with balls below
the float range, 3, and two large Cantor stages, which should exit 0 and
write their stage.json: the chain at (6,60), eps 0.05, with 2.5e16 level-2
blocks, and D = 2 at (8,15000), whose level-2 block count has more decimal
digits than Python's default int-to-str limit of 4,300; either records
"traceback" where cli.main raised.
extreme_values holds the grid_lower, hausdorff_lower and upper that each
bounds config of EXTREME wrote to its results.json.
Then api_errors: for each word or digit-function target of API_WORDS, "ok"
or the class of the exception that each Python-API entry point of
api_errors raised on it (a digit function only where a target is taken).
Last, it counts the lines of each src/shrinktargets/*.py module and their
total (src_lines), so that the size of the code is read from the same file
as its times.  The file also names the commit it measured (git rev-parse
HEAD) and whether the tree had uncommitted changes (git status --porcelain).
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

MACHINE = "# machine "
SEED = 1
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
ACCEPTANCE = "tests/test_acceptance.py::"
SLOWEST = 10        # the slowest tests kept, by their summed seconds
SRC = "src/shrinktargets/*.py"
STREAM_DIGITS = 4 * 10 ** 6
CHAINS = {          # the chains of tests/conftest.py, row-major
    "chain": [["3/4", "1/4"], ["1/2", "1/2"]],
    "golden_mean": [["1/2", "1/2"], ["1", "0"]],
    "zero_diagonal": [["0", "1/2", "1/2"], ["1/2", "0", "1/2"], ["1/2", "1/2", "0"]],
}
# a 16-state chain's weights from i to j, ((i + 1)(j + 1) - 1) % 4: zero where (i + 1)(j + 1)
# = 1 mod 4; every state goes to state 3, which goes to every state, so the chain is primitive
WEIGHTS16 = [[((i + 1) * (j + 1) - 1) % 4 for j in range(16)] for i in range(16)]
STREAM_CHAINS = {   # the chains whose digit_draws is timed
    **CHAINS,
    # the chain scan's slowest to coalesce: rows are constant only for u < 1/100 or u >= 99/100
    "sticky": [["99/100", "1/100"], ["1/100", "99/100"]],
    "states16": [[f"{w}/{sum(row)}" for w in row] for row in WEIGHTS16],     # a large D
}
DARY_STREAMS = (2, 3)   # D of the D-ary shifts whose digit_draws is timed
GAUSS_WIDTHS = (1, 2, 4, 10)    # trials of the narrow Gauss float-orbit runs
WALK_N = 10 ** 4
WALKS = {           # name -> (map spec, target word)
    "dary2_01": ({"kind": "dary", "D": 2}, (0, 1)),
    "chain_01": ({"kind": "markov", "M": CHAINS["chain"], "p": ["2/3", "1/3"]}, (0, 1)),
    "gauss_1": ({"kind": "gauss"}, (1,)),
    "sticky_0": ({"kind": "markov", "M": [["99/100", "1/100"], ["1/100", "99/100"]],
                  "p": ["1/2", "1/2"]}, (0,)),
}
PREFIX_MAPS = {     # name -> map spec of the prefix_walk timings
    "dary2": {"kind": "dary", "D": 2}, "dary3": {"kind": "dary", "D": 3},
    "chain": {"kind": "markov", "M": CHAINS["chain"], "p": ["2/3", "1/3"]},
    "gauss": {"kind": "gauss"},
}
PREFIX_DEPTHS = (80, 2000)      # the depths through which a walk reads and composes
PREFIX_DIGITS = 40000           # digits read per timed run, over fresh walks
FLOAT_STEPS = {     # name -> (map spec, trials, steps)
    "blaschke_0_half": ({"kind": "blaschke", "zeros": [0, 0.5]}, 10, 10 ** 5),
    # the width of the Blaschke simulate calls of the cli-batch workload
    "blaschke_0_half_2": ({"kind": "blaschke", "zeros": [0, 0.5]}, 2, 10 ** 5),
    # k = (zeros at 0) - (nonzero zeros) = 1: the step normalizes z to |z| = 1
    "blaschke_0_0_03": ({"kind": "blaschke", "zeros": [0, 0, 0.3]}, 10, 10 ** 5),
    "gauss": ({"kind": "gauss"}, 100, 10 ** 5),
    # narrow Gauss runs, to set against the per-digit loop of digit_draws
    **{f"gauss_{w}": ({"kind": "gauss"}, w, 2 * 10 ** 5) for w in GAUSS_WIDTHS},
}
SWEEP_BASES = [1.05 * (12 / 1.05) ** (k / 49) for k in range(50)]   # geometric, 1.05 to 12
SWEEP_TARGETS = {   # name -> (map spec, point x0 or digit function k -> i_k)
    "blaschke_0_half_x0.3": ({"kind": "blaschke", "zeros": [0, 0.5]}, 0.3),
    "blaschke_0_half_x0.7": ({"kind": "blaschke", "zeros": [0, 0.5]}, 0.7),
    "chain_x0.3": ({"kind": "markov", "M": CHAINS["chain"], "p": ["2/3", "1/3"]}, 0.3),
    "gauss_1+k^2%4": ({"kind": "gauss"}, lambda k: 1 + k * k % 4),
}
RADII_ALPHAS = (0.5, 1.0, 2.0)
RADII_TARGETS = {   # name -> (map spec, target word or point x0)
    "dary2_01": ({"kind": "dary", "D": 2}, (0, 1)),
    "chain_01": ({"kind": "markov", "M": CHAINS["chain"], "p": ["2/3", "1/3"]}, (0, 1)),
    "gauss_1": ({"kind": "gauss"}, (1,)),
    "gauss_x0_3/7": ({"kind": "gauss"}, Fraction(3, 7)),
    "blaschke_0_half_x0.3": ({"kind": "blaschke", "zeros": [0, 0.5]}, 0.3),
}
API_WORDS = {       # name -> (map spec, target word or digit function k -> i_k)
    # a digit outside the chain, a forbidden 1->1
    "chain_05": ({"kind": "markov", "M": CHAINS["chain"], "p": ["2/3", "1/3"]}, (0, 5)),
    "golden_mean_11": ({"kind": "markov", "M": CHAINS["golden_mean"], "p": ["2/3", "1/3"]},
                       (1, 1)),
    # digit functions outside the alphabet, read by the target's walk alone
    "chain_digit_5": ({"kind": "markov", "M": CHAINS["chain"], "p": ["2/3", "1/3"]},
                      lambda k: 5),
    "chain_digit_minus_1": ({"kind": "markov", "M": CHAINS["chain"], "p": ["2/3", "1/3"]},
                            lambda k: -1),
    "dary2_digit_2": ({"kind": "dary", "D": 2}, lambda k: 2),
    "gauss_digit_0": ({"kind": "gauss"}, lambda k: 0),
    # a Gauss 0 after the first digit: outside the alphabet, not a forbidden step
    "gauss_late_0": ({"kind": "gauss"}, lambda k: 1 if k < 3 else 0),
}
WIELANDT = [[str(int(j == i + 1)) for j in range(18)] for i in range(17)] + \
    [["1/2", "1/2"] + ["0"] * 16]
CHAIN_DARY = 4096       # D of the D-ary shift of the chain_checks classify
STAGE_DARY = (64, 256)  # D of the D-ary shifts of the chain_checks stage builds
T_N = ("depth_power_floor", {"kappa": 1})          # t_n = n
RADII_LOG2 = ("radii_exp", {"kappa": math.log(2)})  # r_n = 2^-n
SHARPNESS = {       # name -> (map spec, target word, schedule, level sizes, epsilon, bound)
    "dary2_tn_8_64_4096": ({"kind": "dary", "D": 2}, (0, 1), T_N, (8, 64, 4096), 0.3, 0.5),
    "dary2_tn_8_32_512_8192": ({"kind": "dary", "D": 2}, (0, 1), T_N, (8, 32, 512, 8192), 0.3,
                               0.5),
    "dary2_radii_8_12": ({"kind": "dary", "D": 2}, (0, 1), RADII_LOG2, (8, 12), 0.3, 0.5),
    # a refinement radius underflows to 0 at level 3
    "dary2_radii_8_64_4096": ({"kind": "dary", "D": 2}, (0, 1), RADII_LOG2, (8, 64, 4096), 0.3,
                              0.5),
    **{f"chain_tn_6_{n}_eps0.05": ({"kind": "markov", "M": CHAINS["chain"], "p": ["2/3", "1/3"]},
                                   (0, 1), T_N, (6, n), 0.05, 0.3682) for n in (30, 60, 120)},
}
TRACED_RUNS = 3         # --trace 1 runs per workload; a per-layer metric is their median
MEMORY_N = 10 ** 6      # orbit indices of the memory block's hit runs
RANK = {"MeasureZero": 0, "Inconclusive": 1, "FullMeasure": 2}
SQRT = {"kind": "radii_power", "alpha": 2}
METRIC_N = 10 ** 6      # orbit indices of each metric_windows run
METRIC_WINDOWS = {  # name -> (map spec, target word or point x0, radii kind and params, trials,
    # whether every n is a horizon); the D-ary runs at n^-1/2 take the cylinder-code filter past
    # the first block, the others the full scan of every block
    "dary2_01_sqrt": ({"kind": "dary", "D": 2}, (0, 1), ("radii_power", {"alpha": 2}), 2, False),
    "dary3_quarter_sqrt": ({"kind": "dary", "D": 3}, Fraction(1, 4),
                           ("radii_power", {"alpha": 2}), 2, False),
    "chain_01_sqrt": ({"kind": "markov", "M": CHAINS["chain"], "p": ["2/3", "1/3"]}, (0, 1),
                      ("radii_power", {"alpha": 2}), 2, False),
    "dary2_01_n^-2": ({"kind": "dary", "D": 2}, (0, 1), ("radii_power", {"alpha": 0.5}), 2, False),
    "dary2_01_sqrt_every_n": ({"kind": "dary", "D": 2}, (0, 1), ("radii_power", {"alpha": 2}),
                              1, True),
}
RADII_LOWER = {"formula": "radii_lower", "h": 0.7, "delta_bar": 1.0, "ell_bar": 0.5,
               "log_beta": 0.7}


def _on(kind, x0, schedule, experiment="classify", **params):
    return {"experiment": experiment, "map": {"kind": kind, **params}, "x0": x0,
            "schedule": schedule, "horizons": [100]}


def _bound(**evaluation):
    return {"experiment": "bounds", "params": {"evaluations": [evaluation]}}


def _probe(grid, balls):
    return {"experiment": "gridprobe", "params": {"grid": grid, "balls": balls}}


MALFORMED = {       # name -> config document
    "blaschke_zeros_without_0": _on("blaschke", {"decimal": 0.3}, SQRT, zeros=[[0.5, 0], [0.2, 0]]),
    "blaschke_one_zero": _on("blaschke", {"decimal": 0.3}, SQRT, zeros=[[0, 0]]),
    "chain_not_primitive": {"experiment": "entropy", "map": {
        "kind": "markov", "M": [["0", "1"], ["1", "0"]], "p": ["1/2", "1/2"]}},
    "chain_one_state": {"experiment": "entropy", "map": {"kind": "markov", "M": [["1"]],
                                                         "p": ["1"]}},
    "bound_h_negative": _bound(**{**RADII_LOWER, "h": -1}),
    "bound_p_sum": _bound(formula="hoeffding", p=[0.5, 0.6], L_lower=0.7),
    "bound_upper_without_rate": _bound(formula="upper_finite", D=2, h=0.7),
    "bound_a_n_short": _bound(formula="grid_transfer", a_n=[0.25, 0.0625], b_n=[0.5, 0.25, 0.125],
                              grid_dim=0.5),
    "bound_delta_2": _bound(formula="cantor_lambda", a=2, b=1, c=1, delta=2, N_js=[2, 4, 8]),
    "bound_N_js_decreasing": _bound(formula="cantor_lambda", a=2, b=1, c=1, delta=0.5,
                                    N_js=[8, 4, 2]),
    "x0_1_dary_depth": _on("dary", {"rational": "1"}, {"kind": "depth_const", "t": 3}, D=2),
    "x0_1_dary_radii": _on("dary", {"rational": "1"}, {"kind": "radii_const", "r": 0.1}, D=2),
    "x0_1_dary_radii_simulate": _on("dary", {"rational": "1"}, {"kind": "radii_const", "r": 0.1},
                                    "simulate", D=2),
    "x0_1_markov_depth": _on("markov", {"rational": "1"}, {"kind": "depth_const", "t": 3},
                             M=CHAINS["chain"], p=["2/3", "1/3"]),
    "x0_0_gauss_radii": _on("gauss", {"decimal": 0.0}, SQRT),
    "gridprobe_3_values_on_interval": _probe({"kind": "interval"},
                                             {"kind": "table", "balls": [["1/2", "1/2", "1/4"]]}),
    "gridprobe_2_values_on_square": _probe({"kind": "square"},
                                           {"kind": "table", "balls": [["1/2", "1/4"]]}),
    "gridprobe_radius_0": _probe({"kind": "interval"}, {"kind": "table", "balls": [["1/2", "0"]]}),
    "gridprobe_split_0": _probe({"kind": "interval", "split": "0"},
                                {"kind": "shrinking_intervals"}),
    "gridprobe_rectangle_a_3_2": _probe({"kind": "rectangle", "a": "3/2", "b": "6/10"},
                                        {"kind": "corner_discs"}),
}
EXTREME = {         # name -> config document at the ends of the float or int range
    "bound_radii_h_1e-300": _bound(formula="radii_lower", h=1e-300, delta_bar=1, ell_bar=1,
                                   log_beta=1),
    "bound_radii_ell_1e200": _bound(formula="radii_lower", h=1, delta_bar=1, ell_bar=1e200,
                                    log_beta=1),
    "bound_hoeffding_L_1e300": _bound(formula="hoeffding", p=[0.5, 0.5], L_lower=1e300),
    "bound_transfer_a_1e-310": _bound(formula="grid_transfer", a_n=[0.25, 0.0625, 1e-310],
                                      b_n=[0.5, 0.25, 0.125], grid_dim=1.0),
    "bound_lambda_1.7e308": _bound(formula="cantor_lambda", a=1.7e308, b=1.7e308, c=1.7e308,
                                   delta=0.5, N_js=[1]),
    "bound_code_1.7e308": _bound(formula="code_lower", h=1.7e308, L_bar=1.7e308),
    "bound_radii_h_ell_1.7e308": _bound(formula="radii_lower", h=1.7e308, delta_bar=1,
                                        ell_bar=1.7e308, tau_bar=0, log_beta=1),
    "bound_upper_h_L_1.7e308": _bound(formula="upper_finite", D=2, h=1.7e308, L_lower=1.7e308),
    "bound_upper_delta_ell_1e200": _bound(formula="upper_finite", D=2, h=1, delta_lower=1e200,
                                          ell_lower=1e200),
    "gridprobe_discs_underflow": _probe({"kind": "rectangle", "a": "7/10", "b": "6/10"},
                                        {"kind": "corner_discs", "kmax": 500}),
    "gridprobe_intervals_underflow": _probe({"kind": "interval", "split": "1/2"},
                                            {"kind": "shrinking_intervals", "kmax": 1100}),
    "cantor_chain_6_60_eps_0.05": {
        "experiment": "cantor", "x0": {"word": [0, 1]},
        "map": {"kind": "markov", "M": CHAINS["chain"], "p": ["2/3", "1/3"]},
        "schedule": {"kind": "depth_power_floor", "kappa": 1},
        "params": {"levels": 2, "level_sizes": [6, 60], "epsilon": 0.05}},
    "cantor_dary2_8_15000": {
        "experiment": "cantor", "map": {"kind": "dary", "D": 2}, "x0": {"word": [0, 1]},
        "schedule": {"kind": "depth_const", "t": 3},
        "params": {"levels": 2, "level_sizes": [8, 15000]}},
}


def run_bench(workload: str, seconds: float, trace: int):
    """(result, machine) of one perfbench run: its last stdout line is the
    JSON result, and the line starting with MACHINE describes the host."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    machine = next(json.loads(ln[len(MACHINE):]) for ln in lines if ln.startswith(MACHINE))
    return json.loads(lines[-1]), machine


def _ops(res) -> dict:
    return {k: res[k] for k in ("correct", "attempted", "failed")}


def run_tests() -> dict:
    """Wall time and outcome of the Tier-1 command, the seconds of each
    acceptance test and those of the SLOWEST slowest tests, as pytest's
    --durations reports them (setup, call and teardown summed)."""
    cmd = TIER1 + ["--durations=0", "--durations-min=0"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in ("src", os.environ.get("PYTHONPATH")) if p)}
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    seconds = {}            # test id -> its setup, call and teardown seconds summed
    for ln in lines:        # "1.23s call     tests/test_acceptance.py::test_criterion_1_..."
        m = re.match(r"([\d.]+)s (?:setup|call|teardown) +(\S+)", ln)
        if m:
            seconds[m[2]] = seconds.get(m[2], 0.0) + float(m[1])
    acceptance = {k[len(ACCEPTANCE):]: v for k, v in seconds.items() if k.startswith(ACCEPTANCE)}
    slowest = sorted(seconds.items(), key=lambda kv: -kv[1])[:SLOWEST]
    outcome = {k: int(n) for n, k in re.findall(r"(\d+) (\w+)", lines[-1] if lines else "")}
    return {"command": "PYTHONPATH=src " + " ".join(["python"] + TIER1[1:]),
            "wall_s": wall, "exit_code": proc.returncode, "outcome": outcome,
            "acceptance_s": dict(sorted(acceptance.items())), "slowest_s": dict(slowest)}


def digit_streams() -> dict:
    """Best-of-3 seconds, digits/s and bytes per digit (the stream's itemsize)
    of one draw of digit_draws(m, rng)(STREAM_DIGITS) on each chain of
    STREAM_CHAINS, on
    each D-ary shift of DARY_STREAMS (named dary<D>) and on the Gauss map,
    seed 0.  A chain's row also holds its cut count and its guide table's cell
    count G (guide_cells) and most cuts inside one cell R (guide_most_in_cell)."""
    sys.path.insert(0, "src")
    import numpy as np
    from shrinktargets import DAryShift, GaussMap, MarkovLinear, stationary_vector
    from shrinktargets.measures import digit_draws

    maps = {f"dary{D}": DAryShift(D) for D in DARY_STREAMS}
    for name, rows in STREAM_CHAINS.items():
        M = [[Fraction(x) for x in row] for row in rows]
        maps[name] = MarkovLinear(M, stationary_vector(M))
    maps["gauss"] = GaussMap()
    out = {}
    for name, m in maps.items():
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            stream = digit_draws(m, np.random.default_rng(0))(STREAM_DIGITS)
            times.append(time.perf_counter() - t0)
        out[name] = {"digits": STREAM_DIGITS, "best_s": min(times),
                     "digits_per_s": STREAM_DIGITS / min(times),
                     "bytes_per_digit": stream.itemsize}
        if isinstance(m, MarkovLinear):     # the cut table has a row past each cut
            _, (G, _, slots), table = m.float_chain
            out[name].update(cuts=len(table) - 1, guide_cells=G, guide_most_in_cell=len(slots))
    return out


def normalizer_walks() -> dict:
    """Best-of-3 seconds of cylinder_mass_by_depth on floor(n^2), n <= WALK_N,
    for each target of WALKS under its map's own measure, and the depth
    of its first mass that rounds to 0.0."""
    sys.path.insert(0, "src")
    from shrinktargets import Schedule, Target, make_map, own_measure
    from shrinktargets.recurrence import cylinder_mass_by_depth

    depths = Schedule.depth_power_floor(2).depths_array(WALK_N)
    out = {}
    for name, (spec, word) in WALKS.items():
        m = make_map(spec)
        mu = own_measure(m)
        times = []
        for _ in range(3):
            target = Target(m, word)        # a fresh target: no walk cached from a run before
            t0 = time.perf_counter()
            masses = cylinder_mass_by_depth(m, mu, target, depths)
            times.append(time.perf_counter() - t0)
        zero = int(depths[masses == 0][0]) if not masses.all() else None
        out[name] = {"n": WALK_N, "best_s": min(times), "first_zero_depth": zero}
    return out


def prefix_walk() -> dict:
    """Best-of-5 microseconds per digit of PrefixWalk.read(t) (per digit read)
    and of PrefixWalk.matrix(t) (per branch composed, after the read) at each
    depth t of PREFIX_DEPTHS, on fresh unseeded walks, so that no depth-0
    cylinder is built, over the first max(PREFIX_DEPTHS) + 1 digits that
    digit_draws gives each map of PREFIX_MAPS at seed 0."""
    sys.path.insert(0, "src")
    import numpy as np
    from shrinktargets import make_map
    from shrinktargets.coding import PrefixWalk
    from shrinktargets.measures import digit_draws

    out = {}
    for name, spec in PREFIX_MAPS.items():
        m = make_map(spec)
        word = digit_draws(m, np.random.default_rng(0))(max(PREFIX_DEPTHS) + 1).tolist()
        out[name] = {}
        for t in PREFIX_DEPTHS:
            reps, read, matrix = max(1, PREFIX_DIGITS // (t + 1)), [], []
            for _ in range(5):
                walks = [PrefixWalk(m, word, seeded=False) for _ in range(reps)]
                t0 = time.perf_counter()
                for w in walks:
                    w.read(t)
                t1 = time.perf_counter()
                for w in walks:
                    w.matrix(t)
                read.append((t1 - t0) / (reps * (t + 1)))
                matrix.append((time.perf_counter() - t1) / (reps * t))
            out[name][str(t)] = {"read_us": min(read) * 1e6, "matrix_us": min(matrix) * 1e6}
    return out


def float_steps() -> dict:
    """Best-of-3 seconds and orbit-steps/s (trials x steps) of every block
    of float_orbit_blocks for each map of FLOAT_STEPS under its own measure,
    trial seeds 0, 1, ..."""
    sys.path.insert(0, "src")
    from shrinktargets import make_map, own_measure
    from shrinktargets.measures import float_orbit_blocks

    out = {}
    for name, (spec, trials, steps) in FLOAT_STEPS.items():
        m = make_map(spec)
        mu = own_measure(m)
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in float_orbit_blocks(m, mu, range(trials), steps):
                pass
            times.append(time.perf_counter() - t0)
        out[name] = {"trials": trials, "steps": steps, "best_s": min(times),
                     "steps_per_s": trials * steps / min(times)}
    return out


def metric_windows() -> dict:
    """Best-of-3 seconds and orbit-steps/s (trials x METRIC_N) of
    run_metric_hits for each run of METRIC_WINDOWS under its map's own
    measure, seed 0: the window-position and hit-decision layers of the
    linear metric engine, digit draws and the normalizer included."""
    sys.path.insert(0, "src")
    from shrinktargets import Schedule, make_map, own_measure, run_metric_hits

    out = {}
    for name, (spec, x0, (kind, params), trials, every_n) in METRIC_WINDOWS.items():
        m = make_map(spec)
        mu, sched = own_measure(m), Schedule(kind, params)
        horizons = range(1, METRIC_N + 1) if every_n else None
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            run_metric_hits(m, mu, x0, sched, METRIC_N, trials, 0, horizons=horizons)
            times.append(time.perf_counter() - t0)
        out[name] = {"trials": trials, "steps": METRIC_N, "every_n": every_n,
                     "best_s": min(times), "steps_per_s": trials * METRIC_N / min(times)}
    return out


def verdict_sweep() -> dict:
    """Per target of SWEEP_TARGETS under its map's own measure, the
    depth_log_floor verdicts at SWEEP_BASES, whether their rank never falls
    as the base grows, and the best-of-3 seconds of the sweep, each run on
    a fresh target."""
    sys.path.insert(0, "src")
    from shrinktargets import (Schedule, Target, borel_cantelli_classify, make_map,
                               own_measure)

    out = {}
    for name, (spec, x0) in SWEEP_TARGETS.items():
        m = make_map(spec)
        mu = own_measure(m)
        times = []
        for _ in range(3):
            target = Target(m, digits=x0) if callable(x0) else Target(m, value=x0)
            t0 = time.perf_counter()
            verdicts = [borel_cantelli_classify(m, mu, target, Schedule.depth_log_floor(b)).verdict
                        for b in SWEEP_BASES]
            times.append(time.perf_counter() - t0)
        ranks = [RANK[v] for v in verdicts]
        out[name] = {"bases": SWEEP_BASES, "verdicts": verdicts,
                     "monotone": ranks == sorted(ranks), "best_s": min(times)}
    return out


def radii_verdicts() -> dict:
    """Per target of RADII_TARGETS under its map's own measure, the verdict
    and heuristic flag of radii_power(alpha), by alpha of RADII_ALPHAS."""
    sys.path.insert(0, "src")
    from shrinktargets import Schedule, borel_cantelli_classify, make_map, own_measure

    out = {}
    for name, (spec, x0) in RADII_TARGETS.items():
        m = make_map(spec)
        out[name] = {}
        for alpha in RADII_ALPHAS:
            v = borel_cantelli_classify(m, own_measure(m), x0, Schedule.radii_power(alpha))
            out[name][str(alpha)] = {"verdict": v.verdict, "heuristic": v.heuristic}
    return out


def chain_checks() -> dict:
    """Best-of-3 seconds of parse_config, MarkovLinear and stationary_vector
    on the WIELANDT chain, of a log-floor classify on DAryShift(CHAIN_DARY),
    and of a Cantor stage build on DAryShift(D) for each D of STAGE_DARY."""
    sys.path.insert(0, "src")
    from shrinktargets import (DAryShift, MarkovLinear, Schedule, borel_cantelli_classify,
                               build_cantor_stage, own_measure, stationary_vector)
    from shrinktargets.harness import parse_config

    M = [[Fraction(x) for x in row] for row in WIELANDT]
    p = stationary_vector(M)
    doc = {"experiment": "classify", "map": {"kind": "markov", "M": WIELANDT,
                                             "p": [str(x) for x in p]},
           "x0": {"word": [0, 1]}, "schedule": {"kind": "depth_log_floor", "base": 2}}
    dary = DAryShift(CHAIN_DARY)
    calls = {
        "parse_config": lambda: parse_config(doc),
        "markov_linear": lambda: MarkovLinear(M, p),
        "stationary_vector": lambda: stationary_vector(M),
        f"classify_dary{CHAIN_DARY}_log_floor": lambda: borel_cantelli_classify(
            dary, own_measure(dary), (0, 1), Schedule.depth_log_floor(2)),
        **{f"stage_dary{D}": (lambda D=D: build_cantor_stage(
            DAryShift(D), (0, 1), Schedule.depth_const(3), 1, [2], epsilon=3))
           for D in STAGE_DARY},
    }
    out = {}
    for name, call in calls.items():
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        out[name] = {"best_s": min(times)}
    return out


def sharpness() -> dict:
    """Per stage of SHARPNESS: gamma, the bound, gamma - bound, the build and
    score seconds, the block count (hex past the int-digit limit) and the
    classes per level; or the exception the build raised."""
    sys.path.insert(0, "src")
    from shrinktargets import Schedule, build_cantor_stage, frostman_exponent, make_map
    from shrinktargets.harness import _count

    out = {}
    for name, (spec, word, (kind, params), sizes, eps, bound) in SHARPNESS.items():
        m, sched = make_map(spec), getattr(Schedule, kind)(**params)
        t0 = time.perf_counter()
        try:
            stage = build_cantor_stage(m, word, sched, len(sizes), sizes, epsilon=eps)
        except Exception as e:
            out[name] = {"bound": bound, "error": f"{type(e).__name__}: {e}"}
            continue
        t1 = time.perf_counter()
        fr = frostman_exponent(stage)
        t2 = time.perf_counter()
        out[name] = {"gamma": fr["gamma"], "bound": bound, "gap": fr["gamma"] - bound,
                     "build_s": t1 - t0, "score_s": t2 - t1, "blocks": _count(fr["blocks"]),
                     "classes": [len(lvl.classes) for lvl in stage.levels]}
    return out


def memory() -> dict:
    """tracemalloc peak (MB) and traced seconds of each guard run: metric
    DAryShift(3) and the chain at r_n = n^-1/2, symbolic D = 2 at
    t_n = floor(log2 n), each MEMORY_N x 2 trials; metric D = 2 with every n
    a horizon, 1 trial; the D = 2, (0, 1), depth_const(3), (8, 15000)
    Cantor stage build; and entropy_birkhoff of the chain, MEMORY_N steps x
    2 trials."""
    import tracemalloc
    sys.path.insert(0, "src")
    from shrinktargets import (DAryShift, MarkovLinear, Schedule, build_cantor_stage,
                               entropy_birkhoff, run_metric_hits, run_symbolic_hits,
                               stationary_vector)
    from shrinktargets.measures import LebesgueMeasure

    mu, sqrt, N = LebesgueMeasure(), Schedule.radii_power(2.0), MEMORY_N
    M = [[Fraction(x) for x in row] for row in CHAINS["chain"]]
    chain, dary2 = MarkovLinear(M, stationary_vector(M)), DAryShift(2)
    runs = {
        "metric_dary3": lambda: run_metric_hits(DAryShift(3), mu, Fraction(1, 4), sqrt, N, 2, 0),
        "metric_chain": lambda: run_metric_hits(chain, mu, (0, 1), sqrt, N, 2, 0),
        "symbolic_dary2_log2": lambda: run_symbolic_hits(
            dary2, mu, (0, 1), Schedule.depth_log_floor(2), N, 2, 0),
        "metric_dary2_every_n": lambda: run_metric_hits(
            dary2, mu, (0, 1), sqrt, N, 1, 0, horizons=range(1, N + 1)),
        "cantor_dary2_8_15000": lambda: build_cantor_stage(
            dary2, (0, 1), Schedule.depth_const(3), 2, (8, 15000)),
        "birkhoff_chain": lambda: entropy_birkhoff(chain, mu, N, 2, 0),
    }
    out = {}
    for name, run in runs.items():
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            run()
            out[name] = {"traced_s": time.perf_counter() - t0,
                         "peak_mb": tracemalloc.get_traced_memory()[1] / 1e6}
        finally:
            tracemalloc.stop()
    return out


def config_exits(configs: dict):
    """(exits, values): the exit code of cli.main, in this process, on each
    config of configs, or "traceback" where cli.main raised; and the
    grid_lower, hausdorff_lower and upper of each bounds config that wrote
    a results.json."""
    sys.path.insert(0, "src")
    from shrinktargets import cli

    out, values = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in configs.items():
            path, results = os.path.join(tmp, f"{name}.json"), os.path.join(tmp, name)
            with open(path, "w") as fh:
                json.dump(doc, fh)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    out[name] = cli.main([doc["experiment"], "--config", path, "--out", results])
                except Exception:
                    out[name] = "traceback"
            results = os.path.join(results, "results.json")
            if doc["experiment"] == "bounds" and os.path.exists(results):
                with open(results) as fh:
                    rec, = json.load(fh)["records"]
                values[name] = {k: rec[k] for k in ("grid_lower", "hausdorff_lower", "upper")}
    return out, values


def api_errors() -> dict:
    """Per target of API_WORDS, by entry point, "ok" or the class name of the
    exception it raised, under the map's own measure.  A digit function goes
    to the entry points that take a target, as a fresh Target each call."""
    sys.path.insert(0, "src")
    from shrinktargets import (Schedule, Target, borel_cantelli_classify, build_cantor_stage,
                               cylinder_from_word, entropy_smb, make_map, own_measure,
                               refine_schedule_to_depths, run_metric_hits, run_symbolic_hits)
    from shrinktargets.coding import period_matrix

    calls = {
        "cylinder_from_word": lambda m, mu, w: cylinder_from_word(m, w),
        "walk_bounds": lambda m, mu, w: Target.of(m, w).walk().bounds(1),
        "refine_schedule_to_depths": lambda m, mu, w: refine_schedule_to_depths(
            m, w, [Fraction(1, 10)]),
        "borel_cantelli_classify": lambda m, mu, w: borel_cantelli_classify(
            m, mu, w, Schedule.depth_const(3)),
        "build_cantor_stage": lambda m, mu, w: build_cantor_stage(
            m, w, Schedule.depth_const(3), 1, [4], epsilon=3),
        "run_symbolic_hits": lambda m, mu, w: run_symbolic_hits(
            m, mu, w, Schedule.depth_const(3), 100, 1, 0),
        "run_metric_hits": lambda m, mu, w: run_metric_hits(
            m, mu, w, Schedule.radii_power(1.0), 100, 1, 0),
        "entropy_smb": lambda m, mu, w: entropy_smb(m, mu, w, 5),
        "period_matrix": lambda m, mu, w: period_matrix(m, w),
    }
    out = {}
    for name, (spec, word) in API_WORDS.items():
        m = make_map(spec)
        out[name] = {}
        for entry, call in calls.items():
            if callable(word) and entry in ("cylinder_from_word", "period_matrix"):
                continue        # these take a word, not a target
            try:
                call(m, own_measure(m), Target(m, word) if callable(word) else word)
                out[name][entry] = "ok"
            except Exception as e:
                out[name][entry] = type(e).__name__
    return out


def src_lines() -> dict:
    """Lines of each source module, by file name, and their total."""
    modules = {}
    for path in sorted(glob.glob(SRC)):
        with open(path) as fh:
            modules[os.path.basename(path)] = sum(1 for _ in fh)
    return {"modules": modules, "total": sum(modules.values())}


def git_state() -> dict:
    """The checked-out commit and whether tracked or untracked files differ
    from it."""
    def git(*args):
        return subprocess.run(["git", *args], capture_output=True, text=True,
                              check=True).stdout.strip()
    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True, help="number in the file name")
    args = ap.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    doc = {**git_state(), "seed": SEED, "seconds": seconds, "workloads": {}}
    for w in spec["workloads"]:
        res, doc["machine"] = run_bench(w["name"], seconds, 0)
        traced = [run_bench(w["name"], seconds, 1)[0] for _ in range(TRACED_RUNS)]
        per_layer = {}
        for k, v in traced[0]["metrics"].items():
            vals = [r["metrics"][k]["value"] for r in traced]
            per_layer[k] = {**v, "value": statistics.median(vals), "runs": vals}
        doc["workloads"][w["name"]] = runs = {
            "end_to_end": res["metrics"], "end_to_end_ops": _ops(res),
            "per_layer": per_layer, "per_layer_ops": [_ops(r) for r in traced]}
        print(f"{w['name']}: wall_s {runs['end_to_end']['wall_s']['value']:.4g} s, "
              f"{runs['end_to_end_ops']['failed']} failed of "
              f"{runs['end_to_end_ops']['attempted']}", file=sys.stderr)
    doc["digit_streams"] = digit_streams()
    print("digit streams: " + ", ".join(f"{k} {v['best_s']:.3f} s"
                                        for k, v in doc["digit_streams"].items()), file=sys.stderr)
    doc["normalizer_walks"] = normalizer_walks()
    print("normalizer walks: " + ", ".join(f"{k} {v['best_s'] * 1e3:.2f} ms"
                                           for k, v in doc["normalizer_walks"].items()),
          file=sys.stderr)
    doc["prefix_walk"] = prefix_walk()
    print("prefix walk (us/digit read, composed): " + ", ".join(
        f"{k}@{t} {v['read_us']:.2f}/{v['matrix_us']:.2f}"
        for k, by_t in doc["prefix_walk"].items() for t, v in by_t.items()), file=sys.stderr)
    doc["float_steps"] = float_steps()
    print("float steps: " + ", ".join(f"{k} {v['steps_per_s']:.3g}/s"
                                      for k, v in doc["float_steps"].items()), file=sys.stderr)
    doc["metric_windows"] = metric_windows()
    print("metric windows: " + ", ".join(f"{k} {v['best_s'] * 1e3:.1f} ms"
                                         for k, v in doc["metric_windows"].items()),
          file=sys.stderr)
    doc["verdict_sweep"] = verdict_sweep()
    print("verdict sweep: " + ", ".join(
        f"{k} {'monotone' if v['monotone'] else 'NOT monotone'} {v['best_s']:.3f} s"
        for k, v in doc["verdict_sweep"].items()), file=sys.stderr)
    doc["radii_verdicts"] = radii_verdicts()
    print("radii verdicts: " + ", ".join(
        f"{k} " + "/".join(v["verdict"] + "?" * v["heuristic"] for v in by_alpha.values())
        for k, by_alpha in doc["radii_verdicts"].items()), file=sys.stderr)
    doc["chain_checks"] = chain_checks()
    print("chain checks: " + ", ".join(f"{k} {v['best_s']:.4f} s"
                                       for k, v in doc["chain_checks"].items()), file=sys.stderr)
    doc["sharpness"] = sharpness()
    print("sharpness: " + ", ".join(
        f"{k} " + (f"gamma {v['gamma']:.4f}" if "gamma" in v else v["error"].split(":")[0])
        for k, v in doc["sharpness"].items()), file=sys.stderr)
    doc["memory"] = memory()
    print("memory: " + ", ".join(f"{k} {v['peak_mb']:.1f} MB"
                                 for k, v in doc["memory"].items()), file=sys.stderr)
    for key, configs in (("config_exits", MALFORMED), ("extreme_exits", EXTREME)):
        doc[key], values = config_exits(configs)
        print(f"{key.replace('_', ' ')}: " + ", ".join(f"{k} {v}" for k, v in doc[key].items()),
              file=sys.stderr)
    doc["extreme_values"] = values
    doc["api_errors"] = api_errors()
    print("api errors: " + ", ".join(f"{k} " + "/".join(sorted(set(v.values())))
                                     for k, v in doc["api_errors"].items()), file=sys.stderr)
    doc["tests"] = run_tests()
    print(f"tier-1: {doc['tests']['wall_s']:.1f} s, {doc['tests']['outcome']}", file=sys.stderr)
    doc["src_lines"] = src_lines()
    print(f"src: {doc['src_lines']['total']} lines", file=sys.stderr)
    path = f"BENCH_{args.pr}.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
