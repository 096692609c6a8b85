"""Write BENCH_<pr>.json: wall times and per-layer throughput, no verdicts.

Run from the root of a checkout:

    python3 tools/bench_json.py --pr N

The file holds measurements only; what the code should compute or refuse is
asserted by the Tier-1 suite.  Its blocks, in the order they are made:

- workloads: for each workload in BENCHMARK.json, perfbench/run.py for the
  file's run_seconds at seed SEED, once with --trace 0 (end-to-end metrics)
  and TRACED_RUNS times with --trace 1 (per-layer metrics).  Traced runs are
  not speed-calibrated, so one of them can read 1.3-1.5x slow with no code
  change: each per-layer metric is the median of the traced runs, with their
  values beside it (``runs``).  The failed and attempted operation counts of
  each run go beside them, and the host that run.py reports goes to
  ``machine``.  The runs are sequential, one worker process at a time.
- digit_streams: one draw of measures.digit_draws of STREAM_DIGITS digits on
  each chain of STREAM_CHAINS (the test suite's three, the sticky chain and a
  16-state chain), each D-ary shift of DARY_STREAMS and the Gauss map, with
  the bytes per digit and each chain's cut count and guide table G and R.
- normalizer_walks: recurrence.cylinder_mass_by_depth on the depths
  floor(n^2), n = 1..WALK_N, for each target of WALKS, and the depth of its
  first mass that rounds to 0.0.
- prefix_walk: microseconds per digit of coding.PrefixWalk.read and per
  branch of PrefixWalk.matrix through each depth of PREFIX_DEPTHS on each map
  of PREFIX_MAPS (the cylinder-construction layer).
- float_steps: orbit-steps/s of measures.float_orbit_blocks for each map of
  FLOAT_STEPS; the Gauss runs at widths (trials stepped together) of
  GAUSS_WIDTHS set one stepped row against one digit of the Gauss stream.
- metric_windows: seconds and orbit-steps/s of recurrence.run_metric_hits for
  each run of METRIC_WINDOWS (the D-ary runs at n^-1/2 take the cylinder-code
  filter, the n^-2, every-n and chain runs the full window scan).
- verdict_sweep: seconds of recurrence.borel_cantelli_classify at the 50
  bases of SWEEP_BASES for each log-floor target of SWEEP_TARGETS, which no
  exact rule covers (the estimated-rate path of the classify layer).
- chain_checks: seconds of harness.parse_config, MarkovLinear and
  stationary_vector on the D = 18 Wielandt chain WIELANDT (primitivity
  exponent (D - 1)^2 + 1 = 290), of a depth_log_floor(2) classify of the word
  (0, 1) on DAryShift(CHAIN_DARY), and of a one-level Cantor stage build on
  DAryShift(D) for each D of STAGE_DARY, map construction included.
- sharpness: for each stage of SHARPNESS, the Frostman exponent gamma
  (dimension.frostman_exponent), the paper's bound (hand values: h/(h + L)
  at t_n = n, h/(h + ell) at radii_exp(log 2)), gamma - bound, the build and
  score seconds, the block count and the class count of each level, or the
  exception that the build raised.
- memory: the tracemalloc peak and traced seconds of each guard run of
  memory(): the linear hit runs of tests/test_recurrence.py::TestBlockSizedRuns
  at N = MEMORY_N, the D = 2 (8,15000) Cantor stage build of
  tests/test_dimension.py and the chain's Birkhoff entropy at MEMORY_N steps.
- tests: the wall time, exit code and outcome counts of the Tier-1 command
  under pytest's --durations, the seconds of each test of
  tests/test_acceptance.py and, as slowest_s, the SLOWEST slowest test ids
  (setup, call and teardown summed).
- src_lines: the lines of each src/shrinktargets/*.py module and their total.
- commit and dirty: git rev-parse HEAD, and whether git status --porcelain
  lists anything.

Every timed block above is the best of its runs (3, or 5 for prefix_walk)
through best(), each run on fresh inputs where a cache would carry over; every
map is measured with its own measure (measures.own_measure).
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import deque
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

import numpy as np  # noqa: E402
from shrinktargets import (DAryShift, GaussMap, MarkovLinear, Schedule, Target,  # noqa: E402
                           borel_cantelli_classify, build_cantor_stage, entropy_birkhoff,
                           frostman_exponent, make_map, own_measure, run_metric_hits,
                           run_symbolic_hits, stationary_vector)
from shrinktargets.coding import PrefixWalk  # noqa: E402
from shrinktargets.harness import _count, parse_config  # noqa: E402
from shrinktargets.measures import LebesgueMeasure, digit_draws, float_orbit_blocks  # noqa: E402
from shrinktargets.recurrence import cylinder_mass_by_depth  # noqa: E402

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
CHAIN = {"kind": "markov", "M": CHAINS["chain"], "p": ["2/3", "1/3"]}
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
    "chain_01": (CHAIN, (0, 1)),
    "gauss_1": ({"kind": "gauss"}, (1,)),
    "sticky_0": ({"kind": "markov", "M": STREAM_CHAINS["sticky"], "p": ["1/2", "1/2"]}, (0,)),
}
PREFIX_MAPS = {     # name -> map spec of the prefix_walk timings
    "dary2": {"kind": "dary", "D": 2}, "dary3": {"kind": "dary", "D": 3},
    "chain": CHAIN, "gauss": {"kind": "gauss"},
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
    "chain_x0.3": (CHAIN, 0.3),
    "gauss_1+k^2%4": ({"kind": "gauss"}, lambda k: 1 + k * k % 4),
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
    **{f"chain_tn_6_{n}_eps0.05": (CHAIN, (0, 1), T_N, (6, n), 0.05, 0.3682)
       for n in (30, 60, 120)},
}
TRACED_RUNS = 3         # --trace 1 runs per workload; a per-layer metric is their median
MEMORY_N = 10 ** 6      # orbit indices of the memory block's hit runs
METRIC_N = 10 ** 6      # orbit indices of each metric_windows run
SQRT = ("radii_power", {"alpha": 2})                # r_n = n^-1/2
METRIC_WINDOWS = {  # name -> (map spec, target word or point x0, radii kind and params, trials,
    # whether every n is a horizon); the D-ary runs at n^-1/2 take the cylinder-code filter past
    # the first block, the others the full scan of every block
    "dary2_01_sqrt": ({"kind": "dary", "D": 2}, (0, 1), SQRT, 2, False),
    "dary3_quarter_sqrt": ({"kind": "dary", "D": 3}, Fraction(1, 4), SQRT, 2, False),
    "chain_01_sqrt": (CHAIN, (0, 1), SQRT, 2, False),
    "dary2_01_n^-2": ({"kind": "dary", "D": 2}, (0, 1), ("radii_power", {"alpha": 0.5}), 2, False),
    "dary2_01_sqrt_every_n": ({"kind": "dary", "D": 2}, (0, 1), SQRT, 1, True),
}


def best(call, fresh=tuple, runs=3):
    """(least seconds of runs calls of call(*fresh()), the last call's value):
    fresh() makes each run's inputs off the clock."""
    times = []
    for _ in range(runs):
        args = fresh()
        t0 = time.perf_counter()
        value = call(*args)
        times.append(time.perf_counter() - t0)
    return min(times), value


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


def tests() -> dict:
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
    """Seconds, digits/s and bytes per digit (the stream's itemsize) of one
    draw of digit_draws(m, rng)(STREAM_DIGITS), seed 0, on each chain of
    STREAM_CHAINS, each D-ary shift of DARY_STREAMS (named dary<D>) and the
    Gauss map.  A chain's row also holds its cut count and its guide table's
    cell count G (guide_cells) and most cuts inside one cell R
    (guide_most_in_cell)."""
    maps = {f"dary{D}": DAryShift(D) for D in DARY_STREAMS}
    for name, rows in STREAM_CHAINS.items():
        M = [[Fraction(x) for x in row] for row in rows]
        maps[name] = MarkovLinear(M, stationary_vector(M))
    maps["gauss"] = GaussMap()
    out = {}
    for name, m in maps.items():
        s, stream = best(lambda: digit_draws(m, np.random.default_rng(0))(STREAM_DIGITS))
        out[name] = {"digits": STREAM_DIGITS, "best_s": s, "digits_per_s": STREAM_DIGITS / s,
                     "bytes_per_digit": stream.itemsize}
        if isinstance(m, MarkovLinear):     # the cut table has a row past each cut
            _, (G, _, slots), table = m.float_chain
            out[name].update(cuts=len(table) - 1, guide_cells=G, guide_most_in_cell=len(slots))
    return out


def normalizer_walks() -> dict:
    """Seconds of cylinder_mass_by_depth on floor(n^2), n <= WALK_N, for
    each target of WALKS, a fresh one each run (no walk cached from a run
    before), and the depth of its first mass that rounds to 0.0."""
    depths = Schedule.depth_power_floor(2).depths_array(WALK_N)
    out = {}
    for name, (spec, word) in WALKS.items():
        m = make_map(spec)
        mu = own_measure(m)
        s, masses = best(lambda target: cylinder_mass_by_depth(m, mu, target, depths),
                         lambda: (Target(m, word),))
        zero = int(depths[masses == 0][0]) if not masses.all() else None
        out[name] = {"n": WALK_N, "best_s": s, "first_zero_depth": zero}
    return out


def prefix_walk() -> dict:
    """Microseconds per digit of PrefixWalk.read(t) (per digit read) and of
    PrefixWalk.matrix(t) (per branch composed, after the read) at each depth
    t of PREFIX_DEPTHS, on fresh unseeded walks, so that no depth-0 cylinder
    is built, over the first max(PREFIX_DEPTHS) + 1 digits that digit_draws
    gives each map of PREFIX_MAPS at seed 0."""
    def walks(m, word, reps, t):
        return [PrefixWalk(m, word, seeded=False) for _ in range(reps)], t

    def read(ws, t):
        for w in ws:
            w.read(t)
        return ws, t

    def matrix(ws, t):
        for w in ws:
            w.matrix(t)

    out = {}
    for name, spec in PREFIX_MAPS.items():
        m = make_map(spec)
        word = digit_draws(m, np.random.default_rng(0))(max(PREFIX_DEPTHS) + 1).tolist()
        out[name] = {}
        for t in PREFIX_DEPTHS:
            reps = max(1, PREFIX_DIGITS // (t + 1))
            read_s, _ = best(read, lambda: walks(m, word, reps, t), runs=5)
            matrix_s, _ = best(matrix, lambda: read(*walks(m, word, reps, t)), runs=5)
            out[name][str(t)] = {"read_us": read_s / (reps * (t + 1)) * 1e6,
                                 "matrix_us": matrix_s / (reps * t) * 1e6}
    return out


def float_steps() -> dict:
    """Seconds and orbit-steps/s (trials x steps) of every block of
    float_orbit_blocks for each map of FLOAT_STEPS, trial seeds 0, 1, ..."""
    out = {}
    for name, (spec, trials, steps) in FLOAT_STEPS.items():
        m = make_map(spec)
        mu = own_measure(m)
        s, _ = best(lambda: deque(float_orbit_blocks(m, mu, range(trials), steps), maxlen=0))
        out[name] = {"trials": trials, "steps": steps, "best_s": s,
                     "steps_per_s": trials * steps / s}
    return out


def metric_windows() -> dict:
    """Seconds and orbit-steps/s (trials x METRIC_N) of run_metric_hits for
    each run of METRIC_WINDOWS, seed 0: the window-position and hit-decision
    layers of the linear metric engine, digit draws and the normalizer
    included."""
    out = {}
    for name, (spec, x0, (kind, params), trials, every_n) in METRIC_WINDOWS.items():
        m = make_map(spec)
        mu, sched = own_measure(m), Schedule(kind, params)
        horizons = range(1, METRIC_N + 1) if every_n else None
        s, _ = best(lambda: run_metric_hits(m, mu, x0, sched, METRIC_N, trials, 0,
                                            horizons=horizons))
        out[name] = {"trials": trials, "steps": METRIC_N, "every_n": every_n, "best_s": s,
                     "steps_per_s": trials * METRIC_N / s}
    return out


def verdict_sweep() -> dict:
    """Seconds of the depth_log_floor classify at every base of SWEEP_BASES
    for each target of SWEEP_TARGETS, a fresh target each run."""
    out = {}
    for name, (spec, x0) in SWEEP_TARGETS.items():
        m = make_map(spec)
        mu = own_measure(m)
        s, _ = best(lambda target: [borel_cantelli_classify(
            m, mu, target, Schedule.depth_log_floor(b)) for b in SWEEP_BASES],
            lambda: (Target(m, digits=x0) if callable(x0) else Target(m, value=x0),))
        out[name] = {"best_s": s}
    return out


def chain_checks() -> dict:
    """Seconds of parse_config, MarkovLinear and stationary_vector on the
    WIELANDT chain, of a log-floor classify on DAryShift(CHAIN_DARY), and of
    a Cantor stage build on DAryShift(D) for each D of STAGE_DARY."""
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
    return {name: {"best_s": best(call)[0]} for name, call in calls.items()}


def sharpness() -> dict:
    """Per stage of SHARPNESS: gamma, the bound, gamma - bound, the build and
    score seconds, the block count (hex past the int-digit limit) and the
    classes per level; or the exception the build raised."""
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
    mu, sqrt, N = LebesgueMeasure(), Schedule.radii_power(2.0), MEMORY_N
    chain, dary2 = make_map(CHAIN), DAryShift(2)
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


def workloads(spec: dict) -> tuple:
    """(the workloads block, the machine) of the perfbench runs of spec."""
    seconds, out, machine = spec["run_seconds"], {}, None
    for w in spec["workloads"]:
        res, machine = run_bench(w["name"], seconds, 0)
        traced = [run_bench(w["name"], seconds, 1)[0] for _ in range(TRACED_RUNS)]
        per_layer = {}
        for k, v in traced[0]["metrics"].items():
            vals = [r["metrics"][k]["value"] for r in traced]
            per_layer[k] = {**v, "value": statistics.median(vals), "runs": vals}
        out[w["name"]] = {"end_to_end": res["metrics"], "end_to_end_ops": _ops(res),
                          "per_layer": per_layer, "per_layer_ops": [_ops(r) for r in traced]}
        print(f"{w['name']}: wall_s {res['metrics']['wall_s']['value']:.4g} s, "
              f"{res['failed']} failed of {res['attempted']}", file=sys.stderr)
    return out, machine


BLOCKS = (digit_streams, normalizer_walks, prefix_walk, float_steps, metric_windows,
          verdict_sweep, chain_checks, sharpness, memory, tests, src_lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True, help="number in the file name")
    args = ap.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    doc = {**git_state(), "seed": SEED, "seconds": spec["run_seconds"]}
    doc["workloads"], doc["machine"] = workloads(spec)
    for block in BLOCKS:
        t0 = time.perf_counter()
        doc[block.__name__] = block()
        print(f"{block.__name__}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    path = f"BENCH_{args.pr}.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
