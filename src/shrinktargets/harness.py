"""Experiment configuration, dispatch, and report emission.

A single JSON document describes one experiment; identical configs produce
byte-identical outputs (the provenance timestamp aside).  Exact rationals
are written as "num/den" strings, digit words as integer arrays.
"""

from __future__ import annotations

import csv
import datetime
import io
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import __version__
from .dimension import (
    IntervalSplitGrid,
    ProductSplitGrid,
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
from .maps import MAP_KINDS, MapError, make_map
from .measures import (
    MEASURE_KINDS,
    MeasureError,
    entropy_birkhoff,
    entropy_closed_form,
    entropy_smb,
    make_measure,
)
from .recurrence import (
    Schedule,
    TargetPoint,
    borel_cantelli_classify,
    run_metric_hits,
    run_symbolic_hits,
)

EXPERIMENTS = ("simulate", "classify", "entropy", "bounds", "cantor", "gridprobe")


class ConfigError(ValueError):
    """Invalid experiment configuration; carries every violation found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass
class ExperimentConfig:
    experiment: str
    map: Optional[dict] = None
    measure: Optional[dict] = None
    x0: Optional[dict] = None
    schedule: Optional[dict] = None
    horizons: list = field(default_factory=list)
    trials: int = 1
    seed: int = 0
    out: Optional[str] = None
    params: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        rec = {"experiment": self.experiment, "trials": self.trials,
               "seed": self.seed, "horizons": list(self.horizons)}
        for k in ("map", "measure", "x0", "schedule", "out"):
            v = getattr(self, k)
            if v is not None:
                rec[k] = v
        if self.params:
            rec["params"] = self.params
        return rec


def parse_config(doc: dict) -> ExperimentConfig:
    violations = []
    exp = doc.get("experiment")
    if exp not in EXPERIMENTS:
        violations.append(f"experiment must be one of {EXPERIMENTS}, got {exp!r}")
    trials = doc.get("trials", 1)
    if not isinstance(trials, int) or trials < 1:
        violations.append("trials must be a positive integer")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int):
        violations.append("seed must be an integer")
    horizons = doc.get("horizons", [])
    if not isinstance(horizons, list) or any(
            not isinstance(h, int) or h < 1 for h in horizons):
        violations.append("horizons must be a list of positive integers")
    if exp == "simulate" and not horizons:
        violations.append("simulate needs a non-empty horizons list")
    if exp in ("simulate", "classify", "entropy", "cantor") and "map" not in doc:
        violations.append(f"{exp} needs a map block")
    if exp in ("simulate", "classify") and "schedule" not in doc:
        violations.append(f"{exp} needs a schedule block")
    for key in ("map", "measure", "x0", "schedule", "params"):
        if doc.get(key) is not None and not isinstance(doc[key], dict):
            violations.append(f"{key} must be an object, got {doc[key]!r}")
    for key, kinds in (("map", MAP_KINDS), ("measure", MEASURE_KINDS)):
        if isinstance(doc.get(key), dict) and doc[key].get("kind") not in kinds:
            violations.append(f"{key} kind must be one of {kinds}, "
                              f"got {doc[key].get('kind')!r}")
    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(
        experiment=exp,
        map=doc.get("map"),
        measure=doc.get("measure"),
        x0=doc.get("x0"),
        schedule=doc.get("schedule"),
        horizons=horizons,
        trials=trials,
        seed=seed,
        out=doc.get("out"),
        params=doc.get("params", {}),
    )


def _parse_point(spec):
    if spec is None:
        return None
    if "rational" in spec:
        parse, raw = Fraction, spec["rational"]
    elif "decimal" in spec:
        parse, raw = float, spec["decimal"]
    elif "word" in spec:
        return tuple(spec["word"])
    else:
        raise ConfigError(["x0 must give 'rational', 'decimal', or 'word'"])
    try:
        x = parse(raw)
    except (ValueError, TypeError, ZeroDivisionError) as e:
        raise ConfigError([f"x0 {raw!r}: {e}"]) from None
    # every map acts on [0, 1]; the circle maps read x0 as an angle / 2 pi
    if not 0 <= x <= 1:
        raise ConfigError([f"x0 {raw!r} lies outside the domain [0, 1]"])
    return x


def _build_schedule(spec: dict) -> Schedule:
    kind = spec.get("kind")
    args = {k: v for k, v in spec.items() if k != "kind"}
    try:
        if kind == "radii_power":
            return Schedule.radii_power(args["alpha"])
        if kind == "radii_exp":
            return Schedule.radii_exp(args["kappa"])
        if kind == "radii_const":
            return Schedule.radii_const(float(args["r"]))
        if kind == "depth_log_floor":
            return Schedule.depth_log_floor(args.get("base", math.e))
        if kind == "depth_power_floor":
            return Schedule.depth_power_floor(args["kappa"])
        if kind == "depth_const":
            return Schedule.depth_const(args["t"])
        if kind == "custom_radii":
            return Schedule.custom_radii(args["table"])
        if kind == "custom_depths":
            return Schedule.custom_depths(args["table"])
    except KeyError as e:
        raise ConfigError([f"schedule {kind} missing parameter {e}"]) from None
    except (ValueError, TypeError) as e:      # ScheduleError or a non-numeric value
        raise ConfigError([f"schedule {kind}: {e}"]) from None
    raise ConfigError([f"unknown schedule kind {kind!r}"])


def _build_block(name: str, build, spec: dict):
    try:
        return build(spec)
    except KeyError as e:
        raise ConfigError([f"{name} {spec.get('kind')} missing parameter {e}"]) from None
    except (MapError, MeasureError):
        raise                 # parameters that parse but that the theory rejects
    except (ValueError, TypeError, ZeroDivisionError) as e:
        raise ConfigError([f"{name} {spec.get('kind')}: {e}"]) from None


def _default_measure(map_spec: dict) -> dict:
    kind = map_spec.get("kind")
    if kind == "gauss":
        return {"kind": "gauss"}
    if kind == "markov":
        return {"kind": "markov", "M": map_spec["M"], "p": map_spec["p"]}
    return {"kind": "lebesgue"}


@dataclass
class ResultSet:
    config: dict
    records: list
    summary: dict
    verdicts: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    ratio_trace: Optional[list] = None

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "records": self.records,
            "summary": self.summary,
            "verdicts": self.verdicts,
            "provenance": self.provenance,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=1)


def _provenance(cfg: ExperimentConfig) -> dict:
    return {"tool": "shrinktargets", "version": __version__,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "seed": cfg.seed}


def run(cfg: ExperimentConfig) -> ResultSet:
    """Dispatch an experiment and collect per-trial records plus summary."""
    if cfg.experiment == "simulate":
        return _run_simulate(cfg)
    if cfg.experiment == "classify":
        return _run_classify(cfg)
    if cfg.experiment == "entropy":
        return _run_entropy(cfg)
    if cfg.experiment == "bounds":
        return _run_bounds(cfg)
    if cfg.experiment == "cantor":
        return _run_cantor(cfg)
    if cfg.experiment == "gridprobe":
        return _run_gridprobe(cfg)
    raise ConfigError([f"unknown experiment {cfg.experiment!r}"])


def _target_for(cfg, m):
    x0 = _parse_point(cfg.x0)
    if isinstance(x0, tuple):
        try:
            for d in x0:
                m.block_interval(d)       # raises for a digit out of range
        except (MapError, TypeError) as e:
            raise ConfigError([f"x0 word {list(x0)}: {e}"]) from None
        return TargetPoint.from_word(m, x0)
    if x0 is None:
        raise ConfigError(["this experiment needs an x0 block"])
    return TargetPoint.from_point(m, x0)


def _run_simulate(cfg):
    m = _build_block("map", make_map, cfg.map)
    measure = _build_block("measure", make_measure, cfg.measure or _default_measure(cfg.map))
    sched = _build_schedule(cfg.schedule)
    target = _target_for(cfg, m)
    N = max(cfg.horizons)
    runner = run_metric_hits if sched.is_radii else run_symbolic_hits
    hs = runner(m, measure, target, sched, N, cfg.trials, cfg.seed,
                horizons=cfg.horizons)
    records = [{"trial": t, "n": n, "hits": h, "normalizer": norm, "ratio": r}
               for (t, n, h, norm, r) in hs.csv_rows()]
    summary = hs.summary()
    trace = [{"n": int(n), "ratio": float(hs.hits[:, k].mean() / hs.normalizer[k])
              if hs.normalizer[k] > 0 else math.nan}
             for k, n in enumerate(hs.checkpoints)]
    return ResultSet(cfg.to_json(), records, summary,
                     provenance=_provenance(cfg), ratio_trace=trace)


def _run_classify(cfg):
    m = _build_block("map", make_map, cfg.map)
    measure = _build_block("measure", make_measure, cfg.measure or _default_measure(cfg.map))
    sched = _build_schedule(cfg.schedule)
    target = _target_for(cfg, m)
    v = borel_cantelli_classify(m, measure, target, sched)
    return ResultSet(cfg.to_json(), [v.to_json()],
                     {"verdict": v.verdict},
                     verdicts={"borel_cantelli": v.verdict},
                     provenance=_provenance(cfg))


def _run_entropy(cfg):
    m = _build_block("map", make_map, cfg.map)
    measure = _build_block("measure", make_measure, cfg.measure or _default_measure(cfg.map))
    method = cfg.params.get("method", "closed_form")
    if method == "closed_form":
        est = entropy_closed_form(m, measure)
    elif method == "birkhoff":
        n_iter = int(cfg.params.get("n_iter", 10 ** 5))
        est = entropy_birkhoff(m, measure, n_iter, cfg.trials, cfg.seed)
    elif method == "smb":
        est = entropy_smb(m, measure, _target_for(cfg, m), int(cfg.params.get("depth", 20)))
    else:
        raise ConfigError([f"unknown entropy method {method!r}"])
    rec = est.to_json()
    return ResultSet(cfg.to_json(), [rec], rec, provenance=_provenance(cfg))


_BOUND_DISPATCH = {
    "radii_lower": lambda p: bound_radii_lower(
        p["h"], p["delta_bar"], p["ell_bar"], p.get("tau_bar", 0.0), p["log_beta"]),
    "doubling": lambda p: bound_doubling(
        p["delta_bar"], p["ell_bar"], p["s"], p["log_beta"]),
    "code_lower": lambda p: bound_code_lower(p["h"], p["L_bar"]),
    "code_w": lambda p: bound_code_w(p["w_bar"]),
    "upper_finite": lambda p: bound_upper_finite(
        p["D"], p["h"], p.get("L_lower"), p.get("delta_lower"), p.get("ell_lower")),
    "hoeffding": lambda p: bound_hoeffding(p["p"], p["L_lower"]),
    "cantor_lambda": lambda p: cantor_lambda(
        p["a"], p["b"], p["c"], p["delta"], p["N_js"]),
    "grid_transfer": lambda p: grid_transfer(p["a_n"], p["b_n"], p["grid_dim"]),
}


def _run_bounds(cfg):
    evals = cfg.params.get("evaluations")
    if not evals:
        raise ConfigError(["bounds needs params.evaluations: a list of "
                           "{formula, ...} blocks"])
    records = []
    for ev in evals:
        formula = ev.get("formula")
        if formula not in _BOUND_DISPATCH:
            raise ConfigError([f"unknown bound formula {formula!r}"])
        b = _BOUND_DISPATCH[formula]({k: v for k, v in ev.items() if k != "formula"})
        rec = b.to_json()
        rec["formula_tag"] = formula
        records.append(rec)
    summary = {"bounds": len(records)}
    return ResultSet(cfg.to_json(), records, summary, provenance=_provenance(cfg))


def _run_cantor(cfg):
    m = _build_block("map", make_map, cfg.map)
    sched = _build_schedule(cfg.schedule) if cfg.schedule else Schedule.depth_const(0)
    target = _target_for(cfg, m)
    levels = int(cfg.params.get("levels", 2))
    sizes = cfg.params.get("level_sizes")
    if not sizes or len(sizes) != levels:
        raise ConfigError(["cantor needs params.level_sizes matching params.levels"])
    eps = float(cfg.params.get("epsilon", 0.3))
    stage = build_cantor_stage(m, target, sched, levels, sizes, epsilon=eps)
    fr = frostman_exponent(stage, c_cap=float(cfg.params.get("c_cap", 1e3)))
    nu_sums = stage.nu_level_sums()
    summary = {
        "levels": levels,
        "level_sizes": [len(l.fine_suffix) for l in stage.levels],
        "k_js": [l.k_j for l in stage.levels],
        "d_js": [l.d_j for l in stage.levels],
        "nu_level_sums_exact_one": all(s == 1 for s in nu_sums),
        "nesting_violations": stage.nesting_violations(),
        "frostman": fr,
        "level_params": stage.level_params(),
        "geometric_rates": stage.geometric_rates(),
    }
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        stage.dump_json(os.path.join(cfg.out, "stage.json"))
    return ResultSet(cfg.to_json(), [summary], summary, provenance=_provenance(cfg))


def _run_gridprobe(cfg):
    gspec = cfg.params.get("grid", {})
    kind = gspec.get("kind")
    if kind == "interval":
        grid = IntervalSplitGrid(Fraction(str(gspec.get("split", "1/2"))))
    elif kind == "rectangle":
        grid = ProductSplitGrid(Fraction(str(gspec["a"])), Fraction(str(gspec["b"])))
    elif kind == "square":
        grid = ProductSplitGrid(Fraction(1, 2), Fraction(1, 2))
    else:
        raise ConfigError([f"unknown grid kind {kind!r}"])
    bspec = cfg.params.get("balls", {})
    if bspec.get("kind") == "corner_discs":
        balls = rectangle_counterexample_balls(
            grid.a, grid.b, int(bspec.get("kmax", 40)))
    elif bspec.get("kind") == "shrinking_intervals":
        center = Fraction(str(bspec.get("center", "1/3")))
        base = Fraction(str(bspec.get("scale", "3/7")))
        balls = [(center, base * Fraction(1, 2) ** k)
                 for k in range(1, int(bspec.get("kmax", 20)) + 1)]
    elif bspec.get("kind") == "table":
        balls = [tuple(Fraction(str(v)) for v in row) for row in bspec["balls"]]
    else:
        raise ConfigError(["gridprobe needs params.balls of kind corner_discs, "
                           "shrinking_intervals, or table"])
    recs = grid_regularity_probe(grid, balls)
    records = [{"k": r.k, "level": r.level, "ball_measure": r.ball_measure,
                "union_measure": r.union_measure, "C": r.ratio} for r in recs]
    summary = {"max_C": max(r.ratio for r in recs),
               "first_k_over_100": next((r.k for r in recs if r.ratio > 100), None)}
    return ResultSet(cfg.to_json(), records, summary, provenance=_provenance(cfg))


# ---------------------------------------------------------------------------
# report emission

def emit_report(rs: ResultSet, out_dir: str, formats=("json", "csv", "txt")) -> list:
    """Write results.json, records.csv, summary.txt, and ratio-trace plot
    data; returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for fmt in formats:
        if fmt == "json":
            path = os.path.join(out_dir, "results.json")
            with open(path, "w") as fh:
                fh.write(rs.dumps())
                fh.write("\n")
        elif fmt == "csv":
            path = os.path.join(out_dir, "records.csv")
            with open(path, "w", newline="") as fh:
                if rs.records:
                    keys = list(rs.records[0].keys())
                    w = csv.DictWriter(fh, fieldnames=keys)
                    w.writeheader()
                    for rec in rs.records:
                        w.writerow({k: rec.get(k) for k in keys})
        elif fmt == "txt":
            path = os.path.join(out_dir, "summary.txt")
            with open(path, "w") as fh:
                fh.write(render_table(rs))
        else:
            raise ConfigError([f"unknown report format {fmt!r}"])
        written.append(path)
    if rs.ratio_trace:
        path = os.path.join(out_dir, "ratio_trace.dat")
        with open(path, "w") as fh:
            fh.write("# n ratio\n")
            for row in rs.ratio_trace:
                fh.write(f"{row['n']} {row['ratio']!r}\n")
        written.append(path)
    return written


def render_table(rs: ResultSet) -> str:
    """Plain-text table of the summary, suitable for docs."""
    buf = io.StringIO()
    buf.write(f"experiment: {rs.config.get('experiment')}\n")
    for k in sorted(rs.summary):
        buf.write(f"{k:>24}: {rs.summary[k]}\n")
    if rs.config.get("experiment") == "entropy" and "value" in rs.summary:
        # entropies are carried in nats; bits shown at display time only
        buf.write(f"{'value (bits)':>24}: {rs.summary['value'] / math.log(2)}\n")
    if rs.verdicts:
        for k, v in sorted(rs.verdicts.items()):
            buf.write(f"{k:>24}: {v}\n")
    return buf.getvalue()
