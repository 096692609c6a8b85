"""Experiment configuration, dispatch, and report emission.

A single JSON document describes one experiment; identical configs produce
byte-identical outputs (the provenance timestamp aside).  Exact rationals
are written as "num/den" strings, digit words as integer arrays.  One
schema says what each experiment reads, and a map brings its own measure.
Its tables of map kinds, schedule kinds, bound formulas, cantor params and
gridprobe params live beside the code that owns them, which checks its
arguments through them; this module assembles them.  parse_config checks a
document against it once and lists every violation, so a run that starts
fails only for a reason of the theory.
"""

from __future__ import annotations

import csv
import datetime
import functools
import io
import json
import math
import os
from dataclasses import dataclass, field
from types import SimpleNamespace
from fractions import Fraction
from typing import Optional

from . import __version__
from .dimension import (BOUND_SCHEMA, BOUNDS, CANTOR_PARAMS, GRIDPROBE_PARAMS, IntervalSplitGrid,
                        ProductSplitGrid, build_cantor_stage, frostman_exponent,
                        grid_regularity_probe, rectangle_counterexample_balls)
from .maps import MAP_KINDS, MAP_SCHEMA, make_map
from .measures import ENTROPY_METHODS, entropy_birkhoff, entropy_closed_form, own_measure
from .coding import Target
from .recurrence import (
    SCHEDULE_KINDS,
    Schedule,
    borel_cantelli_classify,
    run_metric_hits,
    run_symbolic_hits,
)
from .schema import block, enum, integer, kinds, listof, number, obj, rational, satisfies


class ConfigError(ValueError):
    """Invalid experiment configuration; carries every violation found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ExperimentConfig(SimpleNamespace):
    """A config the schema accepts: each top-level field, with its default
    filled in, as an attribute, and `echo`, the document as results.json
    repeats it."""
    map = x0 = schedule = out = None        # blocks a config may omit

    def to_json(self) -> dict:
        return self.echo


@functools.cache
def _top(params):
    """Schema of a whole document whose experiment reads `params`; a block
    an experiment does not read is still checked."""
    return block({
        "experiment": enum(EXPERIMENTS),
        "map": (MAP_SCHEMA, None),
        "x0": (block({"rational": (rational(0, 1, closed=True), None),
                      "decimal": (number(0, 1, closed=True), None),
                      "word": (listof(integer(0)), None)},
                     lambda x0: None if len(x0) == 1 else "must give exactly one of "
                     f"'rational', 'decimal' or 'word', got {list(x0)}"),
               None),
        "schedule": (kinds({k: v[0] for k, v in SCHEDULE_KINDS.items()}), None),
        "horizons": (listof(integer(1), empty=True), []),
        "trials": (integer(1), 1),
        "seed": (integer(), 0),
        "out": (satisfies(lambda v: isinstance(v, str) and v != "", "a directory path"), None),
        "params": (params, None),
    })


def parse_config(doc: dict) -> ExperimentConfig:
    """Check doc against the schema; raise ConfigError with every violation."""
    bad = []
    exp = doc.get("experiment")
    known = isinstance(exp, str) and exp in EXPERIMENTS
    _, needs, params = EXPERIMENTS[exp] if known else (None, (), obj)
    doc = {**doc, "params": {}} if doc.get("params") is None else doc
    f = _top(params)(doc, "", bad, exp if known else "the config")
    bad += [f"{k}: {exp} needs a {k} block" for k in needs if doc.get(k) in (None, [])]
    m, x0 = f.get("map"), f.get("x0")
    if not any(v.startswith(("map", "x0")) for v in bad) and m and x0:
        (key, w), = x0.items()
        _, _, digits, domain = MAP_KINDS[m["kind"]]
        if key != "word":       # a point, in the domain of the map
            domain(w, f"x0.{key}", bad, m["kind"])
        else:
            bad += [f"x0.word.{i}: {d} is not a digit of map kind {m['kind']}"
                    for i, d in enumerate(w) if d not in digits(m)]
        # radii need the point of itinerary (w)^inf: a forbidden transition leaves none
        if key == "word" and m["kind"] == "markov" and f.get("schedule") \
                and not any(v.startswith(("x0", "schedule")) for v in bad) \
                and _schedule(f["schedule"]).is_radii:
            bad += [f"x0.word.{i}: the chain forbids {a} -> {b}, so no point has itinerary (w)^inf"
                    for i, (a, b) in enumerate(zip(w, w[1:] + w[:1])) if not Fraction(m["M"][a][b])]
    if bad:
        raise ConfigError(bad)
    echo = {"trials": 1, "seed": 0, "horizons": [],
            **{k: v for k, v in doc.items() if v is not None and v != {}}}
    return ExperimentConfig(echo=echo, **f)


def _map_measure(cfg):
    m = make_map(cfg.map)
    return m, own_measure(m)


def _schedule(spec) -> Schedule:
    # each kind's constructor takes the kind's parameters by name
    return getattr(Schedule, spec["kind"])(**{k: v for k, v in spec.items() if k != "kind"})


def _target(cfg, m) -> Target:
    (kind, raw), = cfg.x0.items()
    return Target.of(m, {"rational": Fraction, "decimal": float, "word": tuple}[kind](raw))


@dataclass
class ResultSet:
    config: dict
    records: list
    summary: dict
    verdicts: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    ratio_trace: Optional[list] = None

    def to_json(self) -> dict:      # every field but the ratio trace
        return {k: v for k, v in vars(self).items() if k != "ratio_trace"}

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=1)


def run(cfg: ExperimentConfig) -> ResultSet:
    """Dispatch an experiment and collect per-trial records plus summary."""
    # each runner returns the records, summary and any other ResultSet fields
    provenance = {"tool": "shrinktargets", "version": __version__,
                  "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                  "seed": cfg.seed}
    return ResultSet(cfg.to_json(), provenance=provenance, **EXPERIMENTS[cfg.experiment][0](cfg))


def _run_simulate(cfg):
    m, measure = _map_measure(cfg)
    sched = _schedule(cfg.schedule)
    target = _target(cfg, m)
    N = max(cfg.horizons)
    runner = run_metric_hits if sched.is_radii else run_symbolic_hits
    hs = runner(m, measure, target, sched, N, cfg.trials, cfg.seed,
                horizons=cfg.horizons)
    records = [{"trial": t, "n": n, "hits": h, "normalizer": norm, "ratio": r}
               for (t, n, h, norm, r) in hs.csv_rows()]
    summary = hs.summary()
    trace = [{"n": n, "ratio": r} for n, r in
             zip(hs.checkpoints.tolist(), hs.ratio_of(hs.hits.mean(axis=0)).tolist())]
    return {"records": records, "summary": summary, "ratio_trace": trace}


def _run_classify(cfg):
    m, measure = _map_measure(cfg)
    sched = _schedule(cfg.schedule)
    target = _target(cfg, m)
    v = borel_cantelli_classify(m, measure, target, sched)
    return {"records": [v.to_json()], "summary": {"verdict": v.verdict, "heuristic": v.heuristic},
            "verdicts": {"borel_cantelli": v.verdict}}


def _run_entropy(cfg):
    m, measure = _map_measure(cfg)
    p = cfg.params
    if p["method"] == "birkhoff":
        est = entropy_birkhoff(m, measure, p["n_iter"], cfg.trials, cfg.seed)
    else:
        est = entropy_closed_form(m, measure)
    rec = est.to_json()
    return {"records": [rec], "summary": rec}


def _run_bounds(cfg):
    records = []
    for ev in cfg.params["evaluations"]:
        fn = BOUNDS[ev["formula"]][0]
        rec = fn(**{k: v for k, v in ev.items() if k != "formula"}).to_json()
        rec["formula_tag"] = ev["formula"]
        records.append(rec)
    return {"records": records, "summary": {"bounds": len(records)}}


def _run_cantor(cfg):
    m = make_map(cfg.map)
    sched = _schedule(cfg.schedule) if cfg.schedule else Schedule.depth_const(0)
    target = _target(cfg, m)
    p = cfg.params
    stage = build_cantor_stage(m, target, sched, p["levels"], p["level_sizes"],
                               epsilon=float(p["epsilon"]))
    fr = frostman_exponent(stage, c_cap=float(p["c_cap"]))
    nu_sums = stage.nu_level_sums()
    summary = {
        "levels": p["levels"],
        "level_sizes": [_count(l.count) for l in stage.levels],
        "k_js": [len(l.nested_suffix) for l in stage.levels],
        "d_js": [l.d_j for l in stage.levels],
        "nu_level_sums_exact_one": all(s == 1 for s in nu_sums),
        "nesting_violations": stage.nesting_violations(),
        "frostman": {**fr, "blocks": _count(fr["blocks"])},
        "level_params": stage.level_params(),
        "geometric_rates": stage.geometric_rates(),
    }
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        stage.dump_json(os.path.join(cfg.out, "stage.json"))
    return {"records": [summary], "summary": summary}


def _count(n: int):
    """n, or its hex "0x..." where its decimal form passes the interpreter's
    limit on int digits (sys.get_int_max_str_digits); int(s, 16) reads it."""
    try:
        str(n)
        return n
    except ValueError:
        return hex(n)


def _run_gridprobe(cfg):
    g, b = cfg.params["grid"], cfg.params["balls"]
    # each kind's constructor takes the kind's parameters by name
    grid = (IntervalSplitGrid if g["kind"] == "interval" else ProductSplitGrid)(
        **{k: v for k, v in g.items() if k != "kind"})
    if b["kind"] == "corner_discs":
        balls = rectangle_counterexample_balls(grid.a, grid.b, b["kmax"])
    elif b["kind"] == "shrinking_intervals":
        center, base = Fraction(b["center"]), Fraction(b["scale"])
        balls = [(center, base * Fraction(1, 2) ** k) for k in range(1, b["kmax"] + 1)]
    else:
        balls = [tuple(map(Fraction, row)) for row in b["balls"]]
    recs = grid_regularity_probe(grid, balls)
    records = [{"k": r.k, "level": r.level, "ball_measure": r.ball_measure,
                "union_measure": r.union_measure, "C": r.ratio} for r in recs]
    return {"records": records, "summary": {
        "max_C": max(r.ratio for r in recs),
        "first_k_over_100": next((r.k for r in recs if r.ratio > 100), None)}}


# experiment -> (runner, the blocks it needs, the schema of its params)
EXPERIMENTS = {
    "simulate": (_run_simulate, ("map", "schedule", "x0", "horizons"), block({})),
    "classify": (_run_classify, ("map", "schedule", "x0"), block({})),
    "entropy": (_run_entropy, ("map",), kinds(ENTROPY_METHODS, "method", "closed_form")),
    "bounds": (_run_bounds, (), block({"evaluations": listof(BOUND_SCHEMA)})),
    "cantor": (_run_cantor, ("map", "x0"), CANTOR_PARAMS),
    "gridprobe": (_run_gridprobe, (), GRIDPROBE_PARAMS),
}


def _summary_value(doc):
    v = doc["summary"].get("value", 0)
    if doc["config"].get("experiment") == "entropy" and (
            isinstance(v, bool) or not isinstance(v, (int, float))):
        return f"summary.value: must be a number for an entropy report, got {v!r}"


RESULTS = block({"config": (obj, {}), "records": (listof(obj, empty=True), []),
                 "summary": (obj, {}), "verdicts": (obj, {}), "provenance": (obj, {})},
                _summary_value)


def parse_results(doc: dict) -> ResultSet:
    """Read a results.json document back, for `report`."""
    bad = []
    f = RESULTS(doc, "", bad, "a report")
    if bad:
        raise ConfigError(bad)
    return ResultSet(**f)


# ---------------------------------------------------------------------------
# report emission

def emit_report(rs: ResultSet, out_dir: str) -> list:
    """Write results.json, records.csv, summary.txt, and ratio-trace plot
    data; returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    written = [os.path.join(out_dir, name)
               for name in ("results.json", "records.csv", "summary.txt")]
    results, records, summary = written
    with open(results, "w") as fh:
        fh.write(rs.dumps())
        fh.write("\n")
    with open(records, "w", newline="") as fh:
        if rs.records:
            keys = list(rs.records[0].keys())
            w = csv.DictWriter(fh, fieldnames=keys)
            w.writeheader()
            for rec in rs.records:
                w.writerow({k: rec.get(k) for k in keys})
    with open(summary, "w") as fh:
        fh.write(render_table(rs))
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
