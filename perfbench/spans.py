"""In-memory span tracing around the public functions of `shrinktargets`.

A `Tracer` replaces each listed function with a wrapper under every name a
`shrinktargets` module bound it to (`recurrence` imports `cylinder_from_word`
from `coding`, so a call from `recurrence` is traced too), which makes nested
calls child spans of their caller.  Spans stay in a list in memory and are
written out only when the run ends.  Per-step methods (`inverse_branch`,
`evaluate`, `digit_of`) are deliberately not wrapped: they run millions of
times, so their cost shows up as the self time of the function calling them.
"""

from __future__ import annotations

import bisect
import inspect
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

PKG = "shrinktargets"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at the top
    op_id: int           # one id per operation execution
    attrs: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> list:
    """Each span's duration minus the part of it covered by its children.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping or out-of-range children are not counted
    twice.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        ivs = sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                     for c in children[i])
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in ivs:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


def _arg(sig, args, kwargs, name):
    bound = sig.bind_partial(*args, **kwargs)
    if name in bound.arguments:
        return bound.arguments[name]
    return sig.parameters[name].default


class Tracer:
    """Span recorder; `install` wraps, `uninstall` restores the originals."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self.active = False
        self.op_id = -1
        self._stack: list = []
        self._patched: list = []      # (owner, attribute, original)

    # -- recording -------------------------------------------------------
    def _span_wrapper(self, orig, name, attrs_fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, tracer.op_id)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = orig(*args, **kwargs)
            except BaseException as e:
                span.end = time.perf_counter()
                span.attrs = {"raised": type(e).__name__,
                              "code": getattr(e, "code", None)}
                raise
            finally:
                tracer._stack.pop()
            span.end = time.perf_counter()
            if attrs_fn is not None:
                span.attrs = attrs_fn(args, kwargs, result)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def _count_wrapper(self, orig, name):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[name] = tracer.counts.get(name, 0) + 1
            return orig(*args, **kwargs)

        wrapper.__wrapped__ = orig
        return wrapper

    # -- patching --------------------------------------------------------
    def wrap_function(self, module: str, func: str, name: str,
                      attrs_fn: Optional[Callable] = None):
        """Trace `module.func` under every module attribute bound to it."""
        orig = getattr(sys.modules[module], func)
        wrapper = self._span_wrapper(orig, name, attrs_fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PKG or mod_name.startswith(PKG + ".")):
                continue
            if getattr(mod, func, None) is orig:
                self._patched.append((mod, func, orig))
                setattr(mod, func, wrapper)

    def count_method(self, cls, method: str, name: str):
        """Count calls of a method defined on `cls` (no span)."""
        orig = cls.__dict__[method]
        self._patched.append((cls, method, orig))
        setattr(cls, method, self._count_wrapper(orig, name))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def dump(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "op": s.op_id, "attrs": s.attrs}) + "\n")


def _steps(sig, n_name, trials_name):
    def attrs(args, kwargs, result):
        return {"steps": int(_arg(sig, args, kwargs, n_name))
                * int(_arg(sig, args, kwargs, trials_name))}
    return attrs


def install(tracer: Tracer) -> Tracer:
    """Wrap the layer boundaries the per-layer metrics are computed from."""
    # cli and harness are not imported by the package itself; load them to wrap them
    from shrinktargets import cli, harness, measures, recurrence  # noqa: F401

    sym_sig = inspect.signature(recurrence.run_symbolic_hits)
    met_sig = inspect.signature(recurrence.run_metric_hits)
    bk_sig = inspect.signature(measures.entropy_birkhoff)
    bkb_sig = inspect.signature(measures.entropy_birkhoff_batch)

    def metric_attrs(args, kwargs, hs):
        m = _arg(met_sig, args, kwargs, "m")
        return {"steps": int(_arg(met_sig, args, kwargs, "N"))
                * int(_arg(met_sig, args, kwargs, "trials")),
                "kind": getattr(m, "kind", "?"),
                "ambiguous": int(hs.ambiguous_resolved),
                "resampled": int(hs.resampled)}

    def report_bytes(args, kwargs, paths):
        return {"bytes": sum(os.path.getsize(p) for p in paths)}

    W = tracer.wrap_function
    W("shrinktargets.maps", "make_map", "maps.make_map")
    W("shrinktargets.coding", "cylinder_from_word", "coding.cylinder_from_word")
    W("shrinktargets.coding", "refine_depth", "coding.refine_depth")
    W("shrinktargets.coding", "refine_schedule_to_depths",
      "coding.refine_schedule_to_depths",
      lambda a, k, r: {"radii": len(r)})
    W("shrinktargets.measures", "entropy_birkhoff", "measures.entropy_birkhoff",
      _steps(bk_sig, "n_iter", "n_trials"))
    W("shrinktargets.measures", "entropy_birkhoff_batch",
      "measures.entropy_birkhoff_batch", _steps(bkb_sig, "n_iter", "n_trials"))
    W("shrinktargets.measures", "smb_regular_cylinders",
      "measures.smb_regular_cylinders", lambda a, k, r: {"words": len(r[0])})
    W("shrinktargets.measures", "correlation_mass", "measures.correlation_mass")
    for cls in (measures.LebesgueMeasure, measures.GaussMeasure,
                measures.MarkovStationaryMeasure):
        tracer.count_method(cls, "cylinder_mass", "measures.cylinder_mass.calls")
    W("shrinktargets.recurrence", "run_symbolic_hits",
      "recurrence.run_symbolic_hits", _steps(sym_sig, "N", "trials"))
    W("shrinktargets.recurrence", "run_metric_hits", "recurrence.run_metric_hits",
      metric_attrs)
    W("shrinktargets.recurrence", "cylinder_mass_by_depth", "recurrence.normalizer")
    W("shrinktargets.recurrence", "ball_mass_array", "recurrence.normalizer")
    W("shrinktargets.recurrence", "borel_cantelli_classify",
      "recurrence.borel_cantelli_classify")
    W("shrinktargets.dimension", "build_cantor_stage", "dimension.build_cantor_stage",
      lambda a, k, st: {"blocks": sum(len(l.fine_suffix) for l in st.levels)})
    W("shrinktargets.dimension", "frostman_exponent", "dimension.frostman_exponent",
      lambda a, k, fr: {"blocks": int(fr["blocks"])})
    W("shrinktargets.dimension", "grid_regularity_probe",
      "dimension.grid_regularity_probe")
    W("shrinktargets.harness", "parse_config", "harness.parse_config")
    W("shrinktargets.harness", "run", "harness.run")
    W("shrinktargets.harness", "emit_report", "harness.emit_report", report_bytes)
    W("shrinktargets.cli", "main", "cli.main",
      lambda a, k, code: {"code": code})
    return tracer


def _rate(work, seconds) -> float:
    return work / seconds if seconds > 0 else 0.0


# span attributes that are amounts of work, summed per span name
WORK_ATTRS = ("steps", "ambiguous", "resampled", "radii", "words", "blocks", "bytes")


def without_pauses(spans, pauses) -> list:
    """Spans on a time axis from which the given intervals are cut out."""
    pauses = sorted(pauses)
    ends = [b for _, b in pauses]
    cum = [0.0]
    for a, b in pauses:
        cum.append(cum[-1] + (b - a))

    def shift(t):
        i = bisect.bisect_right(ends, t)          # pauses over before t
        inside = max(0.0, t - pauses[i][0]) if i < len(pauses) else 0.0
        return t - cum[i] - inside

    return [Span(s.name, shift(s.start), shift(s.end), s.parent, s.op_id, s.attrs)
            for s in spans]


def layer_metrics(tracer: Tracer, passes: int, pauses=()) -> dict:
    """Per-layer metrics of the traced passes, per pass where a total.

    `pauses` are the calibration intervals, which are not the program's
    time and are cut out of every span first.
    """
    spans = without_pauses(tracer.spans, pauses)
    agg = {}

    def add(key, **amounts):
        a = agg.setdefault(key, {})
        for k, v in amounts.items():
            a[k] = a.get(k, 0) + v

    for s, own in zip(spans, self_times(spans)):
        attrs = s.attrs or {}
        work = {k: attrs[k] for k in WORK_ATTRS if k in attrs}
        add(s.name, self=own, dur=s.duration, calls=1, **work)
        if s.name == "recurrence.run_metric_hits" and "kind" in attrs:
            add(f"recurrence.metric_{attrs['kind']}", dur=s.duration, **work)
        if s.name == "cli.main":
            raised = attrs.get("raised")
            code = "traceback" if raised not in (None, "SystemExit") else attrs.get("code")
            add(f"cli.exit_code.{code}", calls=1)

    def get(name, field="self"):
        return agg.get(name, {}).get(field, 0)

    def per_pass(name, field="self"):
        return get(name, field) / passes

    def rate(name, work):
        return _rate(get(name, work), get(name, "dur"))

    linear = ("recurrence.metric_dary", "recurrence.metric_markov")
    linear_steps = sum(get(k, "steps") for k in linear)
    linear_amb = sum(get(k, "ambiguous") for k in linear)
    out = {
        "recurrence.symbolic.steps_per_s": rate("recurrence.run_symbolic_hits", "steps"),
        "recurrence.run_symbolic_hits.self_s": per_pass("recurrence.run_symbolic_hits"),
        "recurrence.run_metric_hits.self_s": per_pass("recurrence.run_metric_hits"),
        "recurrence.ambiguous_resolved": per_pass("recurrence.run_metric_hits", "ambiguous"),
        "recurrence.ambiguous_share": _rate(linear_amb, linear_steps),
        "recurrence.resampled": per_pass("recurrence.run_metric_hits", "resampled"),
        "recurrence.normalizer.self_s": per_pass("recurrence.normalizer"),
        "recurrence.borel_cantelli_classify.self_s":
            per_pass("recurrence.borel_cantelli_classify"),
        "coding.cylinder_from_word.calls": per_pass("coding.cylinder_from_word", "calls"),
        "coding.cylinder_from_word.self_s": per_pass("coding.cylinder_from_word"),
        "coding.refine_schedule_to_depths.radii_per_s":
            rate("coding.refine_schedule_to_depths", "radii"),
        "coding.refine_depth.calls": per_pass("coding.refine_depth", "calls"),
        "measures.entropy_birkhoff.steps_per_s": rate("measures.entropy_birkhoff", "steps"),
        "measures.entropy_birkhoff_batch.steps_per_s":
            rate("measures.entropy_birkhoff_batch", "steps"),
        "measures.smb_regular_cylinders.self_s": per_pass("measures.smb_regular_cylinders"),
        "measures.smb_regular_cylinders.words":
            per_pass("measures.smb_regular_cylinders", "words"),
        "measures.correlation_mass.self_s": per_pass("measures.correlation_mass"),
        "measures.cylinder_mass.calls":
            tracer.counts.get("measures.cylinder_mass.calls", 0) / passes,
        "dimension.build_cantor_stage.self_s": per_pass("dimension.build_cantor_stage"),
        "dimension.build_cantor_stage.blocks_per_s":
            rate("dimension.build_cantor_stage", "blocks"),
        "dimension.frostman_exponent.self_s": per_pass("dimension.frostman_exponent"),
        "dimension.frostman_exponent.blocks_per_s":
            rate("dimension.frostman_exponent", "blocks"),
        "dimension.stage_blocks": per_pass("dimension.build_cantor_stage", "blocks"),
        "dimension.grid_regularity_probe.self_s":
            per_pass("dimension.grid_regularity_probe"),
        "maps.make_map.self_s": per_pass("maps.make_map"),
        "harness.parse_config.self_s": per_pass("harness.parse_config"),
        "harness.run.self_s": per_pass("harness.run"),
        "harness.emit_report.self_s": per_pass("harness.emit_report"),
        "harness.emit_report.bytes": per_pass("harness.emit_report", "bytes"),
        "cli.main.self_s": per_pass("cli.main"),
    }
    for kind in ("dary", "markov", "gauss", "blaschke"):
        name = f"recurrence.metric_{kind}"
        out[f"{name}.steps_per_s"] = rate(name, "steps")
    for code in ("0", "2", "3", "traceback"):
        out[f"cli.exit_code.{code}"] = per_pass(f"cli.exit_code.{code}", "calls")
    return out
