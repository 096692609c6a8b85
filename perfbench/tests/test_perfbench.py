"""Tests of the benchmark's own code (not of `shrinktargets`)."""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for p in (BENCH, os.path.join(ROOT, "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import calib  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import Op, ratio_band  # noqa: E402


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def test_wrong_expected_value_is_a_failure(tmp_path):
    ops = [Op("right", lambda: 2, lambda r: None if r == 2 else "wrong"),
           Op("wrong", lambda: 2, lambda r: None if r == 3 else f"got {r}, expected 3")]
    log = worker.PassLog()
    log.run_pass(ops, str(tmp_path))
    assert (log.attempted, log.failed) == (2, 1)
    assert log.failures == {"wrong": ("got 2, expected 3", False)}


def test_ratio_band_rejects_a_biased_ratio():
    assert ratio_band([1000, 1040, 960], 1000.0) is None
    assert ratio_band([1500, 1600, 1400], 1000.0) is not None


def test_escaped_exception_is_counted_not_fatal(tmp_path):
    def boom():
        raise ZeroDivisionError("float division by zero")

    ran = []
    ops = [Op("boom", boom, lambda r: None, expect="ZeroDivisionError"),
           Op("after", lambda: ran.append(1), lambda r: None),
           Op("bad-check", lambda: 1, lambda r: r.missing)]
    log = worker.PassLog()
    log.run_pass(ops, str(tmp_path))
    assert ran == [1]
    assert (log.attempted, log.failed) == (3, 2)
    assert log.failures["boom"] == ("ZeroDivisionError: float division by zero", True)
    assert log.failures["bad-check"][0].startswith("check raised AttributeError")
    assert log.failures["bad-check"][1] is False


def test_expected_failure_must_match_its_signature():
    op = Op("x", lambda: None, lambda r: None, expect="RuntimeError: containment")
    assert worker.is_expected(op, "RuntimeError: containment test failed to resolve")
    assert not worker.is_expected(op, "ValueError: something else")
    assert not worker.is_expected(Op("y", None, None), "RuntimeError: containment")


def test_self_time_on_synthetic_span_tree():
    S = spans.Span
    tree = [
        S("root", 0.0, 10.0, -1, 0),
        S("a", 1.0, 4.0, 0, 0),        # children of root overlap on [2, 4]
        S("b", 2.0, 5.0, 0, 0),
        S("a.x", 1.5, 2.5, 1, 0),      # grandchild: only reduces a's self time
        S("c", 9.0, 12.0, 0, 0),       # runs past the root's end: clipped to 1.0
        S("other", 20.0, 21.0, -1, 1),
    ]
    assert spans.self_times(tree) == [10.0 - 4.0 - 1.0, 2.0, 3.0, 1.0, 3.0, 1.0]


def test_tracer_records_nested_spans_under_every_import():
    from shrinktargets import coding, recurrence, DAryShift

    tracer = spans.Tracer()
    tracer.wrap_function("shrinktargets.coding", "cylinder_from_word", "cyl")
    try:
        assert recurrence.cylinder_from_word is coding.cylinder_from_word
        tracer.active = True
        coding.refine_depth(DAryShift(2), coding.WordTarget(DAryShift(2), (0, 0, 1)),
                            0.1)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert tracer.spans and all(s.name == "cyl" for s in tracer.spans)
    assert recurrence.cylinder_from_word.__name__ == "cylinder_from_word"


def test_every_printed_metric_is_declared():
    layers = set(spans.layer_metrics(spans.Tracer(), 1)) | {"trace.overhead_s"}
    assert layers == _declared("per_layer")
    res = {"wall_s": 1.0, "setup_s": 0.3, "peak_rss_mb": 40.0,
           "samples": [0.1 * k for k in range(1, 30)]}
    assert set(run.metrics_of(res, 0)) == _declared("end_to_end")


def test_pauses_are_cut_out_of_spans():
    S = spans.Span
    cut = spans.without_pauses([S("a", 0.0, 10.0, -1, 0), S("b", 3.0, 5.0, 0, 0)],
                               [(1.0, 2.0), (4.0, 4.5), (20.0, 21.0)])
    assert [(s.start, s.end) for s in cut] == [(0.0, 8.5), (2.0, 3.5)]


def test_clock_divides_by_the_interpolated_factor():
    clock = calib.Clock()
    clock.points = [(0.0, 1.0), (6.0, 1.6), (10.0, 2.0)]
    clock.pauses = [(4.0, 5.0)]
    assert clock.raw(0.0, 10.0) == 9.0
    # pieces [0, 4], [5, 6], [6, 10] at their midpoint factors 1.2, 1.55, 1.8
    assert abs(clock.scaled(0.0, 10.0) - (4 / 1.2 + 1 / 1.55 + 4 / 1.8)) < 1e-12


def test_tail_latency_leaves_ten_samples_beyond():
    xs = list(range(100))
    value, pct, n = run.tail_latency(xs)
    assert (value, n) == (89, 100) and pct == 90.0
    assert sum(1 for x in xs if x > value) == 10
