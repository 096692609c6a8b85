"""One workload in one fresh process; started by `run.py`, not by hand.

Set-up (imports plus `workloads.build`) is timed from the moment the
launcher spawned this process.  Then one warm-up pass runs, then the timed
passes, and with `--trace 1` the traced passes.  The last line of standard
output is a JSON object that `run.py` turns into the benchmark's metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calib import Clock, speed_factor  # noqa: E402

# Share of `--seconds` given to each timed pass: `--seconds` divided by it
# fixes the pass count, so the count (and the latency percentile it allows)
# depends on the run length only, never on the speed of the code measured.
# With 15 s: 6, 6, 2 and 7 passes; an exact-dimension pass takes ~11 s.
SECONDS_PER_PASS = {
    "linear-stream": 2.5,
    "float-orbit": 2.5,
    "exact-dimension": 7.5,
    "cli-batch": 2.15,
}
MIN_PASSES = 2
TRACED_PASSES = 2


def timed_passes(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / SECONDS_PER_PASS[workload]))


def run_op(op, tracer=None):
    """(start, end, failure detail or None): an exception is a failure.

    A full collection first, outside the timing, so an operation never pays
    for the garbage of the one before it.
    """
    gc.collect()
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    try:
        result = op.fn()
    except Exception as e:
        return start, time.perf_counter(), f"{type(e).__name__}: {e}"
    finally:
        if tracer is not None:
            tracer.active = False
    end = time.perf_counter()
    try:
        return start, end, op.check(result)
    except Exception as e:
        return start, end, f"check raised {type(e).__name__}: {e}"


def is_expected(op, detail) -> bool:
    return op.expect is not None and detail.startswith(op.expect)


class PassLog:
    """Calibrated durations and failures of the timed passes."""

    def __init__(self):
        self.walls = []
        self.raw_walls = []
        self.samples = []
        self.pauses = []            # calibration intervals, to take out of spans
        self.attempted = 0
        self.failed = 0
        self.failures = {}          # op name -> (detail, expected at the seed commit)

    def run_pass(self, ops, tmp, tracer=None):
        """Run every operation once; CLI outputs are deleted after each check."""
        intervals = []
        with Clock() as clock:
            for op in ops:
                if tracer is not None:
                    tracer.op_id += 1
                start, end, detail = run_op(op, tracer)
                shutil.rmtree(os.path.join(tmp, "out"), ignore_errors=True)
                intervals.append((start, end))
                self.attempted += 1
                if detail is not None:
                    self.failed += 1
                    expected = is_expected(op, detail) and \
                        self.failures.get(op.name, (None, True))[1]
                    self.failures[op.name] = (detail, expected)
        self.pauses.extend(clock.pauses)
        scaled = [clock.scaled(a, b) for a, b in intervals]
        self.walls.append(sum(scaled))
        self.raw_walls.append(sum(clock.raw(a, b) for a, b in intervals))
        self.samples.extend(scaled)

    def merge(self, other: "PassLog"):
        """Add another log's operation counts and failures."""
        self.attempted += other.attempted
        self.failed += other.failed
        for name, (detail, expected) in other.failures.items():
            old = self.failures.get(name, (None, True))[1]
            self.failures[name] = (detail, expected and old)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="CLOCK_MONOTONIC time at which the launcher spawned us")
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import workloads
    ops = workloads.build(args.workload, args.seed, args.tmp)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    setup_s /= speed_factor()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    PassLog().run_pass(ops, args.tmp)                     # warm-up
    log = PassLog()
    for _ in range(timed_passes(args.workload, args.seconds)):
        log.run_pass(ops, args.tmp)
    out = {
        "setup_s": setup_s,
        "wall_s": statistics.median(log.walls),
        "raw_wall_s": statistics.median(log.raw_walls),
        "samples": log.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        import spans
        tracer = spans.install(spans.Tracer())
        traced = PassLog()
        try:
            for _ in range(TRACED_PASSES):
                traced.run_pass(ops, args.tmp, tracer)
        finally:
            tracer.uninstall()
        out["layers"] = spans.layer_metrics(tracer, TRACED_PASSES, traced.pauses)
        out["layers"]["trace.overhead_s"] = statistics.median(traced.walls) - out["wall_s"]
        tracer.dump(os.path.join(args.tmp, "..", f"spans-{args.workload}.jsonl"))
        log.merge(traced)
    out.update(attempted=log.attempted, failed=log.failed,
               failures={k: list(v) for k, v in log.failures.items()})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
