"""Benchmark of the `shrinktargets` experiments, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload linear-stream --seed 1 --seconds 20 --trace 0

Workloads, metrics and bounds are declared in `BENCHMARK.json`; the
workloads themselves are in `perfbench/workloads.py`.  Each run starts its
workload in fresh processes with numpy/BLAS capped at one thread: a few
set-up-only processes (their median is `setup_s`) and one process that runs
a warm-up pass and the timed passes (and with `--trace 1` the traced passes).
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it list
every metric with its unit, the error rate with its counts, each failed
operation, and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 4
TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def tail_latency(samples):
    """(value, percentile, n): the highest percentile with ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def child_env(root: str, tmp: str) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = tmp
    return env


def spawn(args, root, tmp, extra, deadline) -> dict:
    """Run one worker process to completion; its last stdout line is JSON."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", tmp, "--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    proc = subprocess.Popen(cmd + extra, cwd=root, env=child_env(root, tmp),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{err.strip()}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def measure(args, root: str) -> dict:
    deadline = time.monotonic() + TIMEOUT_S
    base = os.path.join(root, ".bench_build", "perfbench")
    tmp = os.path.join(base, f"tmp-{os.getpid()}")
    os.makedirs(tmp)
    try:
        setups = [spawn(args, root, tmp, ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES - 1)]
        res = spawn(args, root, tmp, [], deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    res["setup_s"] = statistics.median(setups + [res["setup_s"]])
    return res


def metrics_of(res: dict, trace: int) -> dict:
    if trace:
        return res["layers"]
    p50 = statistics.median(res["samples"])
    tail, _, _ = tail_latency(res["samples"])
    return {"wall_s": res["wall_s"], "setup_s": res["setup_s"],
            "peak_rss_mb": res["peak_rss_mb"], "op_p50_s": p50, "op_tail_s": tail}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "shrinktargets", "__init__.py")):
        print("perfbench: run from a checkout root holding src/shrinktargets",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        res = measure(args, root)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    declared = spec["per_layer" if args.trace else "end_to_end"]
    values = metrics_of(res, args.trace)
    if set(values) != {m["name"] for m in declared}:
        print(f"perfbench: metrics {sorted(set(values) ^ {m['name'] for m in declared})} "
              "are not both declared and measured", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    for name, m in metrics.items():
        print(f"{name:>48} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{'uncalibrated wall_s':>48} {res['raw_wall_s']:.6g} s")
    rate = res["failed"] / res["attempted"]
    print(f"{'error_rate':>48} {rate:.6g} ({res['failed']} failed of "
          f"{res['attempted']} attempted)")
    if not args.trace:
        _, pct, n = tail_latency(res["samples"])
        print(f"{'op_tail_s':>48} is p{pct:.2f} of {n} operation samples")
    for name, (detail, expected) in sorted(res["failures"].items()):
        tag = "expected at the seed commit" if expected else "UNEXPECTED"
        print(f"# failed {name} ({tag}): {detail}")
    print(f"# machine {json.dumps(machine_info())}")
    correct = all(expected for _, expected in res["failures"].values())
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
