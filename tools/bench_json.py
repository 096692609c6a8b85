"""Write BENCH_<pr>.json: the perfbench metrics of every declared workload.

Run from the root of a checkout:

    python3 tools/bench_json.py --pr N

For each workload in BENCHMARK.json it runs perfbench/run.py twice, for the
file's run_seconds at seed SEED, with --trace 0 (end-to-end metrics) and
with --trace 1 (per-layer metrics), and records both metric sets, the
failed and attempted operation counts of each run and the machine that
run.py reports.  The runs are sequential, one worker process at a time, as
run.py starts them.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

MACHINE = "# machine "
SEED = 1


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True, help="number in the file name")
    args = ap.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    doc = {"seed": SEED, "seconds": seconds, "workloads": {}}
    for w in spec["workloads"]:
        runs = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res, doc["machine"] = run_bench(w["name"], seconds, trace)
            runs[key] = res["metrics"]
            runs[f"{key}_ops"] = {k: res[k] for k in ("correct", "attempted", "failed")}
        doc["workloads"][w["name"]] = runs
        print(f"{w['name']}: wall_s {runs['end_to_end']['wall_s']['value']:.4g} s, "
              f"{runs['end_to_end_ops']['failed']} failed of "
              f"{runs['end_to_end_ops']['attempted']}", file=sys.stderr)
    path = f"BENCH_{args.pr}.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
