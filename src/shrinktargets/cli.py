"""Command-line interface.

    shrinktargets simulate  --config cfg.json [--seed N --trials K --out DIR]
    shrinktargets classify  --config cfg.json
    shrinktargets entropy   --config cfg.json
    shrinktargets bounds    --config cfg.json
    shrinktargets cantor    --config cfg.json
    shrinktargets gridprobe --config cfg.json
    shrinktargets report    --config results.json --out DIR

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .dimension import DimensionError
from .harness import ConfigError, ResultSet, emit_report, parse_config, render_table, run
from .maps import BoundaryHit, MapError
from .measures import MeasureError
from .recurrence import ScheduleError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


@functools.cache
def _build_parser():
    # built once per process: parse_args leaves the parser unchanged
    ap = argparse.ArgumentParser(prog="shrinktargets",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("simulate", "classify", "entropy", "bounds", "cantor",
                 "gridprobe", "report"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--horizon", default=None, metavar="N[,N...]")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    if not isinstance(doc, dict):
        print(f"config error: the config must be a JSON object, got {doc!r}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "report":
        try:
            rs = ResultSet(config=doc.get("config", {}),
                           records=doc.get("records", []),
                           summary=doc.get("summary", {}),
                           verdicts=doc.get("verdicts", {}),
                           provenance=doc.get("provenance", {}))
            paths = emit_report(rs, args.out or ".")
        except (ConfigError, OSError) as e:
            print(f"report error: {e}", file=sys.stderr)
            return EXIT_CONFIG
        for p in paths:
            print(p)
        return EXIT_OK

    if doc.get("experiment") is None:
        doc["experiment"] = args.command
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.trials is not None:
        doc["trials"] = args.trials
    if args.out is not None:
        doc["out"] = args.out
    if args.horizon is not None:
        try:
            doc["horizons"] = [int(h) for h in args.horizon.split(",") if h]
        except ValueError:
            print(f"config error: --horizon {args.horizon!r} is not a list of integers",
                  file=sys.stderr)
            return EXIT_CONFIG

    try:
        cfg = parse_config(doc)
        if cfg.experiment != args.command:
            raise ConfigError(
                [f"config experiment {cfg.experiment!r} does not match "
                 f"subcommand {args.command!r}"])
        rs = run(cfg)
    except ConfigError as e:
        for v in e.violations:
            print(f"config error: {v}", file=sys.stderr)
        return EXIT_CONFIG
    except (MapError, MeasureError, ScheduleError, DimensionError,
            BoundaryHit, RuntimeError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL

    if cfg.out:
        for p in emit_report(rs, cfg.out):
            print(p)
    else:
        print(render_table(rs), end="")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
