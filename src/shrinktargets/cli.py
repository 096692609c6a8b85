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
from .harness import (EXPERIMENTS, ConfigError, emit_report, parse_config, parse_results,
                      render_table, run)
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
    for name in (*EXPERIMENTS, "report"):
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

    if args.command != "report":
        if doc.get("experiment") is None:
            doc["experiment"] = args.command
        for key in ("seed", "trials", "out"):
            if getattr(args, key) is not None:
                doc[key] = getattr(args, key)
        if args.horizon is not None:      # the schema reports a part that is not an integer
            doc["horizons"] = [int(h) if h.isdigit() else h for h in args.horizon.split(",") if h]

    try:
        if args.command == "report":
            rs, out = parse_results(doc), args.out or "."
        else:
            cfg = parse_config(doc)
            if cfg.experiment != args.command:
                raise ConfigError(
                    [f"config experiment {cfg.experiment!r} does not match "
                     f"subcommand {args.command!r}"])
            rs, out = run(cfg), cfg.out
        paths = emit_report(rs, out) if out else None
    except ConfigError as e:
        for v in e.violations:
            print(f"config error: {v}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:         # an output directory that cannot be made
        print(f"output error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (MapError, MeasureError, ScheduleError, DimensionError,
            BoundaryHit, RuntimeError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL

    if paths is None:
        print(render_table(rs), end="")
    for p in paths or ():
        print(p)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
