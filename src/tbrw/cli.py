"""Command line entry point.

Usage: ``tbrw <experiment> --config file.json [--seed N] [--replicas N]
[--horizon N] [--out DIR] [--workers N]``.  Flags override config fields.
Exits 0 on success; on any failure prints a one-line JSON error to stderr
and exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import EXPERIMENT_NAMES, parse_config
from .experiments import run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tbrw",
        description="Tree-builder random walk experiment runner")
    parser.add_argument("experiment", choices=EXPERIMENT_NAMES)
    parser.add_argument("--config", help="JSON config file", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--replicas", type=int, default=None)
    parser.add_argument("--horizon", type=int, default=None)
    parser.add_argument("--guard", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--workers", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {"seed": args.seed, "replicas": args.replicas,
                 "horizon": args.horizon, "out": args.out,
                 "workers": args.workers, "guard": args.guard}
    try:
        base = {"experiment": args.experiment}
        if args.config is not None:
            with open(args.config) as fh:
                base = json.load(fh)
            base["experiment"] = args.experiment
        cfg = parse_config(base, overrides)
        manifest = run_experiment(cfg)
    except Exception as exc:  # noqa: BLE001 - the CLI's one error boundary
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    print(json.dumps({"status": "ok", "out": cfg.out_dir,
                      "config_hash": manifest.config_hash,
                      "outputs": manifest.outputs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
