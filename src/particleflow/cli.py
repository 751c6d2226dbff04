"""Command-line benchmark runner.

Subcommands: synthetic, pose, theorem, summarize. Configuration comes from
an optional key=value file plus flags; flags win. Each run writes a CSV of
tidy metric rows and a sibling manifest recording the fully resolved
configuration.
"""
from __future__ import annotations

import argparse
import csv
import sys
import time

from . import experiments
from .config import _KEY_PARSERS, make_config, parse_config_file

# sweep runners; each also reports why its failed runs failed
_SWEEPS = {
    "synthetic": experiments.run_synthetic,
    "pose": experiments.run_pose,
}

_COMMON_FLAGS = [
    ("--dims", "dims", "comma-separated dimensions"),
    ("--n-particles", "n_particles", "comma-separated particle counts"),
    ("--n-steps", "n_steps", "filter iterations"),
    ("--seeds", "seeds", "comma-separated seeds"),
    ("--method", "methods", "comma-separated methods (flow,mcl,gd)"),
    ("--gamma", "gamma", "kernel width or 'auto'"),
    ("--grid-center", "grid_center", "grid center or 'auto'"),
    ("--grid-orders", "grid_orders", "orders of magnitude spanned by the grid"),
    ("--grid-points-per-order", "grid_points_per_order", "grid resolution"),
    ("--out", "out", "output CSV path"),
]

_EXTRA_FLAGS = {
    "pose": [
        ("--pose-points", "pose_points", "number of point correspondences"),
        ("--sigma", "sigma", "observation noise standard deviation (meters)"),
    ],
    "theorem": [
        ("--eps", "eps", "total field discrepancy bound"),
        ("--t-end", "t_end", "integration horizon"),
        ("--dt", "dt", "Euler step (must be <= 1e-3 * t_end)"),
    ],
    "synthetic": [],
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="particleflow", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in ("synthetic", "pose", "theorem"):
        sub = subparsers.add_parser(name, help=f"run the {name} experiment")
        sub.add_argument("--config", help="key=value config file ('#' comments)")
        for flag, dest, help_text in _COMMON_FLAGS + _EXTRA_FLAGS[name]:
            sub.add_argument(flag, dest=dest, metavar="V", help=help_text)
    summarize = subparsers.add_parser("summarize", help="aggregate a results CSV over seeds")
    summarize.add_argument("input", help="CSV produced by an experiment run")
    summarize.add_argument("--out", required=True, help="output CSV path")
    return parser


def _flag_overrides(args: argparse.Namespace) -> dict:
    overrides = {}
    for key, raw in vars(args).items():
        if key in ("command", "config", "input") or raw is None:
            continue
        converter, description = _KEY_PARSERS[key]
        try:
            overrides[key] = converter(raw)
        except ValueError as exc:
            raise SystemExit(f"invalid value for --{key.replace('_', '-')} ({exc}); expected {description}")
    return overrides


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "summarize":
        with open(args.input, encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            if tuple(header) != experiments.HEADER:
                raise SystemExit(f"{args.input}: unexpected header {header}")
            rows = list(reader)
        experiments.write_summary(args.out, experiments.summarize_rows(rows))
        print(f"wrote {args.out}")
        return 0

    try:
        file_values = parse_config_file(args.config) if args.config else {}
        config = make_config(args.command, file_values, _flag_overrides(args))
        # resolve every (method, d) grid up front: one that no run can use
        # (say, an overflowing automatic center) is a configuration error
        for d in config.dims:
            gamma = experiments.resolve_gamma(config, d)
            for method in config.methods:
                experiments.grid_values(experiments.grid_center(config, method, d, gamma),
                                        config.grid_orders, config.grid_points_per_order)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    failures: list[str] = []  # why each run_failed row failed, in row order
    start = time.perf_counter()
    if args.command == "theorem":
        rows = experiments.run_theorem(config)
    else:
        rows = _SWEEPS[args.command](config, failures)
    elapsed = time.perf_counter() - start
    experiments.write_csv(config.out, rows)
    manifest_path = config.out + ".manifest.txt"
    experiments.write_manifest(manifest_path, config, elapsed, failures)
    print(f"wrote {config.out} ({len(rows)} rows) and {manifest_path}")
    if args.command == "theorem":
        verdicts = {row[10]: row[11] for row in rows if row[4] == ""}
        bound_ok = verdicts.get("all_seeds_pass") == "1.0"
        control_ok = verdicts.get("negative_control_all_fail") == "1.0"
        print(f"bound check: {'PASS' if bound_ok else 'FAIL'}; "
              f"negative control: {'breaks as expected' if control_ok else 'FAILED TO BREAK'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
