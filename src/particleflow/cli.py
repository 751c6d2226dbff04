"""Command-line benchmark runner.

Subcommands: synthetic, pose, theorem, summarize. Each experiment takes
only the keys it reads (`config.EXPERIMENT_KEYS`), from an optional
key=value file and from flags, which win. A key's flag is `--` plus the
key with `-` for `_`; `methods` is `--method`. Any other key is rejected.
Each run writes a CSV of tidy metric rows and a sibling manifest recording
the resolved value of every key it read.
"""
from __future__ import annotations

import argparse
import csv
import sys
import time

from . import experiments
from .config import EXPERIMENT_KEYS, KEYS, make_config, parse_config_file

# sweep runners; each also reports why its failed runs failed
_SWEEPS = {
    "synthetic": experiments.run_synthetic,
    "pose": experiments.run_pose,
}


def _flag(key: str) -> str:
    return "--method" if key == "methods" else "--" + key.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="particleflow", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, keys in EXPERIMENT_KEYS.items():
        sub = subparsers.add_parser(name, help=f"run the {name} experiment")
        sub.add_argument("--config", help="key=value config file ('#' comments)")
        for key in keys:
            sub.add_argument(_flag(key), dest=key, metavar="V", help=KEYS[key][2])
    summarize = subparsers.add_parser("summarize", help="aggregate a results CSV over seeds")
    summarize.add_argument("input", help="CSV produced by an experiment run")
    summarize.add_argument("--out", required=True, help="output CSV path")
    return parser


def _flag_overrides(args: argparse.Namespace) -> dict:
    overrides = {}
    for key, raw in vars(args).items():
        if key not in KEYS or raw is None:
            continue
        parser, expected, _ = KEYS[key]
        try:
            overrides[key] = parser(raw)
        except ValueError as exc:
            raise SystemExit(f"invalid value for {_flag(key)} ({exc}); expected {expected}")
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
        experiments.write_csv(args.out, experiments.summarize_rows(rows), experiments.SUMMARY_HEADER)
        print(f"wrote {args.out}")
        return 0

    try:
        file_values = parse_config_file(args.config, args.command) if args.config else {}
        config = make_config(args.command, file_values, _flag_overrides(args))
        # resolve every (method, d) grid up front: one that no run can use
        # (say, an overflowing automatic center) is a configuration error
        for d in config.dims:
            for method in config.methods:
                experiments.resolve_grid(config, method, d)
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
