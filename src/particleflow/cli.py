"""Command-line benchmark runner.

Subcommands: synthetic, pose, theorem, summarize. Each experiment takes
only the keys it reads (`config.EXPERIMENT_KEYS`), from an optional
key=value file and from flags, which win. A key's flag is `--` plus the
key with `-` for `_`; `methods` is `--method`. Any other key is rejected.
An experiment runs as `experiments.RUNNERS[name](config)`, which returns
its CSV rows and why each failed run failed. The CLI writes the rows and a
sibling manifest recording the resolved value of every key it read, its
resolved grids and those reasons; theorem also prints its verdict.
"""
from __future__ import annotations

import argparse
import csv
import sys
import time

from . import experiments
from .config import EXPERIMENT_KEYS, KEYS, make_config, parse_config_file


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
            header = next(reader, None)
            if header is None:
                raise SystemExit(f"{args.input}:1: empty file, expected the header line")
            if tuple(header) != experiments.HEADER:
                raise SystemExit(f"{args.input}: unexpected header {header}")
            try:  # rows are read as they are summarized, so line_num is the failing row's
                summary = experiments.summarize_rows(reader)
            except ValueError as exc:
                raise SystemExit(f"{args.input}:{reader.line_num}: {exc}") from None
        experiments.write_csv(args.out, summary, experiments.SUMMARY_HEADER)
        print(f"wrote {args.out}")
        return 0

    try:
        file_values = parse_config_file(args.config, args.command) if args.config else {}
        config = make_config(args.command, file_values, _flag_overrides(args))
        # resolve every (method, d) grid once, up front: one that no run can
        # use is a configuration error; the manifest records them all
        grids = experiments.grid_items(config)
        start = time.perf_counter()
        rows, failures = experiments.RUNNERS[args.command](config)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    elapsed = time.perf_counter() - start
    experiments.write_csv(config.out, rows)
    manifest_path = config.out + ".manifest.txt"
    experiments.write_manifest(manifest_path, config, elapsed, failures, grids)
    print(f"wrote {config.out} ({len(rows)} rows) and {manifest_path}")
    if args.command == "theorem":
        records = (dict(zip(experiments.HEADER, row)) for row in rows)
        verdicts = {r["metric"]: r["value"] for r in records if r["seed"] == ""}
        bound_ok = verdicts.get("all_seeds_pass") == "1.0"
        control_ok = verdicts.get("negative_control_all_fail") == "1.0"
        print(f"bound check: {'PASS' if bound_ok else 'FAIL'}; "
              f"negative control: {'breaks as expected' if control_ok else 'FAILED TO BREAK'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
