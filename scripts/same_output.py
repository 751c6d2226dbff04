#!/usr/bin/env python3
"""Check that the working tree writes the same CSVs and manifests as another revision.

    python3 scripts/same_output.py BASE_REV

Runs every `configs/*.cfg` protocol with `--seeds 0,1`, plus four
error-path sweeps (one of single-particle `fit_error` rows, one each of
diverging synthetic and pose runs, and one of flow runs whose kernel
powers overflow at d=3 and d=50), once from a checkout of BASE_REV
(`git archive` into a temporary directory) and once from the working
tree. Each pair of CSVs is compared byte for byte, and each pair of
manifests line for line without its `#` header lines (timestamp and
elapsed time) and its `out=` line (the two trees write to different
paths). One verdict per file is printed, and the exit status is 1 if any
pair differs or a run fails. A differing CSV pair also gets its row
counts, how many rows match on run, step and metric, the largest
relative deviation of the ridge and value columns over the matched rows,
and whether both hold the same run_failed rows (same run and step). A
differing manifest pair gets every line only in BASE_REV's manifest
(`-`) and every line only in the working tree's (`+`).
"""
import csv
import difflib
import io
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# (output name, CLI arguments) of the error-path sweeps
ERROR_PATHS = [
    # n=1 runs: every step is a fit_error row (1260 of them)
    ("fit_error", ["synthetic", "--dims", "4,10", "--n-particles", "1,12", "--n-steps", "6",
                   "--seeds", "0,1", "--method", "flow,mcl,gd", "--grid-orders", "14",
                   "--grid-points-per-order", "1"]),
    # synthetic grid edges that diverge: 14 run_failed rows, and 124 fits whose
    # covariance overflowed (fit_error rows; kl_error rows before non-finite
    # Gaussians were rejected at construction)
    ("synthetic_failure", ["synthetic", "--dims", "4", "--n-particles", "12", "--n-steps", "20",
                           "--seeds", "0,1", "--method", "flow,mcl,gd", "--grid-orders", "30",
                           "--grid-points-per-order", "1"]),
    # pose grid edges that diverge: 28 run_failed rows, some of them at a mean
    # pose whose rotation vector overflowed
    ("pose_failure", ["pose", "--n-particles", "20", "--n-steps", "30", "--seeds", "0,1",
                      "--grid-orders", "24", "--grid-points-per-order", "1"]),
    # flow grid edges whose clouds pass the kernel's power-overflow threshold
    # float_max**(2/d) at both ends of d/2 (d=6 and d=10 are the configs'),
    # with no run_failed rows
    ("flow_overflow", ["synthetic", "--dims", "3,50", "--n-particles", "12", "--n-steps", "20",
                       "--seeds", "0,1", "--method", "flow", "--grid-orders", "12",
                       "--grid-points-per-order", "1"]),
]


def commands() -> list[tuple[str, list[str]]]:
    """(output name, CLI arguments) of every compared run."""
    runs = []
    for cfg in sorted((REPO / "configs").glob("*.cfg")):
        experiment = cfg.stem.split("_")[0]  # synthetic_d10.cfg -> synthetic
        runs.append((cfg.stem, [experiment, "--config", str(cfg), "--seeds", "0,1"]))
    return runs + ERROR_PATHS


# the columns that name one row: run, step and metric (ridge is data, not key)
ROW_KEY = ("experiment", "method", "d", "n", "seed", "eta", "epsilon", "gamma", "step", "metric")


def _explain(left: bytes, right: bytes) -> str:
    """Why two result CSVs differ: how many rows each holds and how many
    match on ROW_KEY, the largest relative deviation of ridge and value over
    the matched rows, and whether their run_failed rows name the same runs
    and steps."""
    def parse(data: bytes) -> tuple[int, dict]:
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        return len(rows), {tuple(row[k] for k in ROW_KEY): row for row in rows}

    base_count, base_rows = parse(left)
    work_count, work_rows = parse(right)
    shared = base_rows.keys() & work_rows.keys()
    deviation = 0.0
    for key in shared:
        for field in ("ridge", "value"):
            a, b = base_rows[key][field], work_rows[key][field]
            if a == b:
                continue
            try:
                a, b = float(a), float(b)
            except ValueError:  # one side empty (an error row)
                a, b = math.inf, 0.0
            gap = abs(a - b)
            if gap != 0.0:  # nan if either side is nan
                deviation = max(deviation, gap / max(abs(a), abs(b)) if math.isfinite(gap) else math.inf)
    base_failed = {key for key in base_rows if key[-1] == "run_failed"}
    work_failed = {key for key in work_rows if key[-1] == "run_failed"}
    if base_failed == work_failed:
        failed = f"same run_failed rows ({len(base_failed)})"
    else:
        failed = (f"run_failed rows DIFFER ({len(base_failed - work_failed)} only in base, "
                  f"{len(work_failed - base_failed)} only in work)")
    return (f"{base_count} base rows, {work_count} work rows, {len(shared)} matched; "
            f"max relative deviation of ridge and value {deviation:.3g}; {failed}")


def _manifest_lines(path: Path) -> list[str]:
    """A manifest's lines without the `#` header lines and the `out=` line."""
    return [line for line in path.read_text(encoding="utf-8").splitlines()
            if not line.startswith("#") and not line.startswith("out=")]


def _compare_manifests(left: Path, right: Path) -> str:
    """'identical', or every line only in the base manifest (`-`) and every
    line only in the work manifest (`+`), one per line, from a zero-context
    diff."""
    diff = list(difflib.unified_diff(_manifest_lines(left), _manifest_lines(right), n=0, lineterm=""))
    changed = [line for line in diff[2:] if not line.startswith("@@")]  # past the ---/+++ header
    if not changed:
        return "identical"
    return "DIFFERENT:\n" + "\n".join(f"  {line}" for line in changed)


def run_all(tree: Path, out_dir: Path) -> dict[str, str | None]:
    """Run every command with tree/src first on the path; name -> error or None."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    # one BLAS thread on both sides, so reduction order cannot differ between them
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    out_dir.mkdir(parents=True)
    errors = {}
    for name, args in commands():
        proc = subprocess.run(
            [sys.executable, "-m", "particleflow", *args, "--out", str(out_dir / f"{name}.csv")],
            cwd=out_dir, env=env, capture_output=True, text=True,
        )
        errors[name] = None if proc.returncode == 0 else (proc.stderr.strip().splitlines() or ["?"])[-1]
    return errors


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        raise SystemExit("usage: python3 scripts/same_output.py BASE_REV")
    base_rev = argv[0]
    tmp = Path(tempfile.mkdtemp(prefix="same_output_"))
    try:
        base = tmp / "base"
        base.mkdir()
        archive = subprocess.run(["git", "-C", str(REPO), "archive", base_rev], capture_output=True)
        if archive.returncode != 0:
            raise SystemExit(f"git archive {base_rev}: {archive.stderr.decode().strip()}")
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive.stdout, check=True)
        base_errors = run_all(base, tmp / "out_base")
        work_errors = run_all(REPO, tmp / "out_work")
        differ = manifests_differ = 0
        for name, _ in commands():
            if base_errors[name] or work_errors[name]:
                verdict = manifest = f"run failed (base: {base_errors[name]}; work: {work_errors[name]})"
            else:
                left = (tmp / "out_base" / f"{name}.csv").read_bytes()
                right = (tmp / "out_work" / f"{name}.csv").read_bytes()
                verdict = "identical" if left == right else f"DIFFERENT: {_explain(left, right)}"
                manifest = _compare_manifests(tmp / "out_base" / f"{name}.csv.manifest.txt",
                                              tmp / "out_work" / f"{name}.csv.manifest.txt")
            differ += verdict != "identical"
            manifests_differ += manifest != "identical"
            print(f"{name}.csv: {verdict}")
            print(f"{name}.csv.manifest.txt: {manifest}")
        total = len(commands())
        print(f"{total - differ} of {total} CSVs and {total - manifests_differ} of {total} "
              f"manifests identical to {base_rev}")
        return 1 if differ or manifests_differ else 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
