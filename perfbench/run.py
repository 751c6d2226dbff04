"""particleflow benchmark: end-to-end timings per workload, or a traced per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measurement runs in a fresh child interpreter (child.py) with BLAS
pinned to one thread. With `--trace 0` the benchmark reports the
end-to-end metrics: the median CLI wall time over the calls made in S
seconds, the work rate, the median set-up time of SETUP_SAMPLES fresh
interpreters, the child's peak RSS and the share of runs that complete.
With `--trace 1` it reports the per-layer split of traced CLI calls.
Each CLI call's CSV is checked against the reference for its seed; a call
that fails the check counts as failed and its timing is not used. The last
stdout line is one JSON object with the keys correct, attempted, failed
and metrics. See README.md for the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from outcheck import ATOL, RTOL
from workloads import WORKLOADS, program_seed

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 7
DEADLINE_S = 170.0


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def particle_steps_per_s(particle_steps: int, wall_s: float) -> float:
    return particle_steps / wall_s


def end_to_end_metrics(workload, walls, setups, peak_rss_mb, failed_runs) -> dict:
    """{name: (value, unit, (q1, median, q3), samples)} for the timed, checked calls."""
    rates = [particle_steps_per_s(workload.particle_steps, w) for w in walls]
    share = 1.0 - failed_runs / workload.runs
    return {
        "wall_s": (statistics.median(walls), "s", quartiles(walls), len(walls)),
        "particle_steps_per_s": (statistics.median(rates), "1/s", quartiles(rates), len(rates)),
        "setup_s": (statistics.median(setups), "s", quartiles(setups), len(setups)),
        "peak_rss_mb": (peak_rss_mb, "MB", (peak_rss_mb,) * 3, 1),
        "completed_run_share": (share, "ratio", (share,) * 3, 1),
    }


def _child(mode, workload, seed, seconds, tmpdir, deadline) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    timeout = max(1.0, deadline - time.monotonic())
    argv = [sys.executable, str(CHILD), mode, repr(time.monotonic()), workload, str(seed), repr(seconds), tmpdir]
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark child ({mode}) failed with code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(child_env: dict) -> dict:
    """Machine, library and source facts recorded with every result."""
    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((ROOT / "src" / "particleflow").glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        **child_env,
        "child_thread_env": THREAD_ENV,
        "git_commit": commit,
        "src_particleflow_lines": lines,
    }


def _checked(calls):
    """Wall times of calls that passed the output check, and the failures."""
    failures = [c for c in calls if not c["ok"]]
    return [c["wall_s"] for c in calls if c["ok"]], failures


def _report_calls(calls) -> None:
    failures = _checked(calls)[1]
    identical = sum(c["byte_identical"] for c in calls)
    worst = max(c["max_rel_dev"] for c in calls)
    print(f"output check: {len(calls) - len(failures)}/{len(calls)} calls pass "
          f"(rtol {RTOL:g}, atol {ATOL:g}); byte-identical {identical}/{len(calls)}; "
          f"max relative deviation {worst:.3g}")
    for c in failures[:3]:
        print("  FAILED:", "; ".join(c["problems"]))


def run_end_to_end(workload, seed, seconds, tmpdir, deadline):
    setups = [_child("setup", workload.name, seed, 0, tmpdir, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    child = _child("measure", workload.name, seed, seconds, tmpdir, deadline)
    setups.append(child["setup_s"])
    calls = child["warmup"] + child["calls"]
    walls, failures = _checked(child["calls"])
    failures += _checked(child["warmup"])[1]
    _report_calls(calls)
    if not walls:
        raise SystemExit("no CLI call passed the output check; nothing to report")
    failed_runs = next(c["failed_runs"] for c in child["calls"] if c["ok"])
    metrics = end_to_end_metrics(workload, walls, setups, child["peak_rss_mb"], failed_runs)
    print(f"warm-up call (checked, not timed): {child['warmup'][0]['wall_s']:.4f} s")
    print("timed calls (s): " + " ".join(f"{w:.4f}" for w in walls))
    print(f"{'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}{'n':>5}  unit")
    for name, (value, unit, (q1, _, q3), count) in metrics.items():
        print(f"{name:<22}{value:>14.6g}{q1:>14.6g}{q3:>14.6g}{count:>5}  {unit}")
    print(f"failed_run_share{1.0 - metrics['completed_run_share'][0]:>20.6g}  ratio "
          f"(run_failed rows / {workload.runs} runs attempted)")
    return child, len(calls), len(failures), {k: (v[0], v[1]) for k, v in metrics.items()}


def run_traced(workload, seed, seconds, tmpdir, deadline):
    from tracer import hot_without_calls, layer_metrics

    child = _child("trace", workload.name, seed, seconds, tmpdir, deadline)
    calls = child["warmup"] + child["calls"] + child["traced_calls"]
    failures = _checked(calls)[1]
    untraced, _ = _checked(child["calls"])
    _report_calls(calls)
    if not untraced:
        raise SystemExit("no untraced CLI call passed the output check; nothing to report")
    with open(os.path.join(tmpdir, "spans.json"), encoding="utf-8") as handle:
        trace = json.load(handle)
    metrics = layer_metrics(trace["spans"], trace["cholesky"], statistics.median(untraced))
    traced_s = metrics["cli.main.traced_s"][0]
    print(f"traced calls: {len(child['traced_calls'])}; per-call figures below")
    print(f"{'metric':<46}{'value':>14}  unit   share of cli.main.traced_s")
    for name, (value, unit) in metrics.items():
        share = f"{100.0 * value / traced_s:6.2f}%" if name.endswith("self_s") else ""
        print(f"{name:<46}{value:>14.6g}  {unit:<6} {share}")
    layers = {}
    for name, (value, _) in metrics.items():
        if name.endswith(".self_s"):
            layers[name.split(".")[0]] = layers.get(name.split(".")[0], 0.0) + value
    print("by module: " + ", ".join(f"{k} {100.0 * v / traced_s:.1f}%" for k, v in layers.items()))
    cold = hot_without_calls(metrics, workload.hot)
    if cold:
        raise SystemExit(f"FLAG: hot layers recorded no calls on {workload.name}: {cold}")
    return child, len(calls), len(failures), metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    workload = WORKLOADS[args.workload]
    seed = program_seed(args.seed)
    if not (ROOT / "src" / "particleflow" / "cli.py").is_file():
        raise SystemExit(f"no particleflow sources under {ROOT / 'src'}; run from a full checkout")
    if not workload.reference(seed).is_file():
        raise SystemExit(f"missing reference output {workload.reference(seed)}")

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=scratch)
    try:
        runner = run_traced if args.trace else run_end_to_end
        child, attempted, failed, metrics = runner(workload, seed, args.seconds, tmpdir, deadline)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    print(f"workload {workload.name}: benchmark seed {args.seed} -> program seed {seed}; "
          f"{workload.particle_steps} particle-steps per call")
    print("environment: " + json.dumps(environment(child["environment"])))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
