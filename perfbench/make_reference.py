"""Regenerate the reference CSVs that the benchmark's output check compares against.

    python3 perfbench/make_reference.py

Runs every workload once per program seed in this interpreter, with BLAS
pinned to one thread as in the benchmark, and writes
reference/<workload>_seed<k>.csv.gz (gzip without a timestamp, so an
unchanged output gives unchanged bytes). It then reruns each with relative
noise of up to JITTER on the loss models' losses and gradients, and lists
the runs whose output moves beyond the check's tolerance in
reference/sensitive.json (see outcheck.py). Regenerate only when the
program's output is meant to change.
"""
import contextlib
import gzip
import io
import json
import os
import sys
import tempfile
from pathlib import Path

JITTER = 1e-13
JITTER_SEEDS = (1, 2)


@contextlib.contextmanager
def jittered_losses(seed: int):
    """Loss models whose loss and grad outputs carry relative noise of up to JITTER.

    The noise differs per element, so it excites every direction of the
    dynamics the way a reordered floating-point sum would.
    """
    import numpy as np
    from particleflow.losses import QuadraticProjectionLoss
    from particleflow.pose import PoseRegistrationLoss

    gen = np.random.default_rng(seed)

    def jitter(value):
        value = np.asarray(value, dtype=np.float64)
        return value * (1.0 + JITTER * gen.uniform(-1.0, 1.0, value.shape))

    saved = [(cls, name, cls.__dict__[name])
             for cls in (QuadraticProjectionLoss, PoseRegistrationLoss) for name in ("loss", "grad")]
    for cls, name, fn in saved:
        setattr(cls, name, lambda self, t, x, fn=fn: jitter(fn(self, t, x)))
    try:
        yield
    finally:
        for cls, name, fn in saved:
            setattr(cls, name, fn)


def main() -> None:
    from run import ROOT, THREAD_ENV

    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    import particleflow.cli
    from outcheck import compare, diverging_runs
    from workloads import PROGRAM_SEEDS, REFERENCE_DIR, WORKLOADS

    def output(argv, out):
        with contextlib.redirect_stdout(io.StringIO()):
            particleflow.cli.main(argv)
        return Path(out).read_text(encoding="utf-8")

    REFERENCE_DIR.mkdir(exist_ok=True)
    sensitive = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.csv")
        for workload in WORKLOADS.values():
            for seed in range(PROGRAM_SEEDS):
                argv = workload.cli_args(seed, out)
                reference = output(argv, out)
                path = workload.reference(seed)
                path.write_bytes(gzip.compress(reference.encode("utf-8"), 9, mtime=0))
                perturbed = []
                for jitter_seed in JITTER_SEEDS:
                    with jittered_losses(jitter_seed):
                        perturbed.append(output(argv, out))
                keys = set().union(*(diverging_runs(p, reference) for p in perturbed))
                if keys:
                    sensitive[path.name] = sorted(",".join(key) for key in keys)
                for text in perturbed:
                    problems = compare(text, reference, frozenset(keys)).problems
                    if problems:
                        raise SystemExit(f"{path.name}: jitter of {JITTER:g} fails the check: {problems}")
                print(f"wrote {path.relative_to(ROOT)} ({len(reference)} bytes, "
                      f"{len(keys)}/{workload.runs} runs sensitive to last bits)")
    with open(REFERENCE_DIR / "sensitive.json", "w", encoding="utf-8") as handle:
        json.dump(sensitive, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
