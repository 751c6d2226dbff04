"""The benchmark's tracer still finds every hot layer of its gated workloads.

perfbench/tracer.py wraps particleflow's functions from outside, at the
module attributes through which the experiments call them. A step function bound at import time (say, held in
a module-level dict) escapes the wrapper and records no calls, and a
`flow_update` whose first argument has no `.particles` breaks the tracer's
pair count. Both would stop the benchmark's traced run; this test runs the
same check on tiny CLI calls, among them a pose and a synthetic sweep whose
diverging grid edges fail, so that the boundaries are also checked where a
stacked call drops a failing run or a failing KL step. The perfbench
modules are loaded from their files and not modified.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

from particleflow import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")

TINY = ["--n-particles", "6", "--n-steps", "2", "--seeds", "0",
        "--grid-orders", "1", "--grid-points-per-order", "1"]


@pytest.mark.parametrize("workload, argv, fails", [
    ("synthetic_sweep", ["synthetic", "--dims", "4"] + TINY, False),
    ("pose_registration", ["pose"] + TINY, False),
    ("pose_registration", ["pose", "--n-particles", "20", "--n-steps", "30", "--seeds", "0",
                           "--grid-orders", "24", "--grid-points-per-order", "1"], True),
    # fit_error, kl_error and run_failed rows: the KL read-out drops failing
    # steps; mcl stays in, since baselines.mcl_step is a hot layer here
    ("synthetic_sweep", ["synthetic", "--dims", "4", "--n-particles", "12", "--n-steps", "20", "--seeds", "1",
                         "--method", "flow,mcl,gd", "--grid-orders", "30", "--grid-points-per-order", "1"], True),
])
def test_tracer_records_every_hot_layer(tmp_path, workload, argv, fails):
    spans = tracer.Tracer()
    spans.install()
    try:
        spans.span(tracer.ROOT, cli.main)(argv + ["--out", str(tmp_path / "out.csv")])
    finally:
        spans.uninstall()
    metrics = tracer.layer_metrics(spans.spans, spans.cholesky, 0.0)
    assert tracer.hot_without_calls(metrics, workloads.WORKLOADS[workload].hot) == []
    assert ("run_failed" in (tmp_path / "out.csv").read_text()) == fails
