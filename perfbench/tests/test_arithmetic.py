"""Tests for the benchmark's own arithmetic: self time, rates, output-check tolerance.

    python3 -m pytest perfbench/tests
"""
import gzip
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import outcheck  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _span(name, start, end, parent, work=0):
    return [name, start, end, parent, work]


# cli.main [0, 10]
#   flow.flow_update [1, 4]       work 6 pairs (n = 3)
#     flow.evaluate_losses [1.5, 2.5]
#   metrics.kl_gaussians [5, 9]
#     metrics.fit_gaussian [5, 6]
#     metrics.fit_gaussian [6.5, 7]
#   flow.flow_update [9, 9.5]     work 2 pairs (n = 2)
TREE = [
    _span("cli.main", 0.0, 10.0, -1),
    _span("flow.flow_update", 1.0, 4.0, 0, 6),
    _span("flow.evaluate_losses", 1.5, 2.5, 1),
    _span("metrics.kl_gaussians", 5.0, 9.0, 0),
    _span("metrics.fit_gaussian", 5.0, 6.0, 3),
    _span("metrics.fit_gaussian", 6.5, 7.0, 3),
    _span("flow.flow_update", 9.0, 9.5, 0, 2),
]


def test_self_time_subtracts_direct_children_only():
    assert tracer.self_times(TREE) == pytest.approx([2.5, 2.0, 1.0, 2.5, 1.0, 0.5, 0.5])


def test_layer_metrics_on_nested_tree():
    m = tracer.layer_metrics(TREE, {"metrics.kl_gaussians": 4, "losses.exact_posterior": 3}, 9.0)
    assert m["flow.flow_update.calls"] == (2, "count")
    assert m["flow.flow_update.self_s"][0] == pytest.approx(2.5)
    assert m["metrics.fit_gaussian.calls"][0] == 2
    assert m["metrics.fit_gaussian.self_s"][0] == pytest.approx(1.5)
    assert m["experiments.driver.self_s"][0] == pytest.approx(2.5)
    # 2.5 s of flow_update self time over 6 + 2 pairs
    assert m["flow.flow_update.ns_per_pair"][0] == pytest.approx(2.5e9 / 8)
    assert m["flow.flow_update.call_ms.p50"][0] == pytest.approx(1750.0)
    # Cholesky calls outside the metric layer are not the metric layer's
    assert m["metrics.cholesky.calls"][0] == 4
    assert m["metrics.kl_gaussians.cholesky_per_kl"][0] == 4
    assert m["cli.main.traced_s"][0] == pytest.approx(10.0)
    assert m["trace.overhead_s"][0] == pytest.approx(1.0)
    selfs = sum(v for k, (v, _) in m.items() if k.endswith(".self_s"))
    assert selfs == pytest.approx(m["cli.main.traced_s"][0])


def test_layer_metrics_are_per_root_call():
    shifted = [[n, s + 10.0, e + 10.0, p + 7 if p >= 0 else -1, w] for n, s, e, p, w in TREE]
    m = tracer.layer_metrics(TREE + shifted, {}, 10.0)
    assert m["flow.flow_update.calls"][0] == 2
    assert m["flow.flow_update.self_s"][0] == pytest.approx(2.5)
    assert m["cli.main.traced_s"][0] == pytest.approx(10.0)


def test_layer_metrics_reject_a_foreign_root():
    with pytest.raises(ValueError):
        tracer.layer_metrics([_span("flow.flow_update", 0.0, 1.0, -1)], {}, 1.0)


def test_percentile_interpolates():
    assert tracer.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert tracer.percentile([1.0, 2.0], 99) == pytest.approx(1.99)
    assert tracer.percentile([7.0], 99) == 7.0


def test_hot_layer_without_calls_is_flagged():
    m = tracer.layer_metrics(TREE, {}, 10.0)
    assert tracer.hot_without_calls(m, ("flow.flow_update", "metrics.kl_gaussians")) == []
    assert tracer.hot_without_calls(m, ("pose.mean_pose",)) == ["pose.mean_pose"]


def test_missing_boundary_is_named(monkeypatch):
    monkeypatch.setitem(tracer.BOUNDARIES, "flow.gone", ("particleflow.flow", "no_such_function"))
    t = tracer.Tracer()
    with pytest.raises(tracer.MissingBoundary, match="flow.gone"):
        t.install()
    assert t._installed == []


def test_particle_steps_per_s():
    w = WORKLOADS["synthetic_sweep"]
    # 2 methods x 11 grid points x 1 seed x n=100 x 50 steps
    assert w.runs == 22
    assert w.particle_steps == 110_000
    assert run.particle_steps_per_s(w.particle_steps, 2.0) == 55_000.0
    assert WORKLOADS["flow_large_n"].particle_steps == 2 * 2048 * 3
    m = run.end_to_end_metrics(w, [1.0, 2.0, 4.0], [0.5, 0.7, 0.6], 90.0, 4)
    assert m["wall_s"][0] == 2.0
    assert m["particle_steps_per_s"][0] == 55_000.0
    assert m["setup_s"][0] == 0.6
    assert m["completed_run_share"][0] == pytest.approx(1 - 4 / 22)


def _reference_text():
    path = WORKLOADS["pose_registration"].reference(0)
    with gzip.open(path, "rt", encoding="utf-8", newline="") as handle:
        return handle.read()


def _perturb(text, line_index, column, factor):
    lines = text.split("\n")
    column = lines[0].split(",").index(column)
    fields = lines[line_index].split(",")
    fields[column] = repr(float(fields[column]) * factor)
    lines[line_index] = ",".join(fields)
    return "\n".join(lines)


def test_reference_matches_itself_byte_for_byte():
    ref = _reference_text()
    check = outcheck.compare(ref, ref)
    assert check.ok and check.byte_identical and check.max_rel_dev == 0.0
    assert check.failed_runs == 4


def test_last_bit_changes_pass_but_are_not_byte_identical():
    ref = _reference_text()
    check = outcheck.compare(_perturb(ref, 5, "value", 1 + 1e-12), ref)
    assert check.ok and not check.byte_identical
    assert 0 < check.max_rel_dev < outcheck.RTOL


def test_value_outside_tolerance_fails():
    ref = _reference_text()
    check = outcheck.compare(_perturb(ref, 5, "value", 1 + 10 * outcheck.RTOL), ref)
    assert not check.ok
    assert check.problems[0].startswith("run ('flow', '0', ")


def test_changed_best_selection_and_failed_set_fail():
    ref = _reference_text()
    lines = ref.split("\n")
    best = next(i for i, line in enumerate(lines) if ",best_" in line)
    check = outcheck.compare(_perturb(ref, best, "eta", 10 ** 0.5), ref)
    assert any("best_* selection differs" in p for p in check.problems)
    failed = next(i for i, line in enumerate(lines) if ",run_failed," in line)
    dropped = "\n".join(lines[:failed] + lines[failed + 1:])
    check = outcheck.compare(dropped, ref)
    assert any("run_failed set differs" in p for p in check.problems)
    assert check.failed_runs == 3


def _run_key(line):
    fields = line.split(",")
    return (fields[1], fields[4], fields[5], fields[6])


def test_sensitive_runs_skip_values_but_not_layout():
    ref = _reference_text()
    lines = ref.split("\n")
    key = _run_key(lines[5])
    moved = _perturb(ref, 5, "value", 2.0)
    assert outcheck.diverging_runs(moved, ref) == {key}
    assert outcheck.compare(moved, ref, frozenset({key})).ok
    retimed = moved.replace(",5,trans_err_cm,", ",6,trans_err_cm,", 1)
    assert not outcheck.compare(retimed, ref, frozenset({key})).ok


def test_sensitive_failed_run_may_fail_at_another_step():
    ref = _reference_text()
    lines = ref.split("\n")
    failed = next(i for i, line in enumerate(lines) if ",run_failed," in line)
    key = _run_key(lines[failed])
    earlier = "\n".join(lines[:failed - 2] + lines[failed:])  # one step fewer before failing
    assert not outcheck.compare(earlier, ref).ok
    assert outcheck.compare(earlier, ref, frozenset({key})).ok


def test_reported_metrics_match_benchmark_json():
    import json

    with open(Path(__file__).resolve().parents[2] / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    traced = tracer.layer_metrics(TREE, {}, 10.0)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == [
        (name, unit) for name, (_, unit) in traced.items()]
    e2e = run.end_to_end_metrics(WORKLOADS["flow_large_n"], [1.0], [0.5], 90.0, 0)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == [
        (name, v[1]) for name, v in e2e.items()]
    assert {w["name"] for w in declared["workloads"]} <= set(WORKLOADS)
