import gc

import numpy as np
import pytest

from particleflow import experiments
from particleflow.config import make_config
from particleflow.experiments import (
    HEADER,
    SELECTION_METRIC,
    Measure,
    _sweep,
    auto_grid_center,
    grid_values,
    resolve_grid,
    run_pose,
    run_synthetic,
    run_theorem,
)
from particleflow.flow import gradient_coefficient

from reference import per_step_kl_measure, runs_one_by_one


def records(rows):
    return [dict(zip(HEADER, r)) for r in rows]


@pytest.fixture(scope="module")
def small_synthetic():
    cfg = make_config("synthetic", overrides={
        "dims": (4,), "n_particles": (16,), "n_steps": 8, "seeds": (0, 1),
        "grid_orders": 2, "grid_points_per_order": 1,
    })
    return cfg, records(run_synthetic(cfg)[0])


def test_synthetic_emits_all_metrics_each_step(small_synthetic):
    cfg, rows = small_synthetic
    flow_ok = [r for r in rows if r["method"] == "flow" and r["status"] == "ok"
               and not r["metric"].startswith("best_")]
    steps = {int(r["step"]) for r in flow_ok}
    assert steps == set(range(cfg.n_steps + 1))
    metrics = {r["metric"] for r in flow_ok}
    assert metrics == {"kl_fit_vs_expected", "kl_expected_vs_fit",
                       "kl_fit_vs_exact", "kl_exact_vs_fit"}
    ridges = {r["ridge"] for r in flow_ok}
    assert all(float(r) > 0 for r in ridges)


def test_synthetic_best_row_matches_rescan(small_synthetic):
    cfg, rows = small_synthetic
    for method in cfg.methods:
        hyper = "eta" if method in ("flow", "gd") else "epsilon"
        summary = [r for r in rows if r["method"] == method
                   and r["metric"].startswith("best_")]
        assert len(summary) == 1
        summary = summary[0]
        assert summary["status"] == "ok"
        # independent re-scan of the per-step rows
        finals = {}
        for r in rows:
            if (r["method"] == method and r["metric"] == SELECTION_METRIC
                    and r["step"] == str(cfg.n_steps) and r["status"] == "ok"):
                finals.setdefault(r[hyper], []).append(float(r["value"]))
        means = {h: np.mean(v) for h, v in finals.items() if len(v) == len(cfg.seeds)}
        best_hyper = min(means, key=means.get)
        assert summary[hyper] == best_hyper
        assert float(summary["value"]) == pytest.approx(means[best_hyper], rel=1e-12)


def test_single_particle_flow_emits_fit_error_rows():
    cfg = make_config("synthetic", overrides={
        "dims": (3,), "n_particles": (1,), "n_steps": 3, "seeds": (0,),
        "methods": ("flow",), "grid_orders": 1, "grid_points_per_order": 1,
    })
    rows = records(run_synthetic(cfg)[0])
    fit_errors = [r for r in rows if r["status"] == "fit_error"]
    assert len(fit_errors) > 0
    assert all(r["metric"] == "fit_gaussian" for r in fit_errors)
    # the sweep still completes and reports a (failed) best-setting row
    assert any(r["metric"].startswith("best_") and r["status"] == "error" for r in rows)


def test_diverging_grid_points_recorded_but_sweep_continues():
    cfg = make_config("synthetic", overrides={
        "dims": (4,), "n_particles": (8,), "n_steps": 60, "seeds": (0,),
        "methods": ("gd",), "grid_center": 1e6, "grid_orders": 2,
        "grid_points_per_order": 1,
    })
    rows = records(run_synthetic(cfg)[0])
    assert any(r["status"] == "error" and r["metric"] == "run_failed" for r in rows)
    assert any(r["status"] == "ok" for r in rows)


class _NanGradientBowl:
    """Loss |x|^2 / 2 whose gradient is NaN from step index `nan_from` on."""

    def __init__(self, nan_from):
        self.nan_from = nan_from

    def loss(self, step_index, x):
        return 0.5 * np.sum(x * x, axis=1)

    def grad(self, step_index, x):
        return x * (np.nan if step_index >= self.nan_from else 1.0)


@pytest.mark.parametrize("failing", ["measure", "stepping"])
def test_sweep_run_failed_row_names_the_failing_step(failing):
    k = 3
    cfg = make_config("synthetic", overrides={
        "dims": (3,), "n_particles": (4,), "n_steps": 6, "seeds": (0,), "methods": ("gd",),
        "grid_center": 0.1, "grid_orders": 1, "grid_points_per_order": 1,
    })

    def observe(step, particles):
        if failing == "measure" and step == k:
            raise ValueError("measurement failed")
        if particles.ndim == 3:  # a stack: one observation per member
            return [observe(step, x) for x in particles]
        return float(np.sum(particles * particles))

    measure = Measure(observe, lambda observed: [("", str(step), "loss", repr(v), "ok") for step, v in observed])
    # a failing observe names the step it observed; a failing stepping
    # call names the step it was making
    problem = _NanGradientBowl(k if failing == "stepping" else np.inf)
    expected = k if failing == "measure" else k + 1
    init = np.random.default_rng(0).standard_normal((4, 3))
    rows, failures = _sweep(cfg, lambda d, n, seed: (problem, init, measure), "loss")
    rows = records(rows)
    failed = [r for r in rows if r["metric"] == "run_failed"]
    assert [int(r["step"]) for r in failed] == [expected, expected]  # one per grid point
    assert all(f" step={expected}: " in line for line in failures) and len(failures) == 2
    measured = sorted({int(r["step"]) for r in rows if r["metric"] == "loss"})
    assert measured == list(range(k + (failing == "stepping")))


def test_per_run_measure_keeps_the_rows_of_a_per_step_measure(monkeypatch):
    # n=1 runs give fit_error steps; at seed 1 the flow at eta=9869604401.089361
    # and gd at eta=1e9 overflow a KL at step 17 (kl_error); the diverging grid
    # edges fail mid-run (run_failed)
    cfg = make_config("synthetic", overrides={
        "dims": (4,), "n_particles": (1, 12), "n_steps": 20, "seeds": (1,),
        "methods": ("flow", "gd"), "grid_orders": 30, "grid_points_per_order": 1,
    })
    rows, failures = run_synthetic(cfg)
    monkeypatch.setattr(experiments, "_kl_measure", per_step_kl_measure)
    reference_rows, reference_failures = run_synthetic(cfg)
    kl_errors = [(r["method"], r["eta"], r["step"]) for r in records(rows) if r["status"] == "kl_error"]
    assert kl_errors == [("flow", "9869604401.089361", "17"), ("gd", "1000000000.0", "17")]
    statuses = {r["status"] for r in records(rows)}
    assert {"fit_error", "kl_error", "error"} <= statuses
    assert any(r["metric"] == "run_failed" and int(r["step"]) < 20 for r in records(rows))
    value = HEADER.index("value")
    # run, step, metric and status of every row, in order; ridge bit for bit
    assert [r[:value] + r[value + 1:] for r in rows] == [r[:value] + r[value + 1:] for r in reference_rows]
    assert failures == reference_failures
    for row, reference in zip(rows, reference_rows):
        if row[value] != reference[value]:
            assert float(row[value]) == pytest.approx(float(reference[value]), rel=1e-12)


# the synthetic sweep whose diverging grid edges fail their steps, their
# Gaussian fits (a covariance that overflowed) and two KLs
SYNTHETIC_FAILURE = make_config("synthetic", overrides={
    "dims": (4,), "n_particles": (12,), "n_steps": 20, "seeds": (0, 1),
    "methods": ("flow", "mcl", "gd"), "grid_orders": 30, "grid_points_per_order": 1,
})


def record_stacked_calls(monkeypatch) -> list:
    """Record each call `_lockstep` makes as (name, shape): name is observe
    or advance, shape that of the particles given. Also asserts that
    advance gets one value per member."""
    calls, lockstep = [], experiments._lockstep

    def recorded(advance, values, init, observe, n_steps):
        def observed(step, particles):
            calls.append(("observe", particles.shape))
            return observe(step, particles)

        def advanced(ensemble, etas):
            assert np.shape(etas) == ensemble.particles.shape[:1]
            calls.append(("advance", ensemble.particles.shape))
            return advance(ensemble, etas)

        return lockstep(advanced, values, init, observed, n_steps)

    monkeypatch.setattr(experiments, "_lockstep", recorded)
    return calls


def assert_only_stacks(calls, n, d):
    """Every recorded call got a stack of (n, d) members, and some got fewer
    members than the grid has: the stacks dropped runs that failed."""
    assert calls and all(len(shape) == 3 and shape[1:] == (n, d) for _, shape in calls)
    assert len({shape[0] for _, shape in calls}) > 1


@pytest.mark.parametrize("method, center, failure", [
    # the top grid point's step fails (a non-finite gradient)
    ("gd", 0.20833333333333334, "eta=2.0833333333333335 step=27: non-finite gradient for particle 0 at step 26"),
    # the top grid point's observe fails (its mean rotation vector overflows)
    ("flow", 105834.75773542335, "eta=1058347.5773542335 step=26: rotation-vector norm overflowed to inf"),
])
def test_a_failing_grid_run_leaves_the_others_their_single_run_rows(monkeypatch, method, center, failure):
    cfg = make_config("pose", overrides={
        "n_particles": (20,), "n_steps": 30, "seeds": (0,), "methods": (method,),
        "grid_center": center, "grid_orders": 2, "grid_points_per_order": 1,
    })
    calls = record_stacked_calls(monkeypatch)
    rows, failures = run_pose(cfg)
    assert_only_stacks(calls, 20, 6)
    assert len(failures) == 1 and failure in failures[0]
    failed = [r for r in records(rows) if r["metric"] == "run_failed"]
    assert len(failed) == 1 and f"step={failed[0]['step']}:" in failures[0]
    survivors = {r["eta"] for r in records(rows) if r["step"] == "30" and r["seed"] == "0"}
    assert len(survivors) == 2
    monkeypatch.setattr(experiments, "_lockstep", runs_one_by_one)
    assert run_pose(cfg) == (rows, failures)


def test_lockstep_sweep_keeps_the_rows_of_single_runs(monkeypatch):
    # every method, 5 particles (not a multiple of 4), and diverging grid
    # edges whose runs fail at different steps while the others go on
    cfg = make_config("synthetic", overrides={
        "dims": (4,), "n_particles": (5,), "n_steps": 20, "seeds": (0, 1),
        "methods": ("flow", "mcl", "gd"), "grid_orders": 30, "grid_points_per_order": 1,
    })
    calls = record_stacked_calls(monkeypatch)
    rows, failures = run_synthetic(cfg)
    assert_only_stacks(calls, 5, 4)
    assert len({line.split(" step=")[1].split(":")[0] for line in failures}) > 1
    monkeypatch.setattr(experiments, "_lockstep", runs_one_by_one)
    assert run_synthetic(cfg) == (rows, failures)


@pytest.mark.parametrize("experiment, read_out", [("synthetic", "fit_gaussian"), ("pose", "mean_pose")])
def test_each_step_of_a_grid_is_read_out_in_one_call(monkeypatch, experiment, read_out):
    # no run fails, so each (method, seed, step) reads its whole stack once
    cfg = make_config(experiment, overrides={
        "n_particles": (6,), "n_steps": 4, "seeds": (0, 1), "grid_orders": 2, "grid_points_per_order": 1,
        **({"dims": (4,)} if experiment == "synthetic" else {}),
    })
    shapes = []
    original = getattr(experiments, read_out)

    def counted(particles):
        shapes.append(particles.shape)
        return original(particles)

    monkeypatch.setattr(experiments, read_out, counted)
    _, failures = experiments.RUNNERS[experiment](cfg)
    assert failures == [] and len(cfg.methods) == 2
    d = 4 if experiment == "synthetic" else 6
    assert shapes == [(3, 6, d)] * (len(cfg.methods) * len(cfg.seeds) * (cfg.n_steps + 1))


def test_a_failing_fit_drops_its_member_from_the_stacked_fit(monkeypatch):
    # a run whose covariance overflowed stays live with fit_error rows; its
    # step's fit is made again on the stack of the others, never member by
    # member: one stacked fit per observed step, plus one per fit_error row
    calls = record_stacked_calls(monkeypatch)
    fits = []
    fit = experiments.fit_gaussian

    def recorded(particles):
        fits.append(particles.shape)
        return fit(particles)

    monkeypatch.setattr(experiments, "fit_gaussian", recorded)
    rows, _ = run_synthetic(SYNTHETIC_FAILURE)
    fit_errors = sum(row[-1] == "fit_error" for row in rows)
    observed = sum(name == "observe" for name, _ in calls)
    assert fit_errors > 0 and all(len(shape) == 3 for shape in fits)
    assert len(fits) == observed + fit_errors


def test_a_failing_kl_drops_its_step_from_the_runs_stacked_kls(monkeypatch):
    # the two kl_error steps leave their run's four stacked KL series, which
    # are made again on the other steps; no step is measured on its own
    shapes = []
    kl = experiments.kl_gaussians

    def recorded(p, q):
        shapes.append((p.mean.ndim, q.mean.ndim))
        return kl(p, q)

    monkeypatch.setattr(experiments, "kl_gaussians", recorded)
    rows, _ = run_synthetic(SYNTHETIC_FAILURE)
    assert sum(row[-1] == "kl_error" for row in rows) == 2
    assert shapes == [(2, 2)] * 746


def test_sweeps_with_failing_runs_leave_no_reference_cycles():
    pose = make_config("pose", overrides={
        "n_particles": (20,), "n_steps": 30, "seeds": (0,), "methods": ("flow",),
        "grid_center": 105834.75773542335, "grid_orders": 2, "grid_points_per_order": 1,
    })
    gc.collect()
    gc.disable()
    try:
        assert run_synthetic(SYNTHETIC_FAILURE)[1] and run_pose(pose)[1]
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_header_exact():
    assert ",".join(HEADER) == (
        "experiment,method,d,n,seed,eta,epsilon,gamma,ridge,step,metric,value,status"
    )


def test_auto_centers_scale_with_kernel_coefficient():
    for d, gamma in [(4, 0.5), (10, 0.5), (50, 2.0)]:
        center = auto_grid_center("flow", "synthetic", d, gamma)
        assert center == pytest.approx(1.0 / gradient_coefficient(d, gamma), rel=1e-12)
    assert auto_grid_center("mcl", "synthetic", 10, 0.5) == 0.1
    assert auto_grid_center("gd", "synthetic", 10, 0.5) == 1.0
    pose_center = auto_grid_center("gd", "pose", 6, 8.0, sigma=0.01, n_points=10)
    assert pose_center == pytest.approx(1e-4 / 10)
    # noise-free observations leave the residual unscaled, as sigma = 1 does
    assert auto_grid_center("gd", "pose", 6, 8.0, sigma=0.0, n_points=10) == 1.0 / 10


def test_resolved_gamma_defaults():
    synthetic = make_config("synthetic")
    pose = make_config("pose")
    assert resolve_grid(synthetic, "flow", 10)[0] == 0.5
    assert resolve_grid(pose, "flow", 6)[0] == 8.0
    explicit = make_config("synthetic", overrides={"gamma": 2.5})
    assert resolve_grid(explicit, "mcl", 10)[0] == 2.5


def test_resolve_grid_centers_the_grid_it_returns():
    pose = make_config("pose", overrides={"sigma": 0.01, "pose_points": 10})
    gamma, center, values = resolve_grid(pose, "gd", 6)
    assert (gamma, center) == (8.0, auto_grid_center("gd", "pose", 6, 8.0, sigma=0.01, n_points=10))
    assert values == grid_values(center, 5, 2)
    explicit = make_config("synthetic", overrides={"grid_center": 3.0, "grid_orders": 2})
    assert resolve_grid(explicit, "flow", 10)[1:] == (3.0, grid_values(3.0, 2, 2))


def test_grid_values_log_uniform_around_center():
    values = grid_values(10.0, 4, 1)
    np.testing.assert_allclose(values, [0.1, 1.0, 10.0, 100.0, 1000.0], rtol=1e-12)


# --- pose --------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_pose():
    cfg = make_config("pose", overrides={
        "n_particles": (24,), "n_steps": 10, "seeds": (0, 1),
        "grid_orders": 2, "grid_points_per_order": 1, "sigma": 0.01,
    })
    return cfg, records(run_pose(cfg)[0])


def test_pose_methods_share_initialization(small_pose):
    cfg, rows = small_pose
    for seed in ("0", "1"):
        step0 = {}
        for r in rows:
            if r["seed"] == seed and r["step"] == "0" and r["status"] == "ok":
                step0.setdefault((r["method"], r["eta"]), {})[r["metric"]] = r["value"]
        values = list(step0.values())
        assert len(values) > 2
        assert all(v == values[0] for v in values[1:])


def test_pose_emits_both_error_metrics(small_pose):
    _, rows = small_pose
    metrics = {r["metric"] for r in rows if r["status"] == "ok"
               and not r["metric"].startswith("best_")}
    assert metrics == {"trans_err_cm", "rot_err_deg"}


def test_pose_noise_free_flow_reaches_subcentimeter():
    # generous budget, single seed: the registration loss has a zero-loss
    # optimum at the true pose, and the flow finds its neighborhood
    cfg = make_config("pose", overrides={
        "seeds": (0,), "sigma": 0.0, "n_steps": 300, "methods": ("flow",),
    })
    rows = records(run_pose(cfg)[0])
    best = [r for r in rows if r["metric"].startswith("best_") and r["status"] == "ok"]
    assert best and float(best[0]["value"]) < 1.0


# --- theorem -----------------------------------------------------------------


def test_theorem_rejects_zero_discrepancy():
    # with eps = 0 the bound check passes trivially (test_bounds pins that at
    # the function level), but the negative control can never break
    with pytest.raises(ValueError, match=r"^eps must be positive, got 0\.0$"):
        make_config("theorem", overrides={"seeds": (0,), "n_particles": (8,), "eps": 0.0})


def test_theorem_rows_and_verdicts():
    cfg = make_config("theorem", overrides={"seeds": (0, 1), "n_particles": (16,)})
    rows = records(run_theorem(cfg)[0])
    observed = [r for r in rows if r["metric"] == "wasserstein_observed"]
    bounds = [r for r in rows if r["metric"] == "gronwall_bound"]
    assert len(observed) == len(bounds) >= 200  # >= 100 checkpoints per seed
    for obs, bound in zip(observed, bounds):
        assert float(obs["value"]) <= 1.05 * float(bound["value"])
    verdicts = {r["metric"]: r["value"] for r in rows if r["seed"] == ""}
    assert verdicts["all_seeds_pass"] == "1.0"
    assert verdicts["negative_control_all_fail"] == "1.0"
