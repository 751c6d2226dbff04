import numpy as np
import pytest

from particleflow.config import make_config
from particleflow.experiments import (
    HEADER,
    SELECTION_METRIC,
    _sweep,
    auto_grid_center,
    grid_values,
    resolve_grid,
    run_pose,
    run_synthetic,
    run_theorem,
)
from particleflow.flow import gradient_coefficient


def records(rows):
    return [dict(zip(HEADER, r)) for r in rows]


@pytest.fixture(scope="module")
def small_synthetic():
    cfg = make_config("synthetic", overrides={
        "dims": (4,), "n_particles": (16,), "n_steps": 8, "seeds": (0, 1),
        "grid_orders": 2, "grid_points_per_order": 1,
    })
    return cfg, records(run_synthetic(cfg))


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
    rows = records(run_synthetic(cfg))
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
    rows = records(run_synthetic(cfg))
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
        "n_steps": 6, "seeds": (0,), "methods": ("gd",), "grid_center": 0.1,
        "grid_orders": 1, "grid_points_per_order": 1,
    })

    def measure(step, particles):
        if failing == "measure" and step == k:
            raise ValueError("measurement failed")
        return [(None, "loss", float(np.sum(particles * particles)), "ok")]

    # a failing measure names the step it measured; a failing stepping
    # call names the step it was making
    problem = _NanGradientBowl(k if failing == "stepping" else np.inf)
    expected = k if failing == "measure" else k + 1
    init = np.random.default_rng(0).standard_normal((4, 2))
    failures = []
    rows = records(_sweep(cfg, 2, 4, {0: (problem, init, measure)}, "loss", failures))
    failed = [r for r in rows if r["metric"] == "run_failed"]
    assert [int(r["step"]) for r in failed] == [expected, expected]  # one per grid point
    assert all(f" step={expected}: " in line for line in failures) and len(failures) == 2
    measured = sorted({int(r["step"]) for r in rows if r["metric"] == "loss"})
    assert measured == list(range(k + (failing == "stepping")))


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
    pose_center = auto_grid_center("gd", "pose", 6, 8.0, sigma_eff=0.01, n_points=10)
    assert pose_center == pytest.approx(1e-4 / 10)


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
    assert (gamma, center) == (8.0, auto_grid_center("gd", "pose", 6, 8.0, 0.01, 10))
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
    return cfg, records(run_pose(cfg))


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
    rows = records(run_pose(cfg))
    best = [r for r in rows if r["metric"].startswith("best_") and r["status"] == "ok"]
    assert best and float(best[0]["value"]) < 1.0


# --- theorem -----------------------------------------------------------------


def test_theorem_zero_discrepancy_passes_trivially():
    cfg = make_config("theorem", overrides={"seeds": (0,), "n_particles": (8,), "eps": 0.0})
    rows = records(run_theorem(cfg))
    verdicts = {r["metric"]: r["value"] for r in rows if r["seed"] == ""}
    assert verdicts["all_seeds_pass"] == "1.0"
    ratios = [float(r["value"]) for r in rows if r["metric"] == "max_ratio"]
    assert ratios == [0.0]


def test_theorem_rows_and_verdicts():
    cfg = make_config("theorem", overrides={"seeds": (0, 1), "n_particles": (16,)})
    rows = records(run_theorem(cfg))
    observed = [r for r in rows if r["metric"] == "wasserstein_observed"]
    bounds = [r for r in rows if r["metric"] == "gronwall_bound"]
    assert len(observed) == len(bounds) >= 200  # >= 100 checkpoints per seed
    for obs, bound in zip(observed, bounds):
        assert float(obs["value"]) <= 1.05 * float(bound["value"])
    verdicts = {r["metric"]: r["value"] for r in rows if r["seed"] == ""}
    assert verdicts["all_seeds_pass"] == "1.0"
    assert verdicts["negative_control_all_fail"] == "1.0"
