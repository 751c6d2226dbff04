"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines. The experiment-level criteria (6-8) run the full benchmark
protocols on fixed seeds, so their outcomes are deterministic.
"""
import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from particleflow.bounds import gronwall_bound, max_ratio, perturbed_flow_check
from particleflow.config import make_config
from particleflow.experiments import HEADER, SELECTION_METRIC, run_pose, run_synthetic, theorem_field
from particleflow.flow import (
    Ensemble,
    FlowConfig,
    evaluate_losses,
    flow_update,
    gradient_coefficient,
    kernel_constant,
    normalize_losses,
    step,
)
from particleflow.losses import sample_synthetic_problem
from particleflow.metrics import GaussianSummary, kl_gaussians, wasserstein_exact
from particleflow.pose import make_pose_problem

from reference import (
    QuadraticWellLoss,
    brute_force_assignment,
    central_difference_gradient,
    monte_carlo_kl,
    naive_flow_displacements,
    random_spd_pair,
    relative_gradient_error,
)


def report(name: str, ok: bool, detail: str = "") -> None:
    marker = "PASS" if ok else "FAIL"
    print(f"[{marker}] {name}" + (f" -- {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def records(rows):
    return [dict(zip(HEADER, r)) for r in rows]


def best_hyper(rows, method, n):
    hyper = "eta" if method in ("flow", "gd") else "epsilon"
    summary = [r for r in rows if r["method"] == method and r["n"] == str(n)
               and r["metric"].startswith("best_") and r["status"] == "ok"]
    assert summary, f"no best-setting row for {method} at n={n}"
    return hyper, summary[0][hyper]


def final_kls(rows, method, n, n_steps, seeds):
    hyper, best = best_hyper(rows, method, n)
    values = {int(r["seed"]): float(r["value"]) for r in rows
              if r["method"] == method and r["n"] == str(n) and r[hyper] == best
              and r["metric"] == SELECTION_METRIC and r["step"] == str(n_steps)
              and r["status"] == "ok"}
    return np.array([values[s] for s in seeds])


def mean_curve(rows, method, n, n_steps, seeds):
    hyper, best = best_hyper(rows, method, n)
    per_step = {s: [] for s in range(1, n_steps + 1)}
    for r in rows:
        if (r["method"] == method and r["n"] == str(n) and r[hyper] == best
                and r["metric"] == SELECTION_METRIC and r["status"] == "ok"
                and r["step"] != "0"):
            per_step[int(r["step"])].append(float(r["value"]))
    return np.array([np.mean(per_step[s]) for s in range(1, n_steps + 1)])


def rises_then_falls(curve) -> tuple[bool, str]:
    peak = int(np.argmax(curve))
    ok = (curve[peak] >= 2.0 * curve[0]) and (peak < len(curve) - 1) and (curve[-1] < curve[peak])
    detail = f"first={curve[0]:.1f} peak={curve[peak]:.1f}@{peak + 1} last={curve[-1]:.1f}"
    return ok, detail


@pytest.fixture(scope="module")
def synthetic_d10():
    cfg = make_config("synthetic", overrides={
        "dims": (10,), "n_particles": (100, 10), "seeds": tuple(range(10)),
    })
    return records(run_synthetic(cfg))


@pytest.fixture(scope="module")
def synthetic_d50():
    cfg = make_config("synthetic", overrides={
        "dims": (50,), "n_particles": (100,), "seeds": tuple(range(10)),
    })
    return records(run_synthetic(cfg))


@pytest.fixture(scope="module")
def pose_sweep():
    cfg = make_config("pose", overrides={
        "n_particles": (80,), "seeds": tuple(range(10)), "n_steps": 100,
    })
    return records(run_pose(cfg))


# --- criterion 1: flow invariant suite ----------------------------------------


def test_c1_flow_invariants():
    gen = np.random.default_rng(0)

    # mean-zero normalized losses
    for size in (1, 2, 17, 64):
        losses = 1e3 * gen.standard_normal(size)
        _, centered = normalize_losses(losses)
        assert abs(centered.sum()) <= 1e-9 * size * np.abs(losses).max()

    # n = 1 degeneracy to gradient descent, exact
    x1 = gen.standard_normal((1, 3))
    well = QuadraticWellLoss(gen.standard_normal(3))
    config = FlowConfig(dim=3, gamma=0.7, eta=0.4)
    ev = evaluate_losses(well, Ensemble(x1))
    disp = flow_update(Ensemble(x1), ev, config)
    assert np.array_equal(disp, -(0.4 * gradient_coefficient(3, 0.7)) * ev.grads)

    # i = j summand exactly zero: an isolated particle with zero gradient
    # and arbitrary loss must not move
    from particleflow.flow import LossEvaluation
    lone = LossEvaluation(np.array([7.0]), np.zeros((1, 3)), 7.0, np.array([0.0]))
    assert np.all(flow_update(Ensemble(np.zeros((1, 3))), lone, config) == 0.0)

    # permutation equivariance
    x = gen.standard_normal((7, 3))
    perm = gen.permutation(7)
    plain = step(Ensemble(x), well, config).particles
    permuted = step(Ensemble(x[perm]), well, config).particles
    np.testing.assert_allclose(permuted, plain[perm], rtol=1e-12, atol=1e-12)

    # translation equivariance
    shift = gen.uniform(-3, 3, 3)

    class Shifted:
        dim = 3

        def loss(self, t, p):
            return well.loss(t, np.asarray(p) - shift)

        def grad(self, t, p):
            return well.grad(t, np.asarray(p) - shift)

    shifted = step(Ensemble(x + shift), Shifted(), config).particles
    np.testing.assert_allclose(shifted, plain + shift, rtol=1e-12, atol=1e-12)

    # synchronous update order independence + brute-force oracle, n <= 5, d = 3
    for n in (2, 3, 4, 5):
        xs = gen.standard_normal((n, 3))
        ev = evaluate_losses(well, Ensemble(xs))
        disp = flow_update(Ensemble(xs), ev, config)
        oracle = naive_flow_displacements(
            xs, list(ev.losses), [list(g) for g in ev.grads], 0.7, 0.4)
        np.testing.assert_allclose(disp, oracle, rtol=1e-12, atol=1e-14)

    report("criterion 1: flow invariant suite", True,
           "mean-zero, n=1 exact, self-term zero, equivariances, oracle match at 1e-12")


# --- criterion 2: kernel constant ---------------------------------------------


def test_c2_kernel_constant():
    err3 = abs(kernel_constant(3) - 1.0 / (4.0 * math.pi))
    err4 = abs(kernel_constant(4) - 1.0 / (4.0 * math.pi ** 2))
    rejected = False
    try:
        kernel_constant(2)
    except ValueError:
        rejected = True
    report("criterion 2: kernel constant", err3 < 1e-12 and err4 < 1e-12 and rejected,
           f"|C(3)-1/4pi|={err3:.2e}, |C(4)-1/4pi^2|={err4:.2e}, d<3 rejected={rejected}")


# --- criterion 3: gradient checks ----------------------------------------------


def test_c3_gradient_checks():
    gen = np.random.default_rng(42)
    worst = 0.0

    problem = sample_synthetic_problem(6, 8, seed=0)
    for _ in range(100):
        x = 2.0 * gen.standard_normal(6)
        t = int(gen.integers(0, 8))
        numeric = central_difference_gradient(lambda p: problem.loss(t, p), x)
        worst = max(worst, relative_gradient_error(problem.grad(t, x), numeric))

    well = QuadraticWellLoss(gen.standard_normal(5))
    for _ in range(100):
        x = 3.0 * gen.standard_normal(5)
        numeric = central_difference_gradient(lambda p: well.loss(0, p), x)
        worst = max(worst, relative_gradient_error(well.grad(0, x), numeric))

    pose = make_pose_problem(9, sigma=0.02, seed=1)
    for _ in range(100):
        x = np.concatenate([gen.uniform(-1, 1, 3), gen.uniform(-2.5, 2.5, 3)])
        numeric = central_difference_gradient(lambda p: pose.loss(0, p), x)
        worst = max(worst, relative_gradient_error(pose.grad(0, x), numeric))

    report("criterion 3: analytic gradients vs central differences", worst <= 1e-5,
           f"worst relative error {worst:.2e} over 3 models x 100 points")


# --- criterion 4: metric oracles ------------------------------------------------


def test_c4_metric_oracles():
    gen = np.random.default_rng(7)
    worst_rel = 0.0
    for _ in range(20):
        (mp, sp), (mq, sq) = random_spd_pair(gen, 3)
        closed = kl_gaussians(GaussianSummary(mp, sp), GaussianSummary(mq, sq))
        estimate = monte_carlo_kl(mp, sp, mq, sq, 1_000_000, gen)
        worst_rel = max(worst_rel, abs(estimate - closed) / closed)
    kl_ok = worst_rel <= 0.02

    exact_matches = 0
    for trial in range(100):
        n = 2 + trial % 5
        a = gen.standard_normal((n, 3))
        b = gen.standard_normal((n, 3))
        result = wasserstein_exact(a, b)
        perm, cost = brute_force_assignment(cdist(a, b))
        if result.total_cost == cost and np.array_equal(result.permutation, perm):
            exact_matches += 1
    assignment_ok = exact_matches == 100

    report("criterion 4: metric oracles", kl_ok and assignment_ok,
           f"KL worst rel err {worst_rel:.3%} (<=2%), assignment exact {exact_matches}/100")


# --- criterion 5: divergence bound check ----------------------------------------


def test_c5_divergence_bound():
    worst = 0.0
    control_failures = 0
    seeds = range(5)
    for seed in seeds:
        field = theorem_field(3, seed)
        rep = perturbed_flow_check(32, field, eps=0.1, t_end=1.0, dt=1e-3, seed=seed)
        assert len(rep.times) >= 100
        worst = max(worst, rep.max_ratio)
        halved = np.array([
            gronwall_bound(rep.initial_distance, 0.1, rep.field_lipschitz / 2.0, t)
            for t in rep.times
        ])
        if max_ratio(rep.observed, halved) > 1.05:
            control_failures += 1
    ok = worst <= 1.05 and control_failures == len(list(seeds))
    report("criterion 5: divergence bound holds, negative control breaks", ok,
           f"max observed/bound {worst:.4f} (<=1.05), halved-Lipschitz fails {control_failures}/5")


# --- criterion 6: synthetic localization trend ----------------------------------


def test_c6_synthetic_trend(synthetic_d10):
    rows = synthetic_d10
    seeds = range(10)
    flow_final = final_kls(rows, "flow", 100, 50, seeds)
    mcl_final = final_kls(rows, "mcl", 100, 50, seeds)
    wins = int(np.sum(flow_final <= mcl_final))

    flow_shape, flow_detail = rises_then_falls(mean_curve(rows, "flow", 100, 50, seeds))
    mcl_shape, mcl_detail = rises_then_falls(mean_curve(rows, "mcl", 100, 50, seeds))

    ok = wins >= 8 and flow_shape and mcl_shape
    report("criterion 6: synthetic localization trend", ok,
           f"flow<=mcl in {wins}/10 seeds; flow curve {flow_detail}; mcl curve {mcl_detail}")


# --- criterion 7: dimension and particle-count robustness ------------------------


def test_c7_dimension_robustness(synthetic_d50, synthetic_d10):
    seeds = range(10)
    flow50 = float(np.median(final_kls(synthetic_d50, "flow", 100, 50, seeds)))
    mcl50 = float(np.median(final_kls(synthetic_d50, "mcl", 100, 50, seeds)))
    ratio = flow50 / mcl50

    flow_factor = (np.median(final_kls(synthetic_d10, "flow", 10, 50, seeds))
                   / np.median(final_kls(synthetic_d10, "flow", 100, 50, seeds)))
    mcl_factor = (np.median(final_kls(synthetic_d10, "mcl", 10, 50, seeds))
                  / np.median(final_kls(synthetic_d10, "mcl", 100, 50, seeds)))

    ok = ratio <= 0.5 and flow_factor < mcl_factor
    report("criterion 7: dimension and particle-count robustness", ok,
           f"d=50 KL ratio flow/mcl = {ratio:.3f} (<=0.5); "
           f"n 100->10 degradation flow x{flow_factor:.2f} < mcl x{mcl_factor:.2f}")


# --- criterion 8: pose benchmark trend -------------------------------------------


def pose_series(rows, method, seeds, n_steps):
    hyper, best = best_hyper(rows, method, 80)
    series = {}
    for seed in seeds:
        trans = {int(r["step"]): float(r["value"]) for r in rows
                 if r["method"] == method and r[hyper] == best and r["seed"] == str(seed)
                 and r["metric"] == "trans_err_cm" and r["status"] == "ok"}
        rot = {int(r["step"]): abs(float(r["value"])) for r in rows
               if r["method"] == method and r[hyper] == best and r["seed"] == str(seed)
               and r["metric"] == "rot_err_deg" and r["status"] == "ok"}
        assert set(trans) == set(range(n_steps + 1))
        series[seed] = (np.array([trans[s] for s in range(n_steps + 1)]),
                        np.array([rot[s] for s in range(n_steps + 1)]))
    return series


def test_c8_pose_trend(pose_sweep):
    seeds = range(10)
    n_steps = 100
    flow = pose_series(pose_sweep, "flow", seeds, n_steps)
    gd = pose_series(pose_sweep, "gd", seeds, n_steps)

    flow_trans = np.median([flow[s][0][-1] for s in seeds])
    gd_trans = np.median([gd[s][0][-1] for s in seeds])
    flow_rot = np.median([flow[s][1][-1] for s in seeds])
    gd_rot = np.median([gd[s][1][-1] for s in seeds])

    faster = 0
    for s in seeds:
        target = gd[s][0][-1] * (1.0 + 1e-9)
        t_flow = next((i for i, v in enumerate(flow[s][0]) if v <= target), math.inf)
        t_gd = next((i for i, v in enumerate(gd[s][0]) if v <= target), math.inf)
        if t_flow < t_gd:
            faster += 1

    ok = flow_trans <= gd_trans and flow_rot <= gd_rot and faster >= 7
    report("criterion 8: pose benchmark trend", ok,
           f"median final trans {flow_trans:.2f} vs {gd_trans:.2f} cm; "
           f"median final |rot| {flow_rot:.1f} vs {gd_rot:.1f} deg; "
           f"flow reaches gd's final level first in {faster}/10 seeds")


# --- criterion 9: complexity ------------------------------------------------------


def _flow_setup(n, d=10):
    gen = np.random.default_rng(0)
    ensemble = Ensemble(gen.standard_normal((n, d)))
    well = QuadraticWellLoss(np.zeros(d))
    config = FlowConfig(dim=d, gamma=0.5, eta=1e-3)
    return ensemble, well, config


def _min_step_times(sizes, reps=11):
    """Fastest of `reps` timed steps per ensemble size, after a warm-up.

    Each round times one step of every size, so a slow spell on a shared
    machine lands on all sizes alike rather than on one; the minimum then
    keeps the least disturbed round, since interference only adds time.
    """
    setups = {n: _flow_setup(n) for n in sizes}
    for ensemble, well, config in setups.values():
        step(ensemble, well, config)  # warm up allocators and caches
    times = {n: [] for n in sizes}
    for _ in range(reps):
        for n, (ensemble, well, config) in setups.items():
            start = time.perf_counter()
            step(ensemble, well, config)
            times[n].append(time.perf_counter() - start)
    return {n: min(t) for n, t in times.items()}


def _peak_update_memory(n):
    ensemble, well, config = _flow_setup(n)
    evaluation = evaluate_losses(well, ensemble)
    tracemalloc.start()
    flow_update(ensemble, evaluation, config)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def test_c9_complexity():
    times = _min_step_times((512, 1024, 2048))
    r1 = times[1024] / times[512]
    r2 = times[2048] / times[1024]
    time_ok = 3.0 <= r1 <= 6.0 and 3.0 <= r2 <= 6.0

    peaks = {n: _peak_update_memory(n) for n in (512, 1024, 2048)}
    m1 = peaks[1024] / peaks[512]
    m2 = peaks[2048] / peaks[1024]
    # linear growth doubles the peak; quadratic would quadruple it
    memory_ok = m1 <= 2.5 and m2 <= 2.5

    report("criterion 9: quadratic time, linear memory", time_ok and memory_ok,
           f"step time x{r1:.2f}, x{r2:.2f} per doubling (within [3, 6]); "
           f"peak memory x{m1:.2f}, x{m2:.2f} per doubling (linear)")
