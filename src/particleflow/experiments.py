"""Experiment drivers emitting tidy CSV rows.

One row per (run, step, metric), header

    experiment,method,d,n,seed,eta,epsilon,gamma,ridge,step,metric,value,status

Rows are produced in a deterministic order, so reruns with the same config
are byte-identical. Timestamps appear only in the manifest header.
"""
from __future__ import annotations

import datetime
import math
from collections.abc import Sequence

import numpy as np

from . import __version__, flow, rng
from .baselines import gradient_descent_step, mcl_step
from .bounds import gronwall_bound, max_ratio, perturbed_flow_check
from .config import ExperimentConfig
from .flow import Ensemble, gradient_coefficient
from .losses import exact_posterior, expected_posterior, sample_synthetic_problem
from .metrics import fit_gaussian, kl_gaussians, pose_errors
from .pose import make_pose_problem, mean_pose, random_rotation_vectors

HEADER = (
    "experiment", "method", "d", "n", "seed", "eta", "epsilon",
    "gamma", "ridge", "step", "metric", "value", "status",
)

KL_METRICS = ("kl_fit_vs_expected", "kl_expected_vs_fit", "kl_fit_vs_exact", "kl_exact_vs_fit")
SELECTION_METRIC = "kl_fit_vs_expected"
POSE_METRICS = ("trans_err_cm", "rot_err_deg")
BOUND_SLACK = 1.05  # covers Euler discretization in the divergence check
# where each experiment's particles start, as its manifest records it
_INIT_DISTRIBUTIONS = {
    "synthetic": "standard_normal_prior",
    "pose": "translations N(0, 0.3^2) per axis, uniform rotations",
    "theorem": "standard_normal, one draw shared by both particle sets",
}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _row(experiment, method, d, n, seed, eta, epsilon, gamma, ridge, step, metric, value, status):
    return tuple(
        _fmt(v)
        for v in (experiment, method, d, n, seed, eta, epsilon, gamma, ridge, step, metric, value, status)
    )


def grid_values(center: float, orders: int, points_per_order: int) -> list[float]:
    """Log-uniform grid spanning exactly `orders` orders of magnitude around center."""
    count = orders * points_per_order + 1
    exponents = np.linspace(-orders / 2.0, orders / 2.0, count)
    with np.errstate(over="ignore"):  # an overflowing edge is rejected below
        values = [float(center * 10.0 ** e) for e in exponents]
    if not all(0.0 < v < math.inf for v in values):
        raise ValueError(f"a grid of {orders} orders around {center!r} leaves the positive float range")
    return values


def auto_grid_center(method: str, experiment: str, d: int, gamma: float, sigma_eff: float = 1.0, n_points: int = 1) -> float:
    """Scale-aware grid center for the method's swept hyperparameter.

    The flow's gradient term carries the coefficient C * gamma**(2-d)
    which varies over many orders of magnitude with (d, gamma); centering
    eta at its reciprocal puts an O(1) effective gradient step in the
    middle of the grid. Gradient descent absorbs that prefactor, so its
    center is the plain loss curvature scale. The motion-noise variance for
    MCL is centered at 0.1.
    """
    if method == "mcl":
        return 0.1
    base = sigma_eff * sigma_eff / n_points if experiment == "pose" else 1.0
    if method == "flow":
        coefficient = gradient_coefficient(d, gamma)
        center = base / coefficient if coefficient else math.inf
        if not math.isfinite(center):
            raise ValueError(f"gradient coefficient C * gamma**(2-d) = {coefficient!r} is too small "
                             f"for an automatic eta grid center (gamma={gamma}, dim={d})")
        return center
    return base


def resolve_grid(config: ExperimentConfig, method: str, d: int) -> tuple[float, float, list[float]]:
    """Kernel width, grid center and grid values of the method's sweep at dimension d.

    gamma=auto is 0.5 for the synthetic task, near its late-stage
    inter-particle spacing; pose particles mix meters with rotation
    vectors spanning 2*pi, so their kernel is wide (8.0, about the diameter
    of the initial pose cloud). Both defaults were grid-checked at desk
    scale. grid_center=auto is the scale-aware center of auto_grid_center.
    Raises ValueError when no usable grid exists.
    """
    gamma = 8.0 if config.experiment == "pose" else 0.5
    if config.gamma is not None:
        gamma = float(config.gamma)
    center = config.grid_center
    if center is None:
        sigma_eff = config.sigma if config.sigma > 0 else 1.0
        center = auto_grid_center(method, config.experiment, d, gamma, sigma_eff, config.pose_points)
    return gamma, center, grid_values(center, config.grid_orders, config.grid_points_per_order)


def _trajectory(method, value, problem, init, gamma, seed, n_steps):
    """Yield (step, particles) of one run, from the initial particles at step 0
    through step n_steps; a failing step raises ValueError. Every method
    steps an `Ensemble`; the step functions are looked up when called."""
    advance = {
        "flow": lambda ensemble: flow.step(ensemble, problem, gamma, value),
        "mcl": lambda ensemble: mcl_step(ensemble, problem, value, seed),
        "gd": lambda ensemble: gradient_descent_step(ensemble, problem, value),
    }[method]
    ensemble = Ensemble(init, 0)
    yield 0, ensemble.particles
    for _ in range(n_steps):
        ensemble = advance(ensemble)
        yield ensemble.step_index, ensemble.particles


def _sweep(config: ExperimentConfig, d: int, n: int, instances: dict, selection: str,
           failures: list[str] | None) -> list[tuple]:
    """Grid search of every configured method over per-seed instances.

    instances maps seed -> (problem, init, measure), where measure(step,
    particles) returns (ridge, metric, value, status) tuples. Each
    (method, grid point, seed) run emits its measured rows per step, or a
    run_failed row at the step that raised: the step being measured when
    measure raised, the step being made when stepping raised. The best
    grid point per method minimizes the mean final-step `selection` metric
    across seeds; a grid point counts only if that metric is ok at the last
    step for every seed.
    Unless failures is None, one line per run_failed row, in row order,
    says which run failed at which step and why.
    """
    experiment, T = config.experiment, config.n_steps
    rows: list[tuple] = []
    for method in config.methods:
        gamma, _, values = resolve_grid(config, method, d)
        gamma_col = gamma if method == "flow" else None
        best_value, best_mean = None, math.inf
        for value in values:
            eta, epsilon = (None, value) if method == "mcl" else (value, None)
            finals = []
            for seed, (problem, init, measure) in instances.items():
                try:
                    # diverging grid points overflow by design before being
                    # reported as error rows; keep their FP warnings out of
                    # the sweep output
                    with np.errstate(all="ignore"):
                        for step, particles in _trajectory(method, value, problem, init, gamma, seed, T):
                            failed_step = step  # a failing measure names the step it measured
                            measured = measure(step, particles)
                            rows.extend(_row(experiment, method, d, n, seed, eta, epsilon, gamma_col,
                                             ridge, step, metric, v, status)
                                        for ridge, metric, v, status in measured)
                            failed_step = step + 1  # a failing stepping call names the step it made
                except ValueError as exc:
                    rows.append(_row(experiment, method, d, n, seed, eta, epsilon, gamma_col,
                                     None, failed_step, "run_failed", None, "error"))
                    if failures is not None:
                        swept = "epsilon" if method == "mcl" else "eta"
                        reason = str(exc).replace("\n", " ")
                        failures.append(f"{method} d={d} n={n} seed={seed} {swept}={_fmt(value)} "
                                        f"step={failed_step}: {reason}")
                    finals.append(None)
                else:
                    finals.append(next((v for _, metric, v, _ in measured if metric == selection), None))
            if any(v is None for v in finals):
                continue
            mean = sum(finals) / len(finals)
            if mean < best_mean:
                best_value, best_mean = value, mean
        metric = "best_final_" + selection + "_mean"
        if best_value is None:
            rows.append(_row(experiment, method, d, n, None, None, None, None, None,
                             T, metric, None, "error"))
            continue
        eta, epsilon = (None, best_value) if method == "mcl" else (best_value, None)
        rows.append(_row(experiment, method, d, n, None, eta, epsilon, gamma_col,
                         None, T, metric, best_mean, "ok"))
    return rows


# ---------------------------------------------------------------------------
# synthetic localization
# ---------------------------------------------------------------------------


def _kl_measure(problem, n_steps: int):
    """measure(step, particles) for the synthetic task: KL rows between a
    Gaussian fit and both reference posteriors, in both argument orders."""
    expected_by_step = [expected_posterior(problem.center, t) for t in range(n_steps + 1)]
    exact_by_step = [exact_posterior(problem, t) for t in range(n_steps + 1)]

    def measure(step: int, particles: np.ndarray) -> list[tuple]:
        try:
            fit = fit_gaussian(particles)
        except ValueError:
            return [(None, "fit_gaussian", None, "fit_error")]
        try:
            values = (
                kl_gaussians(fit, expected_by_step[step]),
                kl_gaussians(expected_by_step[step], fit),
                kl_gaussians(fit, exact_by_step[step]),
                kl_gaussians(exact_by_step[step], fit),
            )
        except ValueError:
            return [(fit.ridge, "kl", None, "kl_error")]
        return [(fit.ridge, name, v, "ok") for name, v in zip(KL_METRICS, values)]

    return measure


def run_synthetic(config: ExperimentConfig, failures: list[str] | None = None) -> list[tuple]:
    """Sweep (d, n, method, grid point, seed) on the synthetic localization task.

    Particles start iid from the standard normal prior. Every step records
    the KL divergence between a Gaussian fit to the particles and both the
    direction-averaged and the realized posterior, in both argument
    orders. The best grid point per (method, d, n) minimizes the mean
    final-step kl_fit_vs_expected across seeds. A list passed as failures
    receives the reason for each run_failed row (see `_sweep`).
    """
    rows: list[tuple] = []
    for d in config.dims:
        for n in config.n_particles:
            instances = {}
            for seed in config.seeds:
                problem = sample_synthetic_problem(d, config.n_steps, seed)
                measure = _kl_measure(problem, config.n_steps)
                init = rng.stream(seed, rng.INIT).standard_normal((n, d))
                instances[seed] = (problem, init, measure)
            rows.extend(_sweep(config, d, n, instances, SELECTION_METRIC, failures))
    return rows


# ---------------------------------------------------------------------------
# pose benchmark
# ---------------------------------------------------------------------------


def _pose_init(seed: int, n: int) -> np.ndarray:
    """Shared random initial pose particles: N(0, 0.3^2) translations and
    uniformly random rotations; identical for every method at a seed."""
    gen = rng.stream(seed, rng.POSE_INIT)
    translations = 0.3 * gen.standard_normal((n, 3))
    rotations = random_rotation_vectors(gen, n)
    return np.concatenate([translations, rotations], axis=1)


def _pose_measure(true_pose):
    """measure(step, particles): translation and rotation error of the mean pose."""
    def measure(step: int, particles: np.ndarray) -> list[tuple]:
        trans_cm, rot_deg = pose_errors(mean_pose(particles), true_pose)
        return [(None, "trans_err_cm", trans_cm, "ok"), (None, "rot_err_deg", rot_deg, "ok")]

    return measure


def run_pose(config: ExperimentConfig, failures: list[str] | None = None) -> list[tuple]:
    """Synthetic registration benchmark: flow versus per-particle gradient descent.

    Both methods start from identical random pose particles and run the
    same iteration budget; every step records translation (cm) and signed
    rotation (deg) error of the mean pose. The best grid point per method
    minimizes the mean final translation error across seeds. A list passed
    as failures receives the reason for each run_failed row (see `_sweep`).
    """
    (d,) = config.dims
    rows: list[tuple] = []
    for n in config.n_particles:
        instances = {}
        for seed in config.seeds:
            problem = make_pose_problem(config.pose_points, config.sigma, seed)
            instances[seed] = (problem, _pose_init(seed, n), _pose_measure(problem.true_pose))
        rows.extend(_sweep(config, d, n, instances, "trans_err_cm", failures))
    return rows


# ---------------------------------------------------------------------------
# divergence bound check
# ---------------------------------------------------------------------------


def theorem_field(d: int, seed: int) -> np.ndarray:
    """Seeded random symmetric matrix with spectral norm 1.

    The sign is chosen so the extreme eigenvalue is +1: the aligned
    perturbation of the divergence check then grows at exactly the
    field's Lipschitz constant, which keeps the check tight and makes an
    understated Lipschitz constant (the negative control) detectable.
    """
    gen = rng.stream(seed, rng.FIELD_CHECK, 1)
    raw = gen.standard_normal((d, d))
    symmetric = 0.5 * (raw + raw.T)
    eigenvalues = np.linalg.eigvalsh(symmetric)
    if abs(eigenvalues[0]) > abs(eigenvalues[-1]):
        symmetric = -symmetric
    return symmetric / np.linalg.norm(symmetric, 2)


def run_theorem(config: ExperimentConfig) -> list[tuple]:
    """Empirical divergence-bound check plus a halved-Lipschitz negative control.

    Emits per-checkpoint (time, observed Wasserstein, bound) rows, one
    pass/fail per seed at BOUND_SLACK, and the negative-control verdicts
    (recomputing the bound with half the true Lipschitz constant must
    break it).
    """
    (d,), (n,) = config.dims, config.n_particles

    def row(seed, step, metric, value):
        return _row("theorem", "flow_pair", d, n, seed, None, None, None, None, step, metric, value, "ok")

    rows: list[tuple] = []
    passes, control_failures = [], []
    for seed in config.seeds:
        field = theorem_field(d, seed)
        report = perturbed_flow_check(n, field, config.eps, config.t_end, config.dt, seed)
        for step, (t, w, bound) in enumerate(zip(report.times, report.observed, report.bounds), start=1):
            rows.append(row(seed, step, "checkpoint_time", t))
            rows.append(row(seed, step, "wasserstein_observed", w))
            rows.append(row(seed, step, "gronwall_bound", bound))
        satisfied = report.max_ratio <= BOUND_SLACK
        passes.append(satisfied)
        halved = np.array([
            gronwall_bound(report.initial_distance, config.eps, report.field_lipschitz / 2.0, t)
            for t in report.times
        ])
        control_ratio = max_ratio(report.observed, halved)
        control_failed = not control_ratio <= BOUND_SLACK
        control_failures.append(control_failed)
        last = len(report.times)
        rows.append(row(seed, last, "max_ratio", report.max_ratio))
        rows.append(row(seed, last, "bound_satisfied", 1.0 if satisfied else 0.0))
        rows.append(row(seed, last, "negative_control_max_ratio", control_ratio))
        rows.append(row(seed, last, "negative_control_fails", 1.0 if control_failed else 0.0))
    rows.append(row(None, 0, "all_seeds_pass", 1.0 if all(passes) else 0.0))
    rows.append(row(None, 0, "negative_control_all_fail", 1.0 if all(control_failures) else 0.0))
    return rows


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def write_csv(path: str, rows: list[tuple], header: tuple = HEADER) -> None:
    """Write header and rows, comma-joined, one line each."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(row) + "\n")


def write_manifest(path: str, config: ExperimentConfig, elapsed_seconds: float,
                   failures: Sequence[str] = ()) -> None:
    """Resolved config, versions, and generator name; wall-clock in the header.

    The sorted key=value lines are followed by one `run_failed.<k>` line per
    failure reason, k = 1, 2, ... in CSV row order.
    """
    lines = [
        f"# generated_at={datetime.datetime.now(datetime.timezone.utc).isoformat()}",
        f"# elapsed_seconds={elapsed_seconds:.3f}",
    ]
    items = dict(config.manifest_items())
    items["library_version"] = __version__
    items["rng_algorithm"] = rng.GENERATOR_NAME
    items["init_distribution"] = _INIT_DISTRIBUTIONS[config.experiment]
    if "gd" in config.methods:
        items["gd_eta_convention"] = "absorbs the kernel prefactor C*gamma**(2-d)"
    for d in config.dims:
        for method in config.methods:
            gamma, center, _ = resolve_grid(config, method, d)
            items[f"gamma_resolved.d{d}"] = repr(gamma)
            items[f"grid_center_resolved.{method}.d{d}"] = repr(center)
    for key, value in sorted(items.items()):
        lines.append(f"{key}={value}")
    lines.extend(f"run_failed.{k}={reason}" for k, reason in enumerate(failures, start=1))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def summarize_rows(rows) -> list[tuple]:
    """Aggregate ok rows over seeds: mean and standard error per group.

    Groups are (experiment, method, d, n, eta, epsilon, gamma, step,
    metric); seed-less summary rows are skipped. Output header:
    experiment,method,d,n,eta,epsilon,gamma,step,metric,mean,stderr,count
    """
    groups: dict[tuple, list[float]] = {}
    for row in rows:
        record = dict(zip(HEADER, row))
        if record["status"] != "ok" or record["seed"] == "":
            continue
        key = (record["experiment"], record["method"], record["d"], record["n"],
               record["eta"], record["epsilon"], record["gamma"], record["step"], record["metric"])
        groups.setdefault(key, []).append(float(record["value"]))
    def sort_key(key):
        return tuple((0, float(part)) if _is_number(part) else (1, part) for part in key)

    out = []
    for key in sorted(groups, key=sort_key):
        values = np.asarray(groups[key])
        count = values.shape[0]
        stderr = float(values.std(ddof=1) / math.sqrt(count)) if count > 1 else 0.0
        out.append(key + (repr(float(values.mean())), repr(stderr), str(count)))
    return out


SUMMARY_HEADER = (
    "experiment", "method", "d", "n", "eta", "epsilon", "gamma", "step",
    "metric", "mean", "stderr", "count",
)

