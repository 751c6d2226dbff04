"""Experiment drivers emitting tidy CSV rows.

One row per (run, step, metric), header

    experiment,method,d,n,seed,eta,epsilon,gamma,ridge,step,metric,value,status

Rows are produced in a deterministic order, so reruns with the same config
are byte-identical. Timestamps appear only in the manifest header.
"""
from __future__ import annotations

import datetime
import itertools
import math
import os
import sys
from collections.abc import Callable, Sequence
from typing import NamedTuple

import numpy as np

from . import __version__, flow, rng
from .baselines import gradient_descent_step, mcl_step
from .bounds import gronwall_bound, max_ratio, perturbed_flow_check
from .config import ExperimentConfig
from .flow import Ensemble, gradient_coefficient
from .losses import exact_posterior, expected_posterior, sample_synthetic_problem
from .metrics import GaussianSummary, fit_gaussian, kl_gaussians, pose_errors
from .pose import make_pose_problem, mean_pose, noise_variance, random_rotation_vectors

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


def _cells(*values) -> tuple:
    """CSV cells of consecutive HEADER columns."""
    return tuple(_fmt(v) for v in values)


def grid_values(center: float, orders: int, points_per_order: int) -> list[float]:
    """Log-uniform grid spanning exactly `orders` orders of magnitude around center."""
    count = orders * points_per_order + 1
    exponents = np.linspace(-orders / 2.0, orders / 2.0, count)
    with np.errstate(over="ignore"):  # an overflowing edge is rejected below
        values = [float(center * 10.0 ** e) for e in exponents]
    if not all(0.0 < v < math.inf for v in values):
        raise ValueError(f"a grid of {orders} orders around {center!r} leaves the positive float range")
    return values


def auto_grid_center(method: str, experiment: str, d: int, gamma: float, sigma: float = 1.0, n_points: int = 1) -> float:
    """Scale-aware grid center for the method's swept hyperparameter.

    The flow's gradient term carries the coefficient C * gamma**(2-d)
    which varies over many orders of magnitude with (d, gamma); centering
    eta at its reciprocal puts an O(1) effective gradient step in the
    middle of the grid. Gradient descent absorbs that prefactor, so its
    center is the plain loss curvature scale, for pose
    pose.noise_variance(sigma) / n_points. The motion-noise variance for
    MCL is centered at 0.1.
    """
    if method == "mcl":
        return 0.1
    base = noise_variance(sigma) / n_points if experiment == "pose" else 1.0
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
        center = auto_grid_center(method, config.experiment, d, gamma, config.sigma, config.pose_points)
    return gamma, center, grid_values(center, config.grid_orders, config.grid_points_per_order)


def _lockstep(advance, values: list[float], init: np.ndarray, observe, n_steps: int) -> list[tuple]:
    """The runs of one (method, seed) grid, one per value, from init at step 0
    through step n_steps, advanced in lockstep as one `Ensemble` stack.

    advance(ensemble, value) makes one step of a stack, with an array of one
    value per member, or of a single ensemble. Each step observes every
    member with observe(step, particles); a member whose observe raises
    ValueError ends at that step. When a stacked step raises ValueError, it
    is taken again member by member through the unstacked step: members
    that raise there end at the step being made, with their own message,
    and the others go on with the bits the stacked step would have given
    them. Returns per value (observed, failed_step, reason): the run's
    (step, observation) pairs, and for a run that ended early the step and
    message of its failure (None, None otherwise). Failures are kept as
    messages, not exceptions, whose tracebacks would hold the stack's
    frames and arrays.
    """
    observed = [[] for _ in values]
    ends = [(None, None)] * len(values)
    live = list(range(len(values)))  # the value index of each stack member
    ensemble = Ensemble(np.broadcast_to(init, (len(values),) + init.shape), 0)
    while live:
        t = ensemble.step_index
        kept = []
        for j, i in enumerate(live):
            try:
                observation = observe(t, ensemble.particles[j])
            except ValueError as exc:
                ends[i] = (t, str(exc))
            else:
                observed[i].append((t, observation))
                kept.append(j)
        if not kept or t == n_steps:
            break
        if len(kept) < len(live):
            live, ensemble = [live[j] for j in kept], ensemble[kept]
        try:
            ensemble = advance(ensemble, np.array([values[i] for i in live]))
        except ValueError:
            stepped = {}
            for j, i in enumerate(live):
                member = ensemble[j]
                try:
                    stepped[i] = advance(member, values[i]).particles
                except ValueError as exc:
                    ends[i] = (t + 1, str(exc))
            live = list(stepped)
            if live:
                ensemble = Ensemble(np.stack(list(stepped.values())), t + 1)
    return [(steps, *end) for steps, end in zip(observed, ends)]


class Measure(NamedTuple):
    """How a sweep reads its runs.

    observe(step, particles) keeps what one step needs; a ValueError fails
    the run at that step. emit(observed) turns a run's (step, observation)
    pairs, in step order, into its (ridge, step, metric, value, status)
    rows once the run has ended, after its last step or at the step that
    failed.
    """

    observe: Callable
    emit: Callable


def _sweep(config: ExperimentConfig, instance, selection: str) -> tuple[list[tuple], list[str]]:
    """Grid search of every configured method at each (d, n) over per-seed instances.

    instance(d, n, seed) returns (problem, init, measure), measure a
    `Measure`. The grid runs of one (method, seed) advance in lockstep (see
    `_lockstep`), so each step makes one loss and gradient evaluation for
    all of them, and each run gets the bits it would get alone. Each
    (method, grid point, seed) run has measure.observe each step and emits
    its measured rows when it ends, followed by a run_failed row at the
    step that raised if it failed: the step being observed when observe
    raised, the step being made when stepping raised. Rows are ordered by
    method, grid point, then seed. The best grid point per (method, d, n)
    minimizes the mean final-step `selection` metric across seeds; a grid
    point counts only if that metric is ok at the last step for every
    seed. Each run formats its eight constant columns once. Returns the
    rows and one line per run_failed row, in row order, saying which run
    failed at which step and why.
    """
    experiment, T = config.experiment, config.n_steps
    rows, failures = [], []
    for d, n in itertools.product(config.dims, config.n_particles):
        instances = {seed: instance(d, n, seed) for seed in config.seeds}
        for method in config.methods:
            gamma, _, values = resolve_grid(config, method, d)
            gamma_col = gamma if method == "flow" else None
            swept = "epsilon" if method == "mcl" else "eta"
            ended = {}  # (grid index, seed) -> (rows, final selection value, failure line)
            for seed, (problem, init, measure) in instances.items():
                # the step functions are looked up when called
                advance = {
                    "flow": lambda ensemble, value: flow.step(ensemble, problem, gamma, value),
                    "mcl": lambda ensemble, value: mcl_step(ensemble, problem, value, seed),
                    "gd": lambda ensemble, value: gradient_descent_step(ensemble, problem, value),
                }[method]
                # diverging grid points overflow by design before being
                # reported as error rows; keep their FP warnings out of the
                # sweep output
                with np.errstate(all="ignore"):
                    runs = _lockstep(advance, values, init, measure.observe, T)
                    for i, (observed, failed_step, reason) in enumerate(runs):
                        value = values[i]
                        eta, epsilon = (None, value) if method == "mcl" else (value, None)
                        run = _cells(experiment, method, d, n, seed, eta, epsilon, gamma_col)
                        measured = measure.emit(observed)
                        run_rows = [run + _cells(*row) for row in measured]
                        if reason is None:
                            final = next((v for _, step, metric, v, _ in measured
                                          if step == T and metric == selection), None)
                            ended[i, seed] = (run_rows, final, None)
                            continue
                        run_rows.append(run + _cells(None, failed_step, "run_failed", None, "error"))
                        reason = reason.replace("\n", " ")
                        ended[i, seed] = (run_rows, None, f"{method} d={d} n={n} seed={seed} "
                                                          f"{swept}={_fmt(value)} step={failed_step}: {reason}")
            best_value, best_mean = None, math.inf
            for i, value in enumerate(values):
                finals = []
                for seed in instances:
                    run_rows, final, failure = ended.pop((i, seed))
                    rows.extend(run_rows)
                    if failure is not None:
                        failures.append(failure)
                    finals.append(final)
                if any(v is None for v in finals):
                    continue
                mean = sum(finals) / len(finals)
                if mean < best_mean:
                    best_value, best_mean = value, mean
            metric = "best_final_" + selection + "_mean"
            if best_value is None:
                rows.append(_cells(experiment, method, d, n, None, None, None, None, None,
                                   T, metric, None, "error"))
                continue
            eta, epsilon = (None, best_value) if method == "mcl" else (best_value, None)
            rows.append(_cells(experiment, method, d, n, None, eta, epsilon, gamma_col,
                               None, T, metric, best_mean, "ok"))
    return rows, failures


# ---------------------------------------------------------------------------
# synthetic localization
# ---------------------------------------------------------------------------


def _kl_measure(problem, n_steps: int) -> Measure:
    """The synthetic task's measure: KL rows between a Gaussian fit and both
    reference posteriors, in both argument orders.

    observe keeps each step's fit (None where the fit fails), O(d^2) per
    step and no particles. emit stacks a run's fits and computes each of
    the four KL series in one `kl_gaussians` call against stacks of the
    reference posteriors, which are built once per problem, so their
    Cholesky factors are shared by all of its runs. If a stacked call
    raises, every step is measured again on its own, so only the steps
    whose KL fails become kl_error rows, and every other step gets the bits
    its stacked KL would have had.
    """
    expected = GaussianSummary.stack([expected_posterior(problem.center, t) for t in range(n_steps + 1)])
    exact = GaussianSummary.stack([exact_posterior(problem, t) for t in range(n_steps + 1)])

    def observe(step: int, particles: np.ndarray) -> GaussianSummary | None:
        try:
            return fit_gaussian(particles)
        except ValueError:
            return None

    def kls(fit: GaussianSummary, expected_t: GaussianSummary, exact_t: GaussianSummary) -> tuple:
        """The KL_METRICS values of fit (one summary, or a stack) and the
        matching references."""
        return (kl_gaussians(fit, expected_t), kl_gaussians(expected_t, fit),
                kl_gaussians(fit, exact_t), kl_gaussians(exact_t, fit))

    def emit(observed: list[tuple]) -> list[tuple]:
        fitted = [(step, fit) for step, fit in observed if fit is not None]
        values = {}
        if fitted:
            steps = [step for step, _ in fitted]
            # a run fitted at every step reads the whole reference stacks and
            # their cached factors; a partial run's sub-stacks factor themselves
            references = (expected, exact) if len(steps) == n_steps + 1 else (expected[steps], exact[steps])
            try:
                series = kls(GaussianSummary.stack([fit for _, fit in fitted]), *references)
                values = dict(zip(steps, zip(*series)))
            except ValueError:
                for step, fit in fitted:
                    try:
                        values[step] = kls(fit, expected[step], exact[step])
                    except ValueError:
                        values[step] = None
        rows = []
        for step, fit in observed:
            if fit is None:
                rows.append((None, step, "fit_gaussian", None, "fit_error"))
            elif values[step] is None:
                rows.append((fit.ridge, step, "kl", None, "kl_error"))
            else:
                rows.extend((fit.ridge, step, name, v, "ok") for name, v in zip(KL_METRICS, values[step]))
        return rows

    return Measure(observe, emit)


def run_synthetic(config: ExperimentConfig) -> tuple[list[tuple], list[str]]:
    """Sweep (d, n, method, grid point, seed) on the synthetic localization task.

    Particles start iid from the standard normal prior. Every step records
    the KL divergence between a Gaussian fit to the particles and both the
    direction-averaged and the realized posterior, in both argument
    orders. The best grid point per (method, d, n) minimizes the mean
    final-step kl_fit_vs_expected across seeds. Returns the rows and the
    reason for each run_failed row (see `_sweep`).
    """
    def instance(d, n, seed):
        problem = sample_synthetic_problem(d, config.n_steps, seed)
        measure = _kl_measure(problem, config.n_steps)
        return problem, rng.stream(seed, rng.INIT).standard_normal((n, d)), measure

    return _sweep(config, instance, SELECTION_METRIC)


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


def _pose_measure(true_pose) -> Measure:
    """The pose measure: translation and rotation error of each step's mean pose."""
    def observe(step: int, particles: np.ndarray) -> tuple[float, float]:
        return pose_errors(mean_pose(particles), true_pose)

    def emit(observed: list[tuple]) -> list[tuple]:
        return [(None, step, metric, v, "ok")
                for step, errors in observed for metric, v in zip(POSE_METRICS, errors)]

    return Measure(observe, emit)


def run_pose(config: ExperimentConfig) -> tuple[list[tuple], list[str]]:
    """Synthetic registration benchmark: flow versus per-particle gradient descent.

    Both methods start from identical random pose particles and run the
    same iteration budget; every step records translation (cm) and signed
    rotation (deg) error of the mean pose. The best grid point per method
    minimizes the mean final translation error across seeds. Returns the
    rows and the reason for each run_failed row (see `_sweep`).
    """
    def instance(d, n, seed):  # d is 6: pose reads no dims key
        problem = make_pose_problem(config.pose_points, config.sigma, seed)
        return problem, _pose_init(seed, n), _pose_measure(problem.true_pose)

    return _sweep(config, instance, "trans_err_cm")


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


def run_theorem(config: ExperimentConfig) -> tuple[list[tuple], list[str]]:
    """Empirical divergence-bound check plus a halved-Lipschitz negative control.

    Emits per-checkpoint (time, observed Wasserstein, bound) rows, one
    pass/fail per seed at BOUND_SLACK, and the negative-control verdicts
    (recomputing the bound with half the true Lipschitz constant must
    break it). Returns the rows and no failure reasons: no run fails.
    """
    (d,), (n,) = config.dims, config.n_particles
    rows: list[tuple] = []

    def add(run, step, *metrics):
        rows.extend(run + _cells(None, step, metric, value, "ok") for metric, value in metrics)

    passes, control_failures = [], []
    for seed in config.seeds:
        run = _cells("theorem", "flow_pair", d, n, seed, None, None, None)
        report = perturbed_flow_check(n, theorem_field(d, seed), config.eps, config.t_end, config.dt, seed)
        for step, (t, w, bound) in enumerate(zip(report.times, report.observed, report.bounds), start=1):
            add(run, step, ("checkpoint_time", t), ("wasserstein_observed", w), ("gronwall_bound", bound))
        halved = [gronwall_bound(report.initial_distance, config.eps, report.field_lipschitz / 2.0, t)
                  for t in report.times]
        control_ratio = max_ratio(report.observed, halved)
        passes.append(report.max_ratio <= BOUND_SLACK)
        control_failures.append(not control_ratio <= BOUND_SLACK)
        add(run, len(report.times), ("max_ratio", report.max_ratio), ("bound_satisfied", float(passes[-1])),
            ("negative_control_max_ratio", control_ratio),
            ("negative_control_fails", float(control_failures[-1])))
    add(_cells("theorem", "flow_pair", d, n, None, None, None, None), 0,
        ("all_seeds_pass", float(all(passes))), ("negative_control_all_fail", float(all(control_failures))))
    return rows, []


# every experiment's runner: config -> (rows, reason of each run_failed row)
RUNNERS = {"synthetic": run_synthetic, "pose": run_pose, "theorem": run_theorem}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def write_csv(path: str, rows: list[tuple], header: tuple = HEADER) -> None:
    """Write header and rows, comma-joined, one line each."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(row) + "\n")


def grid_items(config: ExperimentConfig) -> dict[str, str]:
    """Manifest items gamma_resolved.d<d> and grid_center_resolved.<method>.d<d>
    of every (method, d) grid; raises ValueError for a grid no run can use."""
    items = {}
    for d in config.dims:
        for method in config.methods:
            gamma, center, _ = resolve_grid(config, method, d)
            items[f"gamma_resolved.d{d}"] = repr(gamma)
            items[f"grid_center_resolved.{method}.d{d}"] = repr(center)
    return items


def _numeric_environment() -> list[str]:
    """`key=value` facts that can change floating-point results or timings:
    numpy's version and BLAS, the core count, the BLAS thread variables
    (`unset` if not set), and scipy's version if the run loaded scipy
    (`not loaded` otherwise; scipy is never imported to find out)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy = sys.modules.get("scipy")
    return [
        f"numpy={np.__version__}",
        f"blas={blas.get('name')} {blas.get('version')}",
        f"nproc={os.cpu_count()}",
        *(f"{name}={os.environ.get(name, 'unset')}"
          for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")),
        f"scipy={scipy.__version__ if scipy is not None else 'not loaded'}",
    ]


def write_manifest(path: str, config: ExperimentConfig, elapsed_seconds: float,
                   failures: Sequence[str], grids: dict[str, str]) -> None:
    """Resolved config and grids (see grid_items), versions, and generator
    name; wall-clock and the numeric environment (see _numeric_environment)
    in the `#` header lines.

    The sorted key=value lines are followed by one `run_failed.<k>` line per
    failure reason, k = 1, 2, ... in CSV row order.
    """
    lines = [
        f"# generated_at={datetime.datetime.now(datetime.timezone.utc).isoformat()}",
        f"# elapsed_seconds={elapsed_seconds:.3f}",
        *(f"# {fact}" for fact in _numeric_environment()),
    ]
    items = {**dict(config.manifest_items()), **grids, "library_version": __version__,
             "rng_algorithm": rng.GENERATOR_NAME, "init_distribution": _INIT_DISTRIBUTIONS[config.experiment]}
    if "gd" in config.methods:
        items["gd_eta_convention"] = "absorbs the kernel prefactor C*gamma**(2-d)"
    lines.extend(f"{key}={value}" for key, value in sorted(items.items()))
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

    Raises ValueError at the first row without one cell per HEADER column
    or whose ok row's value is not a number.
    """
    groups: dict[tuple, list[float]] = {}
    for row in rows:
        if len(row) != len(HEADER):
            raise ValueError(f"expected {len(HEADER)} cells, got {len(row)}")
        record = dict(zip(HEADER, row))
        if record["status"] != "ok" or record["seed"] == "":
            continue
        key = (record["experiment"], record["method"], record["d"], record["n"],
               record["eta"], record["epsilon"], record["gamma"], record["step"], record["metric"])
        try:
            value = float(record["value"])
        except ValueError:
            raise ValueError(f"value {record['value']!r} of an ok row is not a number") from None
        groups.setdefault(key, []).append(value)
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

