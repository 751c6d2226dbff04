"""Gronwall-type divergence bound for perturbed flows, with an empirical check.

Two equal-size particle sets evolve under a linear field F(x) = A x and a
perturbed field F(x) + delta_i. If the per-point field discrepancy is at
most eps / N, L_F is the field's Lipschitz constant and L_d the metric's,
the assignment-form Wasserstein distance obeys

    W(t) <= (W(0) + eps / L_F) * exp(L_d * L_F * t) - eps / L_F.

The distance is Euclidean, so L_d = 1 throughout. `perturbed_flow_check`
integrates both sets with Euler steps and compares their index-matched
distance (`_matched_distance`) against the bound at many checkpoints.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng

# `perturbed_flow_check` records a checkpoint every steps // N_CHECKPOINTS
# Euler steps, and at the last step.
N_CHECKPOINTS = 100


def gronwall_bound(initial_distance: float, discrepancy: float, field_lipschitz: float,
                   elapsed: float) -> float:
    """(W0 + eps/L_F) * exp(L_F * t) - eps/L_F.

    initial_distance: Wasserstein distance W0 of the two sets at time zero.
    discrepancy: N times the maximum pointwise field discrepancy (eps).
    field_lipschitz: Lipschitz constant L_F of the unperturbed field (> 0).
    elapsed: time t at which the bound is evaluated.
    """
    for name, value in (("initial_distance", initial_distance), ("discrepancy", discrepancy),
                        ("elapsed", elapsed)):
        if not value >= 0:
            raise ValueError(f"{name} must be nonnegative")
    if not field_lipschitz > 0:
        raise ValueError("field_lipschitz must be positive")
    ratio = discrepancy / field_lipschitz
    try:
        growth = math.exp(field_lipschitz * elapsed)
    except OverflowError:
        raise ValueError(f"exp(L_F * t) overflows at L_F * t = {field_lipschitz * elapsed:g}") from None
    return (initial_distance + ratio) * growth - ratio


def max_ratio(observed: np.ndarray, bounds: np.ndarray) -> float:
    """max_i observed_i / bounds_i, treating 0/0 as 0 and x/0 as infinity."""
    worst = 0.0
    for obs, bound in zip(np.asarray(observed, float), np.asarray(bounds, float)):
        if bound > 0.0:
            worst = max(worst, obs / bound)
        elif obs > 1e-12:
            return math.inf
    return worst


def check_time_step(t_end: float, dt: float) -> None:
    """Raise ValueError unless 0 < t_end < inf and 0 < dt <= 1e-3 * t_end,
    the Euler step whose error is negligible next to the bound's slack. A
    relative tolerance of 1e-7 lets dt = t_end / 1000 pass after rounding."""
    if not (0 < t_end < math.inf and dt > 0):
        raise ValueError(f"t_end and dt must be positive and t_end finite, got t_end={t_end}, dt={dt}")
    if dt > 1.0000001e-3 * t_end:
        raise ValueError(f"dt must be at most 1e-3 * t_end, got dt={dt}, t_end={t_end}")


def _matched_distance(x: np.ndarray, z: np.ndarray) -> float:
    """sum_i |x_i - z_i|, the optimal assignment when every z_i - x_i is one e:
    sum_i |x_i - z_pi(i)| >= |sum x - sum z| = N |e|. Squares add column by column,
    as in scipy's `cdist`, so it has the bits of `metrics.wasserstein_exact`'s cost."""
    squares = np.zeros(len(x))
    for column in (x - z).T:
        squares += column * column
    return float(np.sqrt(squares).sum())


@dataclass(frozen=True, eq=False)
class DivergenceCheckReport:
    """Checkpointed distances, bounds, and their worst ratio."""

    times: np.ndarray
    observed: np.ndarray
    bounds: np.ndarray
    max_ratio: float
    field_lipschitz: float
    initial_distance: float


def perturbed_flow_check(
    n_points: int,
    field: np.ndarray,
    eps: float,
    t_end: float,
    dt: float,
    seed: int,
) -> DivergenceCheckReport:
    """Euler-integrate exact and perturbed linear flows and bound their drift.

    Both sets start from the same seeded standard normal draw (their
    initial distance is zero). The perturbed set's field gains a fixed
    per-particle offset of norm eps / n_points along the field's top
    singular direction, the extremal arrangement that makes the measured
    distance track the bound tightly (and makes an understated Lipschitz
    constant detectable). The bound uses the spectral norm of the field
    matrix as its Lipschitz constant, which must be positive.

    Requires dt <= 1e-3 * t_end (`check_time_step`); overflow raises ValueError.
    """
    a = np.asarray(field, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"field must be a square matrix, got shape {a.shape}")
    if not 0 <= eps < math.inf:
        raise ValueError(f"eps must be {'finite' if eps > 0 else 'nonnegative'}, got {eps}")
    check_time_step(t_end, dt)
    d = a.shape[0]
    lipschitz = float(np.linalg.norm(a, 2))
    if not lipschitz > 0:
        raise ValueError("field_lipschitz must be positive")

    gen = rng.stream(seed, rng.FIELD_CHECK)
    x = gen.standard_normal((n_points, d))
    z = x.copy()
    if eps > 0:
        _, _, vt = np.linalg.svd(a)
        deltas = np.tile(vt[0], (n_points, 1)) * (eps / n_points)
    else:
        deltas = np.zeros((n_points, d))

    w0 = _matched_distance(x, z)
    steps = int(round(t_end / dt))
    every = max(1, steps // N_CHECKPOINTS)
    times, observed, bounds = [], [], []
    at = a.T
    for k in range(1, steps + 1):
        x = x + dt * (x @ at)
        z = z + dt * (z @ at + deltas)
        if k % every == 0 or k == steps:
            t = k * dt
            times.append(t)
            with np.errstate(over="ignore"):  # a distance that overflows is named below
                observed.append(_matched_distance(x, z))
            if not math.isfinite(observed[-1]):
                raise ValueError(f"matched distance is not finite ({observed[-1]}) at checkpoint time t={t:g}")
            bounds.append(gronwall_bound(w0, eps, lipschitz, t))
    times_arr = np.asarray(times)
    observed_arr = np.asarray(observed)
    bounds_arr = np.asarray(bounds)
    return DivergenceCheckReport(
        times=times_arr,
        observed=observed_arr,
        bounds=bounds_arr,
        max_ratio=max_ratio(observed_arr, bounds_arr),
        field_lipschitz=lipschitz,
        initial_distance=w0,
    )
