"""Comparison baselines: Monte Carlo localization and per-particle gradient descent."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .flow import Ensemble


@dataclass(frozen=True)
class MCLConfig:
    """Monte Carlo localization hyperparameters.

    epsilon is the variance scale of the isotropic Gaussian motion model;
    it is the quantity grid searches sweep for this baseline.
    """

    epsilon: float
    rng_seed: int

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")


def systematic_resample(weights: np.ndarray, offset: float) -> np.ndarray:
    """Indices of a systematic (low-variance) resample.

    One uniform offset in [0, 1) stratifies the cumulative weights at
    positions (offset + j) / n, so the copy count of particle i is always
    floor(n * w_i) or ceil(n * w_i).
    """
    w = np.asarray(weights, dtype=np.float64)
    if not 0.0 <= offset < 1.0:
        raise ValueError(f"offset must lie in [0, 1), got {offset}")
    n = w.shape[0]
    cumulative = np.cumsum(w)
    cumulative[-1] = 1.0  # close the last interval against rounding
    positions = (offset + np.arange(n)) / n
    return np.searchsorted(cumulative, positions, side="right")


def mcl_step(particles: np.ndarray, loss_model, config: MCLConfig, step_index: int) -> np.ndarray:
    """One motion / weight / resample cycle of Monte Carlo localization.

    Motion adds N(0, epsilon I) noise from the (seed, step) keyed stream;
    weights are proportional to exp(-loss) computed stably by shifting the
    minimum loss to zero before exponentiating (the best particle always
    keeps weight 1, so total weight cannot underflow to zero); systematic
    resampling with a single seeded uniform offset returns n particles.
    Resampling leaves the weights uniform, so particles enter and leave a
    step unweighted. Deterministic per (rng_seed, step_index).
    """
    gen = rng.stream(config.rng_seed, rng.MOTION, step_index)
    moved = particles + np.sqrt(config.epsilon) * gen.standard_normal(particles.shape)
    losses = np.asarray(loss_model.loss(step_index, moved), dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(losses))
    if bad.size:
        raise ValueError(f"non-finite loss for particle {bad[0]} at step {step_index}")
    weights = (1.0 / particles.shape[0]) * np.exp(-(losses - losses.min()))
    total = weights.sum()
    assert total > 0.0, "degenerate weights: total underflowed despite min-shift"
    weights /= total
    return moved[systematic_resample(weights, float(gen.uniform()))]


def gradient_descent_step(ensemble: Ensemble, loss_model, eta: float) -> Ensemble:
    """Independent gradient step x <- x - eta * grad L_t(x) per particle.

    Equivalent to the particle flow with the attraction-repulsion term
    removed and the kernel prefactor C * gamma**(2-d) absorbed into eta.
    """
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    t = ensemble.step_index
    grads = np.asarray(loss_model.grad(t, ensemble.particles), dtype=np.float64)
    if grads.shape != ensemble.particles.shape:
        raise ValueError(f"gradient shape {grads.shape} does not match particles")
    bad = np.flatnonzero(~np.isfinite(grads).all(axis=1))
    if bad.size:
        raise ValueError(f"non-finite gradient for particle {bad[0]} at step {t}")
    return Ensemble(ensemble.particles - eta * grads, ensemble.step_index + 1)
