"""Comparison baselines: Monte Carlo localization and per-particle gradient descent."""
from __future__ import annotations

import numpy as np

from . import rng
from .flow import Ensemble, _checked_grads, _checked_losses, _per_member


def systematic_resample(weights: np.ndarray, offset: float) -> np.ndarray:
    """Indices of a systematic (low-variance) resample, in ascending order.

    Particle i first gets floor(n * w_i) copies. One uniform offset in
    [0, 1) then places the remaining copies at positions offset + j along
    the cumulative residuals n * w_i - floor(n * w_i), each shorter than
    one, so the copy count of particle i is always floor(n * w_i) or
    ceil(n * w_i), also when rounding ties weights. In exact arithmetic
    this is the stratification of the cumulative weights at positions
    (offset + j) / n.

    (n,) weights give (n,) indices; a (k, n) stack of rows sharing the
    offset gives (k, n), each row those it gives alone. Particle i gets
    the positions below its cumulative residual and not below i - 1's,
    and the last one every position left, closing its interval against
    rounding.
    """
    w = np.asarray(weights, dtype=np.float64)
    if not 0.0 <= offset < 1.0:
        raise ValueError(f"offset must lie in [0, 1), got {offset}")
    n = w.shape[-1]
    scaled = n * w
    whole = np.floor(scaled)
    extra = n - whole.sum(axis=-1, keepdims=True).astype(np.intp)
    # positions offset + j below each cumulative residual, of the first extra
    below = np.minimum(np.searchsorted(offset + np.arange(n), np.cumsum(scaled - whole, axis=-1)), extra)
    below[..., -1:] = extra
    counts = whole.astype(np.intp) + np.diff(below, axis=-1, prepend=0)
    return np.repeat(np.broadcast_to(np.arange(n), w.shape).ravel(), counts.ravel()).reshape(w.shape)


def mcl_step(ensemble: Ensemble, loss_model, epsilon, seed: int) -> Ensemble:
    """One motion / weight / resample cycle of Monte Carlo localization.

    Motion adds N(0, epsilon I) noise from the (seed, step) keyed stream;
    epsilon > 0 is the variance scale that grid searches sweep for this
    baseline. Weights are proportional to exp(-loss) computed stably by
    shifting the minimum loss to zero before exponentiating (the best
    particle always keeps weight 1, so total weight cannot underflow to
    zero); systematic resampling with a single seeded uniform offset
    returns n particles. Resampling leaves the weights uniform, so
    particles enter and leave a step unweighted. Deterministic per
    (seed, step index).

    A stack takes one epsilon for all members or one per member. It draws
    the step's normal block and offset once, makes one loss call and
    resamples every member in one `systematic_resample` call, each
    member's weights normalized along its own row, so each member gets
    the bits it would get stepped alone with the same seed.
    """
    epsilons = _per_member(epsilon, ensemble, "epsilon")
    t, particles = ensemble.step_index, ensemble.particles
    gen = rng.stream(seed, rng.MOTION, t)
    moved = particles + np.sqrt(epsilons)[..., None, None] * gen.standard_normal(particles.shape[-2:])
    losses = _checked_losses(loss_model, t, moved)
    offset = float(gen.uniform())
    weights = (1.0 / ensemble.n) * np.exp(-(losses - losses.min(axis=-1, keepdims=True)))
    total = weights.sum(axis=-1, keepdims=True)
    assert (total > 0.0).all(), "degenerate weights: total underflowed despite min-shift"
    weights /= total
    indices = systematic_resample(weights, offset)
    return Ensemble(np.take_along_axis(moved, indices[..., None], axis=-2), t + 1)


def gradient_descent_step(ensemble: Ensemble, loss_model, eta) -> Ensemble:
    """Independent gradient step x <- x - eta * grad L_t(x) per particle.

    Equivalent to the particle flow with the attraction-repulsion term
    removed and the kernel prefactor C * gamma**(2-d) absorbed into eta.
    A stack takes one eta for all members or one per member and makes one
    gradient call for the whole stack; each member gets the bits it would
    get stepped alone.
    """
    etas = _per_member(eta, ensemble, "eta")
    t = ensemble.step_index
    grads = _checked_grads(loss_model, t, ensemble.particles)
    return Ensemble(ensemble.particles - etas[..., None, None] * grads, t + 1)
