"""Resampling-free particle flow filter core.

Particles track a Bayesian posterior by following a deterministic velocity
field with two parts:

* a gradient term ``-C * gamma**(2-d) * grad L(x_j)`` performing gradient
  descent on the current negative log-likelihood, and
* a pairwise attraction-repulsion term
  ``-C * sum_i (d-2) * Lt_i * (x_i - x_j) / (|x_j - x_i|^2 + gamma^2)**(d/2)``
  where ``Lt_i`` is particle i's loss minus the ensemble mean loss. It
  pulls particle j toward particles with below-average loss and pushes it
  away from particles with above-average loss.

``C`` is the normalizing constant of the Newtonian potential kernel
``K(r) = C * r**(2-d)`` (the Green's function of the Laplacian, defined for
d >= 3); ``gamma`` smooths the kernel so coincident particles interact
finitely. Both terms are scaled by a single step size ``eta``. A step is
synchronous: losses, the mean-loss normalizer, gradients, and all pairwise
interactions are evaluated at the pre-step positions, and the result does
not depend on the order in which particles are updated. There is no
resampling and no randomness anywhere in this module.

The pairwise term costs O(n^2 d) time and O(n d) memory. It is summed
from exact differences x_i - x_j (no Gram-matrix expansion, which cancels
badly for near-coincident particles), laid out coordinate-major so that
each array operation runs along the particle axis, in blocks of rows sized
by a fixed memory budget.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# Doubles of pair differences per interaction block (512 KB): blocks of
# rows stay cache-sized, and peak memory grows linearly with the ensemble.
_BUDGET = 1 << 16

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class FlowConfig:
    """Flow hyperparameters.

    dim: state dimension d; the kernel constant is singular below d = 3,
        so smaller dimensions are rejected outright.
    gamma: kernel smoothing length, > 0 (state units).
    eta: step size multiplying the whole velocity field, > 0.
    n_steps: number of filter iterations performed by `run`.
    """

    dim: int
    gamma: float
    eta: float
    n_steps: int = 1

    def __post_init__(self) -> None:
        if self.dim < 3:
            raise ValueError(f"dim must be >= 3 (kernel constant undefined below), got {self.dim}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")


@dataclass(frozen=True)
class Ensemble:
    """Immutable particle set at a discrete time index.

    Particle order only matters for reproducibility of floating-point
    reductions; filter output is equivariant under permutations.
    """

    particles: np.ndarray  # (n, d)
    step_index: int = 0

    def __post_init__(self) -> None:
        arr = np.array(self.particles, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError(
                f"particles must be an (n, d) array with n >= 1, got shape {np.shape(self.particles)}"
            )
        if not np.isfinite(arr).all():
            i, k = np.argwhere(~np.isfinite(arr))[0]
            raise ValueError(f"non-finite coordinate at particle {i}, component {k}")
        if self.step_index < 0:
            raise ValueError(f"step_index must be nonnegative, got {self.step_index}")
        arr.setflags(write=False)
        object.__setattr__(self, "particles", arr)

    @property
    def n(self) -> int:
        return self.particles.shape[0]

    @property
    def dim(self) -> int:
        return self.particles.shape[1]


@dataclass(frozen=True)
class LossEvaluation:
    """Losses and gradients of one ensemble at one time index.

    normalized_losses[i] = losses[i] - normalizer, where the normalizer is
    the ensemble mean loss; the normalized losses sum to zero up to
    rounding.
    """

    losses: np.ndarray  # (n,)
    grads: np.ndarray  # (n, d)
    normalizer: float
    normalized_losses: np.ndarray  # (n,)


def _log_kernel_constant(dim: int) -> float:
    """log C, with C = Gamma(d/2 + 1) / (d * (d - 2) * pi**(d/2)).

    Log space keeps large dimensions from overflowing intermediate
    factorials. Rejects dim < 3 where the expression is singular or
    undefined.
    """
    if dim < 3:
        raise ValueError(f"kernel constant requires dim >= 3, got {dim}")
    return (
        math.lgamma(dim / 2.0 + 1.0)
        - math.log(dim)
        - math.log(dim - 2)
        - (dim / 2.0) * math.log(math.pi)
    )


def kernel_constant(dim: int) -> float:
    """Constant C = Gamma(d/2 + 1) / (d * (d - 2) * pi**(d/2)) of the kernel."""
    return math.exp(_log_kernel_constant(dim))


def gradient_coefficient(dim: int, gamma: float) -> float:
    """Coefficient C * gamma**(2-d) of the gradient term, in log space.

    gamma**(2-d) grows explosively for small gamma in high dimension
    (gamma=0.1, d=10 already gives 1e8), so the product is formed from
    logarithms. Raises ValueError when it exceeds the largest float.
    Overall magnitude is otherwise the caller's concern, via eta.
    """
    log_c = _log_kernel_constant(dim)
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    exponent = log_c + (2.0 - dim) * math.log(gamma)
    if exponent > _LOG_FLOAT_MAX:
        raise ValueError(f"gradient coefficient C * gamma**(2-d) overflows (gamma={gamma}, dim={dim})")
    return math.exp(exponent)


def normalize_losses(losses) -> tuple[float, np.ndarray]:
    """Subtract the ensemble mean: returns (normalizer, centered losses)."""
    arr = np.asarray(losses, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise ValueError(f"losses must be a nonempty 1-d array, got shape {arr.shape}")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ValueError(f"non-finite loss at particle {bad[0]}")
    normalizer = float(arr.mean())
    return normalizer, arr - normalizer


def evaluate_losses(loss_model, ensemble: Ensemble) -> LossEvaluation:
    """Evaluate a loss model on every particle at the ensemble's time index."""
    t = ensemble.step_index
    x = ensemble.particles
    losses = np.asarray(loss_model.loss(t, x), dtype=np.float64)
    if losses.shape != (ensemble.n,):
        raise ValueError(f"loss model returned shape {losses.shape}, expected ({ensemble.n},)")
    bad = np.flatnonzero(~np.isfinite(losses))
    if bad.size:
        raise ValueError(f"non-finite loss for particle {bad[0]} at step {t}")
    grads = np.asarray(loss_model.grad(t, x), dtype=np.float64)
    if grads.shape != x.shape:
        raise ValueError(f"loss gradient has shape {grads.shape}, expected {x.shape}")
    bad = np.flatnonzero(~np.isfinite(grads).all(axis=1))
    if bad.size:
        raise ValueError(f"non-finite loss gradient for particle {bad[0]} at step {t}")
    normalizer, normalized = normalize_losses(losses)
    return LossEvaluation(losses, grads, normalizer, normalized)


def _interaction_sum(x: np.ndarray, normalized_losses: np.ndarray, gamma: float, dim: int) -> np.ndarray:
    """sum_i (d-2) * Lt_i * (x_i - x_j) / (|x_j - x_i|^2 + gamma^2)**(d/2).

    Works coordinate-major: x is transposed once to (d, n), and each block
    of rows j forms the exact differences diff[k, b, i] = x_ik - x_jk, so
    every numpy call runs along the long particle axis i rather than the
    short coordinate axis. A block holds as many rows as fit in _BUDGET
    doubles of differences, which keeps the temporaries in cache and at
    O(n * d) memory. The i = j summand is excluded, hence exactly zero.
    Each output entry is one einsum reduction over all i, whatever the
    block, so the result is bit-stable for any split of the rows.

    Raises ValueError naming the first particle pair (i, j) whose summand
    is not finite. A sum that overflows from finite summands is returned
    as is.
    """
    n, d = x.shape
    xt = np.ascontiguousarray(x.T)
    scaled = (dim - 2.0) * normalized_losses
    g2 = gamma * gamma
    rows = max(1, min(n, _BUDGET // (d * n)))
    out = np.empty_like(x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            diff = xt[:, None, :] - xt[:, start:stop, None]  # diff[k, b, i] = x_ik - x_(start+b)k
            sq = np.einsum("kbi,kbi->bi", diff, diff)
            w = scaled / (sq + g2) ** (0.5 * dim)
            w[np.arange(stop - start), np.arange(start, stop)] = 0.0
            out[start:stop] = np.einsum("bi,kbi->bk", w, diff)
            if not np.isfinite(out[start:stop]).all():
                bad = np.argwhere(~np.isfinite(w[None, :, :] * diff).all(axis=0))
                if bad.size:
                    b, i = bad[0]
                    raise ValueError(f"non-finite interaction term for particle pair ({i}, {start + b})")
    return out


def flow_update(ensemble: Ensemble, evaluation: LossEvaluation, config: FlowConfig) -> np.ndarray:
    """Per-particle displacements eta * F(x_j) for one synchronous step.

    With a single particle the update is exactly the gradient term
    -eta * C * gamma**(2-d) * grads[j]; the pairwise term of a lone
    particle vanishes identically because its normalized loss is zero and
    the self-summand is excluded.

    Raises ValueError naming the first non-finite quantity, checked in
    this order: the gradient coefficient, a particle's gradient term, a
    particle pair's interaction term, a particle's summed displacement.
    """
    x = ensemble.particles
    n, d = x.shape
    if d != config.dim:
        raise ValueError(f"ensemble dimension {d} != config dim {config.dim}")
    if evaluation.grads.shape != x.shape or evaluation.normalized_losses.shape != (n,):
        raise ValueError("loss evaluation does not match ensemble shape")
    coeff = config.eta * gradient_coefficient(d, config.gamma)
    if not math.isfinite(coeff):
        raise ValueError(
            f"gradient coefficient eta * C * gamma**(2-d) overflowed "
            f"(eta={config.eta}, gamma={config.gamma}, dim={d})"
        )
    displacements = (-coeff) * evaluation.grads
    if not np.isfinite(displacements).all():
        k = np.argwhere(~np.isfinite(displacements))[0, 0]
        raise ValueError(f"non-finite gradient term for particle {k}")
    if n > 1:
        pair = _interaction_sum(x, evaluation.normalized_losses, config.gamma, d)
        displacements = displacements + (-(config.eta * kernel_constant(d))) * pair
        if not np.isfinite(displacements).all():
            j = np.argwhere(~np.isfinite(displacements))[0, 0]
            raise ValueError(f"non-finite displacement for particle {j}")
    return displacements


def step(ensemble: Ensemble, loss_model, config: FlowConfig) -> Ensemble:
    """One synchronous filter step; returns a new ensemble, input untouched.

    All quantities are read from the pre-step ensemble and written to a
    fresh particle array, so the result is independent of any per-particle
    update order.
    """
    try:
        evaluation = evaluate_losses(loss_model, ensemble)
        displacements = flow_update(ensemble, evaluation, config)
    except ValueError as exc:
        raise ValueError(f"step {ensemble.step_index}: {exc}") from exc
    return Ensemble(ensemble.particles + displacements, ensemble.step_index + 1)


def run(
    initial: Ensemble,
    loss_model,
    config: FlowConfig,
    observer: Optional[Callable[[int, Ensemble], None]] = None,
) -> Ensemble:
    """Apply `step` config.n_steps times, aborting on the first failure.

    The observer, when given, is invoked after each step with
    (step_index, ensemble) so metrics can record trajectories. With fixed
    inputs the returned trajectory is bit-identical across runs.
    """
    ensemble = initial
    for _ in range(config.n_steps):
        ensemble = step(ensemble, loss_model, config)
        if observer is not None:
            observer(ensemble.step_index, ensemble)
    return ensemble
