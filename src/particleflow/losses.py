"""Bundled loss models (negative log-likelihoods) and analytic posteriors.

Loss models are immutable and pure: `loss(t, x)` and `grad(t, x)` are
vectorized over leading batch axes, accepting `(d,)` or `(n, d)` states or
a `(k, n, d)` stack of ensembles and returning matching scalar/`(n,)`/
`(k, n)` and `x`-shaped results. Each stack member's results have the bits
of a call on that member alone, so a stack of runs needs one call per step.
Repeated calls with the same arguments return identical values.

`flow.evaluate_losses` calls `loss` and then `grad` on the same
`Ensemble.particles`. `pose.PoseRegistrationLoss` hands the rotations and
residuals its `loss` built on such a read-only array to that `grad` call
instead of building them again; every other input builds its own. No
result, and no bit of one, depends on whether they were reused.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .metrics import GaussianSummary


@dataclass(frozen=True)
class QuadraticProjectionLoss:
    """Per-step rank-one quadratic loss 0.5 * ((x - center) . dir_t)^2.

    Each step's minimizer set is the hyperplane through `center` orthogonal
    to that step's direction; across many random directions the common
    minimizer is `center` itself. The loss is invariant along directions
    orthogonal to dir_t and its gradient is parallel to dir_t.
    """

    center: np.ndarray  # (d,) hidden parameter
    directions: np.ndarray  # (T, d), one per step

    def __post_init__(self) -> None:
        c = np.asarray(self.center, dtype=np.float64)
        dirs = np.asarray(self.directions, dtype=np.float64)
        if c.ndim != 1 or dirs.ndim != 2 or dirs.shape[1] != c.shape[0]:
            raise ValueError("center must be (d,) and directions (T, d)")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "directions", dirs)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @property
    def n_steps(self) -> int:
        return self.directions.shape[0]

    def _direction(self, step_index: int) -> np.ndarray:
        if not 0 <= step_index < self.n_steps:
            raise ValueError(
                f"step_index {step_index} outside the observed range [0, {self.n_steps})"
            )
        return self.directions[step_index]

    def loss(self, step_index: int, x: np.ndarray) -> np.ndarray:
        # a stack's product is one GEMV per member: the bits of one row of a
        # GEMV depend on its place among the rows, so the member axis is kept
        proj = (np.asarray(x, dtype=np.float64) - self.center) @ self._direction(step_index)
        return 0.5 * proj * proj

    def grad(self, step_index: int, x: np.ndarray) -> np.ndarray:
        direction = self._direction(step_index)
        proj = (np.asarray(x, dtype=np.float64) - self.center) @ direction
        return np.multiply.outer(proj, direction)


def sample_synthetic_problem(dim: int, n_steps: int, seed: int) -> QuadraticProjectionLoss:
    """Seeded localization problem: center ~ N(0, I), directions iid N(0, I)."""
    if dim < 3:
        raise ValueError(f"dim must be >= 3, got {dim}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    gen = rng.stream(seed, rng.PROBLEM)
    center = gen.standard_normal(dim)
    directions = gen.standard_normal((n_steps, dim))
    return QuadraticProjectionLoss(center, directions)


def exact_posterior(loss: QuadraticProjectionLoss, upto_step: int) -> GaussianSummary:
    """Realized Gaussian posterior after the first `upto_step` observations.

    Under a standard normal prior the posterior is Gaussian with precision
    I + sum_s dir_s dir_s^T and mean precision^-1 (sum_s dir_s dir_s^T) center,
    for the directions actually sampled (not their expectation).
    upto_step = 0 returns the prior (exactly I and 0). The covariance is
    formed from the inverse of the precision's lower Cholesky factor L:
    precision^-1 = L^-T L^-1, the route `GaussianSummary.inverse_factor`
    takes, with numpy alone.
    """
    if not 0 <= upto_step <= loss.n_steps:
        raise ValueError(
            f"upto_step must be in [0, {loss.n_steps}], got {upto_step}"
        )
    d = loss.dim
    dirs = loss.directions[:upto_step]
    precision = np.eye(d) + dirs.T @ dirs
    inverse = np.linalg.inv(np.linalg.cholesky(precision))
    cov = inverse.T @ inverse
    mean = loss.center - cov @ loss.center
    return GaussianSummary(mean, 0.5 * (cov + cov.T))


def expected_posterior(center: np.ndarray, t: int) -> GaussianSummary:
    """Gaussian with precision (1 + t) I and mean t/(1 + t) * center.

    This is the posterior induced by the direction-averaged log density
    -0.5 |x|^2 - (t/2) |x - center|^2; at t = 0 it is the standard normal
    prior, and as t grows the mean tends to `center` while the covariance
    shrinks to zero.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    c = np.asarray(center, dtype=np.float64)
    d = c.shape[0]
    return GaussianSummary((t / (1.0 + t)) * c, np.eye(d) / (1.0 + t))
