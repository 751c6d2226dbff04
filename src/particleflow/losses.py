"""Bundled loss models (negative log-likelihoods) and analytic posteriors.

Loss models are immutable and pure: `loss(t, x)` and `grad(t, x)` are
vectorized over a leading batch axis, accepting `(d,)` or `(n, d)` states
and returning matching scalar/`(n,)` and `(d,)`/`(n, d)` results. Repeated
calls with the same arguments return identical values.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

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
    upto_step = 0 returns the prior.
    """
    if not 0 <= upto_step <= loss.n_steps:
        raise ValueError(
            f"upto_step must be in [0, {loss.n_steps}], got {upto_step}"
        )
    d = loss.dim
    dirs = loss.directions[:upto_step]
    precision = np.eye(d) + dirs.T @ dirs
    cho = scipy.linalg.cho_factor(precision, lower=True)
    cov = scipy.linalg.cho_solve(cho, np.eye(d))
    mean = loss.center - scipy.linalg.cho_solve(cho, loss.center)
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
