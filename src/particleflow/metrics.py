"""Evaluation metrics: Gaussian fits, closed-form KL, exact Wasserstein, pose errors."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .pose import PoseState


@dataclass(frozen=True)
class GaussianSummary:
    """Mean vector and covariance matrix, fitted to particles or analytic.

    `ridge` records the diagonal regularization applied by `fit_gaussian`
    (None for analytic summaries); it is logged per run because it affects
    downstream KL values. Mean and covariance are read-only copies, so the
    Cholesky factor cached on first use cannot go stale. Construction
    raises ValueError on non-finite or asymmetric input.
    """

    mean: np.ndarray
    covariance: np.ndarray
    ridge: float | None = None

    def __post_init__(self) -> None:
        mean = np.array(self.mean, dtype=np.float64, copy=True)
        cov = np.array(self.covariance, dtype=np.float64, copy=True)
        if mean.ndim != 1:
            raise ValueError(f"mean must be 1-d, got shape {mean.shape}")
        d = mean.shape[0]
        if cov.shape != (d, d):
            raise ValueError(f"covariance must be ({d}, {d}), got {cov.shape}")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("mean and covariance must not contain infs or NaNs")
        asym = float(np.abs(cov - cov.T).max(initial=0.0))
        scale = max(1.0, float(np.abs(cov).max(initial=0.0)))
        if asym > 1e-12 * scale:
            raise ValueError(f"covariance asymmetric: max |S - S^T| = {asym:g}")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @cached_property
    def cholesky(self) -> tuple[np.ndarray, float]:
        """(lower Cholesky factor, ln det covariance), computed on first use.

        Raises LinAlgError if the covariance is not positive definite and
        ValueError if the factor is not finite; neither outcome is cached.
        """
        factor = np.linalg.cholesky(self.covariance)
        if not np.isfinite(factor).all():
            raise ValueError("covariance has a non-finite Cholesky factor")
        factor.setflags(write=False)
        return factor, 2.0 * float(np.sum(np.log(np.diag(factor))))


@dataclass(frozen=True)
class AssignmentResult:
    """Minimizing permutation and total (unaveraged) cost of an assignment."""

    permutation: np.ndarray  # permutation[i] = index matched to point i
    total_cost: float


def default_ridge(covariance: np.ndarray) -> float:
    """Trace-scaled diagonal loading: 1e-6 * tr(S)/d + 1e-12."""
    cov = np.asarray(covariance, dtype=np.float64)
    return 1e-6 * float(np.trace(cov)) / cov.shape[0] + 1e-12


def fit_gaussian(particles: np.ndarray) -> GaussianSummary:
    """Sample mean and unbiased sample covariance plus ridge * I.

    With n close to or below d the raw sample covariance is singular; the
    ridge (see `default_ridge`) keeps the fit usable for KL. Requires an
    (n, d) array with n >= 2.
    """
    x = np.asarray(particles, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"particles must be an (n, d) array, got shape {x.shape}")
    n, d = x.shape
    if n < 2:
        raise ValueError(f"need at least 2 particles to fit a Gaussian, got {n}")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n - 1)
    cov = 0.5 * (cov + cov.T)
    ridge = default_ridge(cov)
    cov = cov + ridge * np.eye(d)
    return GaussianSummary(mean, cov, ridge=ridge)


def _factor(g: GaussianSummary, name: str) -> tuple[np.ndarray, float]:
    """g's cached Cholesky factor and log-determinant, or a ValueError that
    names the argument and gives the eigenvalue range."""
    try:
        return g.cholesky
    except np.linalg.LinAlgError:
        eigs = np.linalg.eigvalsh(g.covariance)
        raise ValueError(
            f"{name} covariance is not positive definite "
            f"(eigenvalues in [{eigs.min():g}, {eigs.max():g}])"
        ) from None


def _solve_lower(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """factor^-1 b for a C-ordered lower triangular factor.

    The LAPACK call `scipy.linalg.solve_triangular(factor, b, lower=True)`
    makes for such a factor (the transposed upper system in Fortran order),
    without its per-call validation; the factor is checked finite when it
    is computed.
    """
    x, info = dtrtrs(factor.T, b, lower=0, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dtrtrs")
    return x


def kl_gaussians(p: GaussianSummary, q: GaussianSummary) -> float:
    """KL(p || q) between multivariate Gaussians in closed form.

    0.5 * [tr(Sq^-1 Sp) + (mq - mp)^T Sq^-1 (mq - mp) - d
           + ln det Sq - ln det Sp]

    evaluated through Cholesky factors; neither covariance is explicitly
    inverted. Each summary is factored once, on first use, and its factor
    and log-determinant are reused by every later KL it enters. Raises
    ValueError with an eigenvalue diagnostic if either covariance is not
    positive definite, and ValueError on non-finite input.
    """
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    d = p.dim
    lq, logdet_q = _factor(q, "second (reference)")
    lp, logdet_p = _factor(p, "first")
    a = _solve_lower(lq, lp)
    trace_term = float(np.sum(a * a))
    shift = q.mean - p.mean
    if not np.isfinite(shift).all():
        raise ValueError("mean difference must not contain infs or NaNs")
    u = _solve_lower(lq, shift)
    maha = float(u @ u)
    kl = 0.5 * (trace_term + maha - d + logdet_q - logdet_p)
    if kl < -1e-8:
        raise ValueError(f"KL evaluated to {kl:g} < 0; inputs are inconsistent")
    return max(kl, 0.0)


def wasserstein_exact(a: np.ndarray, b: np.ndarray) -> AssignmentResult:
    """Assignment-form Wasserstein distance between equal-size point sets.

    Solves min over permutations pi of sum_i |a_i - b_pi(i)| exactly
    with an O(N^3) assignment solver and returns the minimizing
    permutation together with the total cost (a plain sum over the N
    matched pairs, no 1/N averaging).
    """
    xa = np.asarray(a, dtype=np.float64)
    xb = np.asarray(b, dtype=np.float64)
    if xa.ndim != 2 or xb.ndim != 2:
        raise ValueError("point sets must be (n, d) arrays")
    if xa.shape[0] != xb.shape[0]:
        raise ValueError(
            f"point sets must have equal size, got {xa.shape[0]} and {xb.shape[0]}"
        )
    # imported here: only the theorem protocol needs them, and at module level
    # scipy.optimize would load at the start-up of every CLI call
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    cost = cdist(xa, xb)
    if not np.isfinite(cost).all():
        raise ValueError("non-finite pairwise distances")
    rows, cols = linear_sum_assignment(cost)
    return AssignmentResult(permutation=cols.copy(), total_cost=float(cost[rows, cols].sum()))


def _quaternion(rotvec: np.ndarray) -> tuple[float, float, float, float]:
    """Unit quaternion (w, x, y, z) of a rotation vector."""
    x, y, z = rotvec.tolist()
    angle = math.hypot(x, y, z)
    # sin(angle / 2) / angle, by its series where the quotient loses digits
    scale = 0.5 - angle * angle / 48.0 if angle < 1e-4 else math.sin(0.5 * angle) / angle
    return math.cos(0.5 * angle), scale * x, scale * y, scale * z


def pose_errors(estimate: PoseState, truth: PoseState) -> tuple[float, float]:
    """Translation error in centimeters and signed geodesic rotation error in degrees.

    The relative rotation R_true^T R_est is the quaternion
    q = conj(q_true) * q_est = (w, v), and its angle is
    theta = 2 atan2(|v|, |w|). After q is flipped to w >= 0, the sign of
    the error is that of v projected onto the ground-truth rotation vector
    (positive when the ground truth does not rotate, or when the estimate
    matches exactly).
    """
    translation_cm = 100.0 * float(np.linalg.norm(estimate.translation - truth.translation))
    a, ux, uy, uz = _quaternion(truth.rotation)
    b, vx, vy, vz = _quaternion(estimate.rotation)
    # (a, -u) * (b, v) = (ab + u.v, a v - b u - u x v)
    w = a * b + ux * vx + uy * vy + uz * vz
    x = a * vx - b * ux - (uy * vz - uz * vy)
    y = a * vy - b * uy - (uz * vx - ux * vz)
    z = a * vz - b * uz - (ux * vy - uy * vx)
    half_sine = math.hypot(x, y, z)
    if half_sine == 0.0:
        return translation_cm, 0.0
    degrees = math.degrees(2.0 * math.atan2(half_sine, abs(w)))
    tx, ty, tz = truth.rotation.tolist()
    projection = x * tx + y * ty + z * tz
    if w < 0.0:  # flipping q to w >= 0 reverses v
        projection = -projection
    if projection < 0.0:
        degrees = -degrees
    return translation_cm, degrees
