"""Evaluation metrics: Gaussian fits, closed-form KL, exact Wasserstein, pose errors."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .flow import _each_member, _require
from .pose import PoseState


@dataclass(frozen=True)
class GaussianSummary:
    """Mean vector and covariance matrix, fitted to particles or analytic,
    or a stack of them.

    A stack carries a leading axis: means (k, d) and covariances
    (k, d, d). `GaussianSummary.stack` builds one, and indexing a stack
    gives its members or a sub-stack. `ridge` records the diagonal
    regularization applied by `fit_gaussian`, one per member of a fitted
    stack (None for analytic summaries, stacks built by `stack` and what
    indexing takes out); it is logged per run because it affects
    downstream KL values. Mean and covariance are read-only copies, so the
    Cholesky factor cached on first use cannot go stale. Construction
    raises ValueError on non-finite or asymmetric input, naming a stack's
    first such member.
    """

    mean: np.ndarray
    covariance: np.ndarray
    ridge: float | np.ndarray | None = None

    def __post_init__(self) -> None:
        mean = np.array(self.mean, dtype=np.float64, copy=True)
        cov = np.array(self.covariance, dtype=np.float64, copy=True)
        if mean.ndim not in (1, 2):
            raise ValueError(f"mean must be 1-d (2-d for a stack), got shape {mean.shape}")
        d = mean.shape[-1]
        if cov.shape != mean.shape + (d,):
            raise ValueError(f"covariance must be {mean.shape + (d,)}, got {cov.shape}")
        _require(np.isfinite(mean).all(axis=-1) & np.isfinite(cov).all(axis=(-2, -1)),
                 lambda at: "mean and covariance must not contain infs or NaNs")
        asym = np.abs(cov - np.swapaxes(cov, -1, -2)).max(axis=(-2, -1), initial=0.0)
        scale = np.abs(cov).max(axis=(-2, -1), initial=1.0)  # max(1, max |S_ij|)
        _require(asym <= 1e-12 * scale, lambda at: f"covariance asymmetric: max |S - S^T| = {asym[at]:g}")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @classmethod
    def stack(cls, summaries) -> GaussianSummary:
        """The summaries, all of one dimension, stacked along a new leading axis."""
        return cls(np.stack([s.mean for s in summaries]), np.stack([s.covariance for s in summaries]))

    def __getitem__(self, index) -> GaussianSummary:
        """A stack's member (an int index) or sub-stack (a slice or a list of
        indices), which factors itself on first use."""
        if self.mean.ndim != 2:
            raise TypeError("only a stack of summaries can be indexed")
        return GaussianSummary(self.mean[index], self.covariance[index])

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]

    @cached_property
    def cholesky(self) -> tuple[np.ndarray, float | np.ndarray]:
        """(lower Cholesky factor, ln det covariance), computed on first use;
        a stack is factored in one batched call and gets one of each per member.

        Raises LinAlgError if a covariance is not positive definite and
        ValueError if a factor is not finite; neither outcome is cached.
        """
        factor = np.linalg.cholesky(self.covariance)
        _require(np.isfinite(factor), lambda at: "covariance has a non-finite Cholesky factor", 2)
        factor.setflags(write=False)
        logdet = 2.0 * np.sum(np.log(np.diagonal(factor, axis1=-2, axis2=-1)), axis=-1)
        return factor, float(logdet) if logdet.ndim == 0 else logdet

    @cached_property
    def inverse_factor(self) -> np.ndarray:
        """Inverse of the lower Cholesky factor (of each stacked member),
        computed on first use, in one batched call for a stack; every KL
        that takes this summary as its reference applies it."""
        inverse = np.linalg.inv(self.cholesky[0])
        inverse.setflags(write=False)
        return inverse


@dataclass(frozen=True)
class AssignmentResult:
    """Minimizing permutation and total (unaveraged) cost of an assignment."""

    permutation: np.ndarray  # permutation[i] = index matched to point i
    total_cost: float


def default_ridge(covariance: np.ndarray) -> float | np.ndarray:
    """Trace-scaled diagonal loading: 1e-6 * tr(S)/d + 1e-12, one per
    member of a (k, d, d) stack."""
    cov = np.asarray(covariance, dtype=np.float64)
    return 1e-6 * np.trace(cov, axis1=-2, axis2=-1) / cov.shape[-1] + 1e-12


def fit_gaussian(particles: np.ndarray) -> GaussianSummary:
    """Sample mean and unbiased sample covariance plus ridge * I, of an
    (n, d) particle set or of each member of a (k, n, d) stack.

    With n close to or below d the raw sample covariance is singular; the
    ridge (see `default_ridge`) keeps the fit usable for KL. Requires
    n >= 2. A stack is fitted in one pass and gives one stacked summary,
    with one ridge per member; each member has the bits of a fit of that
    member alone, and a fit that fails for a member raises a `MemberError`
    naming it, whose reason is the message the member gives alone.
    """
    x = np.asarray(particles, dtype=np.float64)
    if x.ndim not in (2, 3):
        raise ValueError(f"particles must be an (n, d) array (a (k, n, d) array for a stack), got shape {x.shape}")
    n, d = x.shape[-2:]
    if n < 2:
        raise ValueError(f"need at least 2 particles to fit a Gaussian, got {n}")
    mean = x.mean(axis=-2)
    centered = x - mean[..., None, :]
    cov = np.swapaxes(centered, -1, -2) @ centered / (n - 1)
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    ridge = default_ridge(cov)
    cov = cov + ridge[..., None, None] * np.eye(d)
    return GaussianSummary(mean, cov, ridge=ridge)


def _factor(g: GaussianSummary, name: str) -> tuple[np.ndarray, float | np.ndarray]:
    """g's cached Cholesky factor and log-determinant, or a ValueError that
    names the argument and gives the eigenvalue range (a `MemberError` of a
    stack's first member that is not positive definite)."""
    try:
        return g.cholesky
    except np.linalg.LinAlgError:
        pass
    if g.mean.ndim == 2:
        _each_member(lambda i: _factor(g[i], name), g.mean.shape[:1])
    eigs = np.linalg.eigvalsh(g.covariance)
    raise ValueError(
        f"{name} covariance is not positive definite "
        f"(eigenvalues in [{eigs.min():g}, {eigs.max():g}])"
    )


def kl_gaussians(p: GaussianSummary, q: GaussianSummary) -> float | np.ndarray:
    """KL(p || q) between multivariate Gaussians in closed form.

    0.5 * [tr(Sq^-1 Sp) + (mq - mp)^T Sq^-1 (mq - mp) - d
           + ln det Sq - ln det Sp]

    evaluated through Cholesky factors; neither covariance is explicitly
    inverted. The triangular solves are products with the inverse of q's
    factor (`GaussianSummary.inverse_factor`). Each summary is factored
    once, on first use, its factor inverted once, when it is first the
    reference q, and both are reused by every later KL it enters. p and q
    may also be stacks of equal length: the result is then an array of one
    KL per stacked pair, from one batched Cholesky per stack, and each
    member's KL has the bits the same pair gives as two single summaries,
    since both take the same route. Raises ValueError with an eigenvalue
    diagnostic if a covariance is not positive definite, and ValueError on
    non-finite input, on a KL that is not finite (a term overflowed) and on
    a KL below -1e-8. For stacks it is a `MemberError` whose reason is the
    message member i gives on its own, for one failing member i (not
    always the lowest: q is factored before p, and each check names the
    first member that fails it, as `flow._require` does).
    """
    if p.mean.shape != q.mean.shape:
        raise ValueError(f"shape mismatch: mean {p.mean.shape} vs {q.mean.shape}")
    d = p.dim
    _, logdet_q = _factor(q, "second (reference)")
    lp, logdet_p = _factor(p, "first")
    shift = q.mean - p.mean
    _require(np.isfinite(shift), lambda at: "mean difference must not contain infs or NaNs", 1)
    a = q.inverse_factor @ lp
    u = (q.inverse_factor @ shift[..., None])[..., 0]
    maha = np.sum(u * u, axis=-1)
    kl = 0.5 * (np.sum(a * a, axis=(-2, -1)) + maha - d + logdet_q - logdet_p)
    _require(np.isfinite(kl), lambda at: f"KL evaluated to {kl[at]:g}; a term overflowed")
    _require(kl >= -1e-8, lambda at: f"KL evaluated to {kl[at]:g} < 0; inputs are inconsistent")
    kl = np.maximum(kl, 0.0)
    return float(kl) if kl.ndim == 0 else kl


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
    # imported here: no protocol calls this (the tests use it as an oracle), and
    # at module level scipy.optimize would load at the start-up of every CLI call
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
