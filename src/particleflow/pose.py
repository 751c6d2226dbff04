"""SE(3) pose states and a synthetic point-registration likelihood.

Poses live in flat R^6 as [translation, rotation vector]: the rotation
vector is axis * angle, so filters can move particles in unconstrained
Euclidean coordinates. Canonicalization to the minimal representative
(angle <= pi) happens only when a pose is read out, never while particles
are being moved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng


@dataclass(frozen=True)
class PoseState:
    """Rigid transform: translation in meters, rotation vector in radians."""

    translation: np.ndarray  # (3,)
    rotation: np.ndarray  # (3,) axis-angle

    def __post_init__(self) -> None:
        t = np.array(self.translation, dtype=np.float64, copy=True)
        w = np.array(self.rotation, dtype=np.float64, copy=True)
        if t.shape != (3,) or w.shape != (3,):
            raise ValueError("translation and rotation must both be 3-vectors")
        if not (np.isfinite(t).all() and np.isfinite(w).all()):
            raise ValueError("pose components must be finite")
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "rotation", w)

    def rotation_matrix(self) -> np.ndarray:
        from scipy.spatial.transform import Rotation  # see PoseRegistrationLoss._residuals

        return Rotation.from_rotvec(self.rotation).as_matrix()


def canonicalize_rotation_vector(w: np.ndarray) -> np.ndarray:
    """Wrap a rotation vector to the minimal representative.

    Reduces the angle modulo 2*pi into (-pi, pi] and rescales the vector,
    flipping its direction when the wrapped angle is negative. Half-turn
    rotations keep angle exactly pi (no shorter representative exists).
    Raises ValueError when the norm is not finite.
    """
    w = np.asarray(w, dtype=np.float64)
    angle = float(np.linalg.norm(w))
    if angle < math.pi:
        return w.copy()
    if not math.isfinite(angle):
        raise ValueError(f"rotation-vector norm overflowed to {angle} (components {w.tolist()})")
    wrapped = math.fmod(angle + math.pi, 2.0 * math.pi) - math.pi
    if wrapped == -math.pi:
        wrapped = math.pi
    return w * (wrapped / angle)


def pose_unpack(vector: np.ndarray) -> PoseState:
    """Flat 6-vector -> PoseState, canonicalizing the rotation vector."""
    v = np.asarray(vector, dtype=np.float64)
    if v.shape != (6,):
        raise ValueError(f"pose vector must have shape (6,), got {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("pose vector must be finite")
    return PoseState(v[:3], canonicalize_rotation_vector(v[3:]))


def mean_pose(particles: np.ndarray) -> PoseState:
    """Euclidean mean of pose particles, canonicalized at read-out."""
    return pose_unpack(np.asarray(particles, dtype=np.float64).mean(axis=0))


def random_rotation_vectors(gen: np.random.Generator, count: int) -> np.ndarray:
    """Rotation vectors of rotations drawn uniformly on SO(3) (via quaternions)."""
    from scipy.spatial.transform import Rotation  # see PoseRegistrationLoss._residuals

    quats = gen.standard_normal((count, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    return Rotation.from_quat(quats).as_rotvec()


def _skew(w: np.ndarray) -> np.ndarray:
    """Cross-product matrices for a batch of 3-vectors: (n, 3) -> (n, 3, 3)."""
    n = w.shape[0]
    s = np.zeros((n, 3, 3))
    s[:, 0, 1] = -w[:, 2]
    s[:, 0, 2] = w[:, 1]
    s[:, 1, 0] = w[:, 2]
    s[:, 1, 2] = -w[:, 0]
    s[:, 2, 0] = -w[:, 1]
    s[:, 2, 1] = w[:, 0]
    return s


def _right_jacobian(w: np.ndarray) -> np.ndarray:
    """Right Jacobian of the rotation-vector exponential map, batched.

    J(w) = I - (1 - cos t)/t^2 [w]x + (t - sin t)/t^3 [w]x^2 with t = |w|;
    series coefficients are used below t = 1e-4 to avoid cancellation.
    """
    theta = np.linalg.norm(w, axis=1)
    t2 = theta * theta
    small = theta < 1e-4
    safe_t2 = np.where(small, 1.0, t2)
    a = np.where(small, 0.5 - t2 / 24.0, (1.0 - np.cos(theta)) / safe_t2)
    b = np.where(small, 1.0 / 6.0 - t2 / 120.0, (theta - np.sin(theta)) / (safe_t2 * np.where(small, 1.0, theta)))
    s = _skew(w)
    s2 = s @ s
    eye = np.broadcast_to(np.eye(3), s.shape)
    return eye - a[:, None, None] * s + b[:, None, None] * s2


def noise_variance(sigma: float) -> float:
    """sigma * sigma of the registration loss, taking sigma = 0 (noise-free
    observations, whose residual is left unscaled) as 1."""
    s = sigma if sigma > 0 else 1.0
    return s * s


@dataclass(frozen=True)
class PoseRegistrationLoss:
    """Point-set registration negative log-likelihood over flat R^6 poses.

    loss(x) = 1/(2 sigma^2) * sum_k |R(w) m_k + T - o_k|^2 for
    x = [T, w], with model points m_k and observed points o_k in fixed
    correspondence. With sigma = 0 the observations are noise-free and the
    residual is left unscaled. The generating pose is kept for evaluation
    only; it never enters loss or gradient.
    """

    model_points: np.ndarray  # (K, 3)
    observed_points: np.ndarray  # (K, 3)
    sigma: float
    true_pose: PoseState

    def __post_init__(self) -> None:
        m = np.asarray(self.model_points, dtype=np.float64)
        o = np.asarray(self.observed_points, dtype=np.float64)
        if m.ndim != 2 or m.shape[1] != 3 or m.shape != o.shape:
            raise ValueError("model and observed points must be matching (K, 3) arrays")
        if m.shape[0] < 3:
            raise ValueError(f"need at least 3 point correspondences, got {m.shape[0]}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")
        object.__setattr__(self, "model_points", m)
        object.__setattr__(self, "observed_points", o)

    @property
    def dim(self) -> int:
        return 6

    @property
    def _scale(self) -> float:
        return 1.0 / noise_variance(self.sigma)

    def _residuals(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rotation matrices (n, 3, 3) and residuals resid[n, i, k] of
        R(w_n) m_k + T_n - o_k, coordinate-major so that every reduction
        runs along the K points."""
        # imported here: at module level scipy.spatial would load at the
        # start-up of every CLI call, also of the protocols that never pose
        from scipy.spatial.transform import Rotation

        n = x.shape[0]
        # copy: from_rotvec needs a writable, contiguous buffer and x may be
        # a read-only ensemble view
        rot = Rotation.from_rotvec(np.array(x[:, 3:], dtype=np.float64)).as_matrix()
        rotated = (rot.reshape(3 * n, 3) @ self.model_points.T).reshape(n, 3, -1)  # one GEMM
        return rot, rotated + x[:, :3, None] - self.observed_points.T

    def loss(self, step_index: int, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        _, resid = self._residuals(x)
        values = 0.5 * self._scale * np.einsum("nik,nik->n", resid, resid)
        return float(values[0]) if single else values

    def grad(self, step_index: int, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        n = x.shape[0]
        rot, resid = self._residuals(x)
        grad_t = self._scale * resid.sum(axis=2)
        # torque = sum_k m_k x (R^T r_k) has components eps_abc M_bc with
        # M = (sum_k m_k r_k^T) R: one GEMM over the K points, one 3x3
        # product per particle, then the antisymmetric part of M
        moments = (resid.reshape(3 * n, -1) @ self.model_points).reshape(n, 3, 3)  # (sum_k r_k m_k^T)
        mixed = np.matmul(moments.transpose(0, 2, 1), rot)
        torque = mixed[:, [1, 2, 0], [2, 0, 1]] - mixed[:, [2, 0, 1], [1, 2, 0]]
        # J^T torque with J in matrix form: expanding it into nested cross
        # products overflows for huge rotation vectors where this stays finite
        jac = _right_jacobian(x[:, 3:])
        grad_w = self._scale * np.matmul(torque[:, None, :], jac)[:, 0]
        out = np.concatenate([grad_t, grad_w], axis=1)
        return out[0] if single else out


def make_pose_problem(n_points: int, sigma: float, seed: int) -> PoseRegistrationLoss:
    """Seeded synthetic registration problem.

    Model points are uniform in the centered unit cube, the ground-truth
    rotation is uniform on SO(3), the translation uniform in
    [-0.5, 0.5]^3, and observed points are the transformed model points
    plus N(0, sigma^2 I) noise. Regeneration from (n_points, sigma, seed)
    is deterministic.
    """
    if n_points < 3:
        raise ValueError(f"pose problems need at least 3 points, got {n_points}")
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    gen = rng.stream(seed, rng.POSE_PROBLEM)
    model = gen.uniform(-0.5, 0.5, size=(n_points, 3))
    rotation = random_rotation_vectors(gen, 1)[0]
    translation = gen.uniform(-0.5, 0.5, size=3)
    noise = gen.standard_normal((n_points, 3))
    truth = PoseState(translation, rotation)
    observed = model @ truth.rotation_matrix().T + translation + sigma * noise
    return PoseRegistrationLoss(model, observed, sigma, truth)
