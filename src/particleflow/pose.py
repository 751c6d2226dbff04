"""Flat SE(3) poses and a synthetic point-registration likelihood.

A pose is one flat array [translation, rotation vector] in R^6, from the
particles to the read-out: the rotation vector is axis * angle, so filters
move particles in unconstrained Euclidean coordinates. `mean_pose`
canonicalizes it to the minimal representative (angle <= pi) only at
read-out, never while particles are being moved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .flow import _each_member, _require


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


def mean_pose(particles: np.ndarray) -> np.ndarray:
    """Euclidean mean [translation, rotation vector] of pose particles,
    canonicalized at read-out: a fresh (6,) array of an (n, 6) set, (k, 6)
    of a (k, n, 6) stack, whose one mean gives each member the bits of a
    call on that member alone. A mean that is not finite, or whose
    rotation-vector norm overflows, raises ValueError; a stack's
    `MemberError` names a member with the message it gives alone. Every
    member's finiteness is checked before any is canonicalized, so a
    non-finite member is named before a lower one whose norm overflows.
    """
    x = np.asarray(particles, dtype=np.float64)
    means = x.mean(axis=-2)
    shape = means.shape[1:] if x.ndim == 3 else means.shape
    if shape != (6,):
        raise ValueError(f"pose vector must have shape (6,), got {shape}")
    _require(np.isfinite(means).all(axis=-1), lambda at: "pose vector must be finite")
    rotations = _each_member(lambda i: canonicalize_rotation_vector(means[i][3:]), means.shape[:-1])
    means[..., 3:] = np.reshape(rotations, means[..., 3:].shape)
    return means


def rotation_matrices(w: np.ndarray) -> np.ndarray:
    """Rotation matrices of a batch of rotation vectors: (n, 3) -> (n, 3, 3).

    Goes through the unit quaternion q = (sin(t/2)/t * w, cos(t/2)), t = |w|,
    taking the series 0.5 - t^2/48 + t^4/3840 for sin(t/2)/t where t <= 1e-3,
    and writes each entry as a sum of quaternion products. The operations
    and their order are those of scipy's Rotation.from_rotvec(w).as_matrix(),
    whose output this reproduces bit for bit.
    """
    return _rotation_matrices(w, _rotation_angles(w))


def _rotation_angles(w: np.ndarray) -> np.ndarray:
    """Angles |w| of a batch of rotation vectors, (n, 3) -> (n,), as
    sqrt(x*x + y*y + z*z): the bits of np.linalg.norm(w, axis=1)."""
    x, y, z = w[:, 0], w[:, 1], w[:, 2]
    return np.sqrt(x * x + y * y + z * z)


def _rotation_matrices(w: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """rotation_matrices(w), given the angles _rotation_angles(w)."""
    x, y, z = w[:, 0], w[:, 1], w[:, 2]
    half = 0.5 * angle
    small = angle <= 1e-3
    scale = np.sin(half) / np.where(small, 1.0, angle)
    a2 = angle[small] * angle[small]
    scale[small] = 0.5 - a2 / 48.0 + a2 * a2 / 3840.0
    qx, qy, qz, qw = scale * x, scale * y, scale * z, np.cos(half)
    x2, y2, z2, w2 = qx * qx, qy * qy, qz * qz, qw * qw
    xy, zw, xz, yw, yz, xw = qx * qy, qz * qw, qx * qz, qy * qw, qy * qz, qx * qw
    out = np.empty((w.shape[0], 9))
    out[:, 0] = x2 - y2 - z2 + w2
    out[:, 1] = 2.0 * (xy - zw)
    out[:, 2] = 2.0 * (xz + yw)
    out[:, 3] = 2.0 * (xy + zw)
    out[:, 4] = -x2 + y2 - z2 + w2
    out[:, 5] = 2.0 * (yz - xw)
    out[:, 6] = 2.0 * (xz - yw)
    out[:, 7] = 2.0 * (yz + xw)
    out[:, 8] = -x2 - y2 + z2 + w2
    return out.reshape(-1, 3, 3)


def random_rotation_vectors(gen: np.random.Generator, count: int) -> np.ndarray:
    """Rotation vectors of rotations drawn uniformly on SO(3) (via quaternions)."""
    quats = gen.standard_normal((count, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    return _quaternion_rotation_vectors(quats)


# math.atan2 row by row: np.arctan2 differs from the C library's atan2 in the
# last bit on some inputs
_atan2 = np.frompyfunc(math.atan2, 2, 1)


def _quaternion_rotation_vectors(quats: np.ndarray) -> np.ndarray:
    """Rotation vectors of nonzero quaternions (x, y, z, w): (n, 4) -> (n, 3).

    Each quaternion is normalized and flipped to w > 0 (a tie w = 0 is
    broken on x, then y, then z). Its angle is t = 2 atan2(|(x, y, z)|, w),
    and the rotation vector is t/sin(t/2) * (x, y, z), with the series
    2 + t^2/12 + 7 t^4/2880 where t <= 1e-3. The operations and their order
    are those of scipy's Rotation.from_quat(quats).as_rotvec(), whose output
    this reproduces bit for bit, so every seed keeps the rotations it drew.
    """
    x, y, z, w = quats.T
    q = quats / np.sqrt(x * x + y * y + z * z + w * w)[:, None]
    x, y, z, w = q.T  # views: they follow the flip below
    flip = (w < 0) | ((w == 0) & ((x < 0) | ((x == 0) & ((y < 0) | ((y == 0) & (z < 0))))))
    q[flip] = -q[flip]
    angle = 2 * _atan2(np.sqrt(x * x + y * y + z * z), w).astype(np.float64)
    small = angle <= 1e-3
    a2 = angle * angle
    scale = np.where(small, 2 + a2 / 12 + 7 * a2 * a2 / 2880, angle / np.where(small, 1.0, np.sin(angle / 2)))
    return scale[:, None] * q[:, :3]


# the six nonzero entries of the cross-product matrix [w]x, row-major:
# position in the flattened 3x3 matrix, component of w and its sign
_SKEW_AT = np.array([1, 2, 3, 5, 6, 7])
_SKEW_OF = np.array([2, 1, 2, 0, 1, 0])
_SKEW_SIGN = np.array([-1.0, 1.0, 1.0, -1.0, -1.0, 1.0])
_EYE = np.eye(3)


def _right_jacobian(w: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Right Jacobian of the rotation-vector exponential map, batched, given
    the angles theta = _rotation_angles(w).

    J(w) = I - (1 - cos t)/t^2 [w]x + (t - sin t)/t^3 [w]x^2 with t = |w|;
    series coefficients are used below t = 1e-4 to avoid cancellation.
    """
    n = w.shape[0]
    t2 = theta * theta
    small = theta < 1e-4
    safe_theta = np.where(small, 1.0, theta)
    safe_t2 = np.where(small, 1.0, t2)
    a = (1.0 - np.cos(theta)) / safe_t2
    b = (theta - np.sin(theta)) / (safe_t2 * safe_theta)
    a[small] = 0.5 - t2[small] / 24.0
    b[small] = 1.0 / 6.0 - t2[small] / 120.0
    s = np.zeros((n, 9))
    s[:, _SKEW_AT] = w[:, _SKEW_OF] * _SKEW_SIGN
    s = s.reshape(n, 3, 3)
    s2 = s @ s
    return _EYE - a[:, None, None] * s + b[:, None, None] * s2


def noise_variance(sigma: float) -> float:
    """sigma * sigma of the registration loss, taking sigma = 0 (noise-free
    observations, whose residual is left unscaled) as 1."""
    s = sigma if sigma > 0 else 1.0
    return s * s


@dataclass(frozen=True, eq=False)
class PoseRegistrationLoss:
    """Point-set registration negative log-likelihood over flat R^6 poses.

    loss(x) = 1/(2 sigma^2) * sum_k |R(w) m_k + T - o_k|^2 for
    x = [T, w], with model points m_k and observed points o_k in fixed
    correspondence. With sigma = 0 the observations are noise-free and the
    residual is left unscaled. The generating pose is kept for evaluation
    only; it never enters loss or gradient. loss and grad flatten a stack's
    poses into one batch, whose GEMMs give each pose the bits it gets in a
    batch of its own.

    Both build the same angles, rotations and residuals, so a loss call
    hands them to the next grad call on the same array object, which uses
    them once. Only a read-only array that owns its data takes part, such as
    Ensemble.particles, so every flow step builds them once. Any other input
    (writeable, a view, another object) builds its own, as does an array
    that is writeable again when grad is called. An array written in
    between (while writeable again, or through a view taken before it was
    made read-only) and read-only again is outside this rule. Results, and
    their bits, are the same either way; pickles and copies carry only the
    four fields.
    """

    model_points: np.ndarray  # (K, 3)
    observed_points: np.ndarray  # (K, 3)
    sigma: float
    true_pose: np.ndarray  # (6,) [translation, rotation vector]

    def __post_init__(self) -> None:
        m = np.asarray(self.model_points, dtype=np.float64)
        o = np.asarray(self.observed_points, dtype=np.float64)
        if m.ndim != 2 or m.shape[1] != 3 or m.shape != o.shape:
            raise ValueError("model and observed points must be matching (K, 3) arrays")
        if m.shape[0] < 3:
            raise ValueError(f"need at least 3 point correspondences, got {m.shape[0]}")
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be {'finite' if self.sigma > 0 else 'nonnegative'}, got {self.sigma}")
        object.__setattr__(self, "model_points", m)
        object.__setattr__(self, "observed_points", o)

    @property
    def dim(self) -> int:
        return 6

    @property
    def _scale(self) -> float:
        return 1.0 / noise_variance(self.sigma)

    def __getstate__(self) -> dict:
        # the hand-off between loss and grad is scratch, not state: a pickle
        # or copy holds the four fields only
        return {key: value for key, value in self.__dict__.items() if key != "_handoff"}

    def _residuals(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Angles |w_n| (n,), rotation matrices (n, 3, 3) and residuals
        resid[n, i, k] of R(w_n) m_k + T_n - o_k, coordinate-major so that
        every reduction runs along the K points."""
        n = x.shape[0]
        angle = _rotation_angles(x[:, 3:])
        rot = _rotation_matrices(x[:, 3:], angle)
        resid = (rot.reshape(3 * n, 3) @ self.model_points.T).reshape(n, 3, -1)  # one GEMM
        resid += x[:, :3, None]  # in place: no second and third (n, 3, K) temporary
        resid -= self.observed_points.T
        return angle, rot, resid

    def loss(self, step_index: int, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        terms = self._residuals(x.reshape(-1, 6))
        if x.flags.owndata and not x.flags.writeable:
            # flow.evaluate_losses asks for the gradient of the same
            # Ensemble.particles next: hand it these terms
            self.__dict__["_handoff"] = (x, terms)
        resid = terms[2]
        values = 0.5 * self._scale * np.einsum("nik,nik->n", resid, resid)
        return values.reshape(x.shape[:-1])[()]

    def grad(self, step_index: int, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        flat = x.reshape(-1, 6)
        n = flat.shape[0]
        handoff = self.__dict__.pop("_handoff", None)
        if handoff is not None and handoff[0] is x and not x.flags.writeable:
            angle, rot, resid = handoff[1]
        else:
            angle, rot, resid = self._residuals(flat)
        grad_t = self._scale * resid.sum(axis=2)
        # torque = sum_k m_k x (R^T r_k) has components eps_abc M_bc with
        # M = (sum_k m_k r_k^T) R: one GEMM over the K points, one 3x3
        # product per particle, then the antisymmetric part of M
        moments = (resid.reshape(3 * n, -1) @ self.model_points).reshape(n, 3, 3)  # (sum_k r_k m_k^T)
        mixed = np.matmul(moments.transpose(0, 2, 1), rot)
        torque = mixed[:, [1, 2, 0], [2, 0, 1]] - mixed[:, [2, 0, 1], [1, 2, 0]]
        # J^T torque with J in matrix form: expanding it into nested cross
        # products overflows for huge rotation vectors where this stays finite
        jac = _right_jacobian(flat[:, 3:], angle)
        grad_w = self._scale * np.matmul(torque[:, None, :], jac)[:, 0]
        return np.concatenate([grad_t, grad_w], axis=1).reshape(x.shape)


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
    gen = rng.stream(seed, rng.POSE_PROBLEM)
    model = gen.uniform(-0.5, 0.5, size=(n_points, 3))
    rotation = random_rotation_vectors(gen, 1)[0]
    translation = gen.uniform(-0.5, 0.5, size=3)
    noise = gen.standard_normal((n_points, 3))
    observed = model @ rotation_matrices(rotation[None])[0].T + translation + sigma * noise
    return PoseRegistrationLoss(model, observed, sigma, np.concatenate([translation, rotation]))
