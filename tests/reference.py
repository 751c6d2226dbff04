"""Independent reference implementations used as test oracles, and test fixtures.

The oracles are deliberately naive (scalar loops, direct formulas) and
share no code with the library paths they check. The fixtures are small
loss models and helpers that only tests need.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.spatial.transform import Rotation


@dataclass(frozen=True)
class QuadraticWellLoss:
    """Static quadratic bowl 0.5 * |x - center|^2, gradient x - center."""

    center: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.center, dtype=np.float64)
        if c.ndim != 1:
            raise ValueError("center must be a vector")
        object.__setattr__(self, "center", c)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def loss(self, step_index: int, x: np.ndarray) -> np.ndarray:
        diff = np.asarray(x, dtype=np.float64) - self.center
        return 0.5 * np.sum(diff * diff, axis=-1)

    def grad(self, step_index: int, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) - self.center


def pose_pack(state) -> np.ndarray:
    """PoseState -> flat 6-vector [translation, rotation vector]."""
    return np.concatenate([state.translation, state.rotation])


def naive_flow_displacements(particles, losses, grads, gamma, eta):
    """Direct double-loop evaluation of the per-particle flow displacements."""
    particles = np.asarray(particles, dtype=float)
    n, d = particles.shape
    c = math.gamma(d / 2 + 1) / (d * (d - 2) * math.pi ** (d / 2))
    z = sum(losses) / n
    centered = [losses[i] - z for i in range(n)]
    out = np.zeros((n, d))
    for j in range(n):
        vec = [-c * gamma ** (2 - d) * grads[j][k] for k in range(d)]
        for i in range(n):
            if i == j:
                continue
            sq = sum((particles[i][k] - particles[j][k]) ** 2 for k in range(d))
            factor = -c * (d - 2) * centered[i] / (sq + gamma * gamma) ** (d / 2)
            for k in range(d):
                vec[k] += factor * (particles[i][k] - particles[j][k])
        out[j] = [eta * v for v in vec]
    return out


def pair_summand(x_i, x_j, centered_loss_i, gamma, d):
    """Interaction summand applied to particle j by particle i (before eta)."""
    x_i = np.asarray(x_i, dtype=float)
    x_j = np.asarray(x_j, dtype=float)
    c = math.gamma(d / 2 + 1) / (d * (d - 2) * math.pi ** (d / 2))
    sq = float(np.sum((x_j - x_i) ** 2))
    return -c * (d - 2) * centered_loss_i * (x_i - x_j) / (sq + gamma * gamma) ** (d / 2)


def _cross(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _matvec(m, v):
    return [sum(m[i][j] * v[j] for j in range(3)) for i in range(3)]


def naive_pose_gradient(model_points, observed_points, sigma, pose):
    """Gradient of 1/(2 sigma^2) sum_k |R(w) m_k + T - o_k|^2 at pose [T, w],
    one point at a time: R from Rodrigues' formula, the right Jacobian
    J = I - a [w]x + b [w]x^2 as an explicit 3x3 matrix, and
    grad_w = J^T sum_k m_k x (R^T r_k)."""
    scale = 1.0 / (sigma * sigma) if sigma > 0 else 1.0
    t_vec = [float(v) for v in pose[:3]]
    w = [float(v) for v in pose[3:]]
    theta = math.sqrt(sum(v * v for v in w))
    s = [[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]]
    s2 = [[sum(s[i][k] * s[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    t2 = theta * theta
    if theta < 1e-4:
        sin_t = 1.0 - t2 / 6.0 + t2 * t2 / 120.0  # sin(t) / t
        a = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
        b = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
    else:
        sin_t = math.sin(theta) / theta
        a = (1.0 - math.cos(theta)) / t2
        b = (theta - math.sin(theta)) / (t2 * theta)
    eye = [[1.0 if i == j else 0.0 for j in range(3)] for i in range(3)]
    rot = [[eye[i][j] + sin_t * s[i][j] + a * s2[i][j] for j in range(3)] for i in range(3)]
    jac = [[eye[i][j] - a * s[i][j] + b * s2[i][j] for j in range(3)] for i in range(3)]
    rot_t = [[rot[j][i] for j in range(3)] for i in range(3)]
    grad_t = [0.0, 0.0, 0.0]
    torque = [0.0, 0.0, 0.0]
    for m, o in zip(model_points, observed_points):
        m = [float(v) for v in m]
        rm = _matvec(rot, m)
        r = [rm[i] + t_vec[i] - float(o[i]) for i in range(3)]
        grad_t = [grad_t[i] + r[i] for i in range(3)]
        c = _cross(m, _matvec(rot_t, r))
        torque = [torque[i] + c[i] for i in range(3)]
    jac_t = [[jac[j][i] for j in range(3)] for i in range(3)]
    grad_w = _matvec(jac_t, torque)
    return np.array([scale * v for v in grad_t + grad_w])


def central_difference_gradient(loss_fn, x, rel=1e-5):
    """Coordinate-wise central differences with step rel * (1 + |x_k|)."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for k in range(x.size):
        h = rel * (1.0 + abs(x[k]))
        plus = x.copy()
        plus[k] += h
        minus = x.copy()
        minus[k] -= h
        g[k] = (loss_fn(plus) - loss_fn(minus)) / (2.0 * h)
    return g


def relative_gradient_error(analytic, numeric):
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    scale = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return np.linalg.norm(analytic - numeric) / scale


def brute_force_assignment(cost):
    """Exact minimum-cost permutation by factorial enumeration."""
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    best_cost, best_perm = math.inf, None
    indices = np.arange(n)
    for perm in itertools.permutations(range(n)):
        total = cost[indices, list(perm)].sum()
        if total < best_cost:
            best_cost, best_perm = total, perm
    return np.asarray(best_perm), float(best_cost)


def gaussian_logpdf(x, mean, cov):
    """Dense multivariate normal log density, vectorized over rows of x."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    d = mean.shape[0]
    chol = np.linalg.cholesky(cov)
    solved = np.linalg.solve(chol, (x - mean).T)
    quad = np.sum(solved * solved, axis=0)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (quad + d * math.log(2.0 * math.pi) + logdet)


def monte_carlo_kl(p_mean, p_cov, q_mean, q_cov, n_samples, gen):
    """KL(p || q) estimated as the sample mean of log p - log q under p."""
    chol = np.linalg.cholesky(p_cov)
    samples = p_mean + gen.standard_normal((n_samples, p_mean.shape[0])) @ chol.T
    return float(np.mean(
        gaussian_logpdf(samples, p_mean, p_cov) - gaussian_logpdf(samples, q_mean, q_cov)
    ))


def fresh_factor_kl(p_mean, p_cov, q_mean, q_cov):
    """KL(p || q) with both covariances factored afresh and every triangular
    solve through scipy.linalg.solve_triangular, in the library's order of
    operations (a bitwise oracle for the cached-factor path)."""
    d = p_mean.shape[0]
    lq = np.linalg.cholesky(q_cov)
    lp = np.linalg.cholesky(p_cov)
    a = scipy.linalg.solve_triangular(lq, lp, lower=True)
    trace_term = float(np.sum(a * a))
    u = scipy.linalg.solve_triangular(lq, q_mean - p_mean, lower=True)
    maha = float(u @ u)
    logdet_q = 2.0 * float(np.sum(np.log(np.diag(lq))))
    logdet_p = 2.0 * float(np.sum(np.log(np.diag(lp))))
    return max(0.5 * (trace_term + maha - d + logdet_q - logdet_p), 0.0)


def random_spd_pair(gen, d, min_eig=0.5, max_eig=2.0, mean_offset=1.5):
    """Two well-conditioned Gaussians with a mean separation of order 1."""
    def spd():
        q, _ = np.linalg.qr(gen.standard_normal((d, d)))
        eigs = gen.uniform(min_eig, max_eig, size=d)
        return (q * eigs) @ q.T

    mean_p = gen.standard_normal(d)
    direction = gen.standard_normal(d)
    direction /= np.linalg.norm(direction)
    mean_q = mean_p + mean_offset * direction
    return (mean_p, spd()), (mean_q, spd())


def matrix_pose_errors(estimate, truth):
    """Translation error in centimeters and signed geodesic rotation error in degrees,
    through scipy rotation matrices (an oracle for the closed-form
    `metrics.pose_errors`).

    The unsigned angle comes from the relative rotation R_true^T R_est via
    theta = arccos((tr - 1) / 2); its sign is that of the projection of the
    relative rotation axis onto the ground-truth rotation axis (positive
    when the ground truth does not rotate, or when the estimate matches
    exactly).
    """
    translation_cm = 100.0 * float(np.linalg.norm(estimate.translation - truth.translation))
    relative = truth.rotation_matrix().T @ estimate.rotation_matrix()
    rotvec = Rotation.from_matrix(relative).as_rotvec()
    angle = float(np.linalg.norm(rotvec))
    if angle == 0.0:
        return translation_cm, 0.0
    sign = 1.0
    truth_norm = float(np.linalg.norm(truth.rotation))
    if truth_norm > 0.0 and float(rotvec @ truth.rotation) < 0.0:
        sign = -1.0
    return translation_cm, sign * float(np.degrees(angle))
