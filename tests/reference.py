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
import pytest
import scipy.linalg
from scipy.spatial.transform import Rotation

from particleflow.experiments import KL_METRICS, Measure
from particleflow.flow import Ensemble, MemberError, gradient_coefficient
from particleflow.losses import exact_posterior, expected_posterior, sample_synthetic_problem
from particleflow.metrics import fit_gaussian
from particleflow.pose import make_pose_problem, noise_variance


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


def plain_power_interaction_sum(x, normalized_losses, gamma, dim, budget=1 << 16):
    """flow._interaction_sum with every kernel base raised by `**`, also where
    the power overflows to inf: the oracle its overflow skip must match bit
    for bit (naive_flow_displacements raises OverflowError on such clouds)."""
    n, d = x.shape
    xt = np.ascontiguousarray(x.T)
    scaled = (dim - 2.0) * normalized_losses
    g2 = gamma * gamma
    rows = max(1, min(n, budget // (d * n)))
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


def cho_solve_exact_posterior(loss, upto_step):
    """(mean, covariance) of losses.exact_posterior from scipy's
    cho_factor/cho_solve, independent of the library's numpy inverse of
    the Cholesky factor."""
    d = loss.dim
    dirs = loss.directions[:upto_step]
    precision = np.eye(d) + dirs.T @ dirs
    cho = scipy.linalg.cho_factor(precision, lower=True)
    cov = scipy.linalg.cho_solve(cho, np.eye(d))
    mean = loss.center - scipy.linalg.cho_solve(cho, loss.center)
    return mean, 0.5 * (cov + cov.T)


def fresh_inverse_factor_kl(p_mean, p_cov, q_mean, q_cov):
    """KL(p || q) with both covariances factored afresh, q's factor inverted
    afresh by np.linalg.inv, and the library's products and sums in its
    order of operations (a bitwise oracle for the cached-factor path)."""
    d = p_mean.shape[0]
    lq = np.linalg.cholesky(q_cov)
    lp = np.linalg.cholesky(p_cov)
    inverse = np.linalg.inv(lq)
    a = inverse @ lp
    u = (inverse @ (q_mean - p_mean)[:, None])[:, 0]
    logdet_q = 2.0 * np.sum(np.log(np.diag(lq)))
    logdet_p = 2.0 * np.sum(np.log(np.diag(lp)))
    return max(float(0.5 * (np.sum(a * a) + np.sum(u * u) - d + logdet_q - logdet_p)), 0.0)


def fresh_factor_kl(p_mean, p_cov, q_mean, q_cov):
    """KL(p || q) with both covariances factored afresh and every triangular
    solve through scipy.linalg.solve_triangular (an oracle that shares no
    inverse with the library; it agrees to rounding, not bit for bit)."""
    return max(unclamped_fresh_factor_kl(p_mean, p_cov, q_mean, q_cov), 0.0)


def unclamped_fresh_factor_kl(p_mean, p_cov, q_mean, q_cov):
    """fresh_factor_kl before it is clamped at 0: possibly negative, inf or nan."""
    d = p_mean.shape[0]
    lq = np.linalg.cholesky(q_cov)
    lp = np.linalg.cholesky(p_cov)
    a = scipy.linalg.solve_triangular(lq, lp, lower=True)
    trace_term = float(np.sum(a * a))
    u = scipy.linalg.solve_triangular(lq, q_mean - p_mean, lower=True)
    maha = float(u @ u)
    logdet_q = 2.0 * float(np.sum(np.log(np.diag(lq))))
    logdet_p = 2.0 * float(np.sum(np.log(np.diag(lp))))
    return 0.5 * (trace_term + maha - d + logdet_q - logdet_p)


def per_step_kl_measure(problem, n_steps):
    """The synthetic task's measure read one member and one step at a time:
    observe gives a stack's members one by one, and each member its step's
    rows at once, each KL from fresh factors; emit only joins them. A step
    is a fit_error row if the fit raises and a kl_error row if any of its
    four KLs fails (a covariance that is not positive definite, a result
    that is not finite or below -1e-8); otherwise it is one ok row per
    KL_METRICS entry. The library's measure must give the same rows in the
    same order."""
    expected = [expected_posterior(problem.center, t) for t in range(n_steps + 1)]
    exact = [exact_posterior(problem, t) for t in range(n_steps + 1)]

    def kl(p, q):
        value = unclamped_fresh_factor_kl(p.mean, p.covariance, q.mean, q.covariance)
        if not (math.isfinite(value) and value >= -1e-8):
            raise ValueError(f"KL evaluated to {value}")
        return max(value, 0.0)

    def cells(ridge, step, metric, value, status):
        return ("" if ridge is None else repr(float(ridge)), str(step), metric,
                "" if value is None else repr(float(value)), status)

    def observe(step, particles):
        if particles.ndim == 3:
            return [observe(step, x) for x in particles]
        try:
            fit = fit_gaussian(particles)
        except ValueError:
            return [cells(None, step, "fit_gaussian", None, "fit_error")]
        e, x = expected[step], exact[step]
        try:
            values = [kl(fit, e), kl(e, fit), kl(fit, x), kl(x, fit)]
        except (ValueError, np.linalg.LinAlgError):
            return [cells(fit.ridge, step, "kl", None, "kl_error")]
        return [cells(fit.ridge, step, name, v, "ok") for name, v in zip(KL_METRICS, values)]

    return Measure(observe, lambda observed: [row for _, rows in observed for row in rows])


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
    relative = Rotation.from_rotvec(truth.rotation).as_matrix().T @ Rotation.from_rotvec(estimate.rotation).as_matrix()
    rotvec = Rotation.from_matrix(relative).as_rotvec()
    angle = float(np.linalg.norm(rotvec))
    if angle == 0.0:
        return translation_cm, 0.0
    sign = 1.0
    truth_norm = float(np.linalg.norm(truth.rotation))
    if truth_norm > 0.0 and float(rotvec @ truth.rotation) < 0.0:
        sign = -1.0
    return translation_cm, sign * float(np.degrees(angle))


# --- the pose likelihood as it was built on scipy's Rotation -----------------
# Kept verbatim from the earlier pose module: the numpy rotations of
# `particleflow.pose` must reproduce these bit for bit, so that every CSV
# written before them stays the same.


def scipy_rotation_matrices(w):
    """Rotation.from_rotvec(w).as_matrix() on a writable copy of w."""
    return Rotation.from_rotvec(np.array(w, dtype=np.float64)).as_matrix()


def scipy_quaternion_rotation_vectors(quats):
    """Rotation vectors of nonzero (x, y, z, w) quaternions, as drawn for
    `random_rotation_vectors`."""
    return Rotation.from_quat(quats).as_rotvec()


def scipy_random_rotation_vectors(gen, count):
    quats = gen.standard_normal((count, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    return Rotation.from_quat(quats).as_rotvec()


def skew(w):
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


def right_jacobian(w):
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
    s = skew(w)
    s2 = s @ s
    eye = np.broadcast_to(np.eye(3), s.shape)
    return eye - a[:, None, None] * s + b[:, None, None] * s2


def scipy_pose_residuals(problem, x):
    """Rotation matrices (n, 3, 3) and residuals resid[n, i, k] of
    R(w_n) m_k + T_n - o_k for a `PoseRegistrationLoss` problem."""
    n = x.shape[0]
    rot = Rotation.from_rotvec(np.array(x[:, 3:], dtype=np.float64)).as_matrix()
    rotated = (rot.reshape(3 * n, 3) @ problem.model_points.T).reshape(n, 3, -1)  # one GEMM
    return rot, rotated + x[:, :3, None] - problem.observed_points.T


def scipy_pose_loss(problem, x):
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    _, resid = scipy_pose_residuals(problem, x)
    values = 0.5 * problem._scale * np.einsum("nik,nik->n", resid, resid)
    return float(values[0]) if single else values


def scipy_pose_grad(problem, x):
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    n = x.shape[0]
    rot, resid = scipy_pose_residuals(problem, x)
    grad_t = problem._scale * resid.sum(axis=2)
    moments = (resid.reshape(3 * n, -1) @ problem.model_points).reshape(n, 3, 3)  # (sum_k r_k m_k^T)
    mixed = np.matmul(moments.transpose(0, 2, 1), rot)
    torque = mixed[:, [1, 2, 0], [2, 0, 1]] - mixed[:, [2, 0, 1], [1, 2, 0]]
    jac = right_jacobian(x[:, 3:])
    grad_w = problem._scale * np.matmul(torque[:, None, :], jac)[:, 0]
    out = np.concatenate([grad_t, grad_w], axis=1)
    return out[0] if single else out


# --- stacks of ensembles -----------------------------------------------------


def _synthetic_stack(k, n, d, gamma=0.5, offset=0.0, coincident=False):
    gen = np.random.default_rng([k, n, d])
    x = gen.standard_normal((k, n, d)) + offset
    if coincident:
        x[:, n // 2:] = x[:, :1]  # half of each member's particles sit on its first
    return sample_synthetic_problem(d, 4, 0), x, gamma, 1.0 / gradient_coefficient(d, gamma)


def _pose_stack(k, rotation_scale, n=7):
    gen = np.random.default_rng([k, n])
    problem = make_pose_problem(12, 0.005, 0)
    x = np.concatenate([0.3 * gen.standard_normal((k, n, 3)),
                        rotation_scale * gen.standard_normal((k, n, 3))], axis=-1)
    return problem, x, 8.0, noise_variance(0.005) / 12 / gradient_coefficient(6, 8.0)


# name -> k -> (loss model, (k, n, d) particles, gamma, step-size center): the
# bundled loss models on the adversarial inputs, with member sizes n that are
# not multiples of 4 (a GEMV's row bits depend on the row's place mod 4)
STACK_CASES = {
    "synthetic_d3": lambda k: _synthetic_stack(k, 5, 3),
    "synthetic_far_from_origin": lambda k: _synthetic_stack(k, 7, 3, offset=1e6),
    "synthetic_coincident": lambda k: _synthetic_stack(k, 13, 10, coincident=True),
    "synthetic_single_particle": lambda k: _synthetic_stack(k, 1, 4),
    "synthetic_d50": lambda k: _synthetic_stack(k, 9, 50),
    "synthetic_tiny_gamma": lambda k: _synthetic_stack(k, 6, 10, gamma=1e-3),
    **{f"pose_rotations_{scale:g}": (lambda k, scale=scale: _pose_stack(k, scale))
       for scale in (1e-300, 1e-8, 1.0, 1e3, 1e150, 1e300)},
}


def assert_stack_steps_as_its_members(advance, particles, values, step_index=3):
    """advance(stack, values) for the stack of `particles` against advance(member,
    value) for each member alone: bit for bit when no member fails, and a
    MemberError naming a failing member, with the message it gives alone,
    when one does."""
    stack = Ensemble(particles, step_index)
    alone = []
    for x, value in zip(particles, values):
        try:
            alone.append(advance(Ensemble(x, step_index), float(value)).particles)
        except ValueError as exc:
            alone.append(str(exc))
    if any(isinstance(x, str) for x in alone):
        with pytest.raises(MemberError) as failed:
            advance(stack, values)
        assert failed.value.reason == alone[failed.value.member]
        return
    stepped = advance(stack, values)
    assert stepped.step_index == step_index + 1
    assert stepped.particles.shape == particles.shape
    for member, x in zip(stepped.particles, alone):
        assert np.array_equal(member, x)


def runs_one_by_one(advance, values, init, observe, n_steps):
    """experiments._lockstep's runs made one at a time, each stepping an
    unstacked ensemble and reading its particles out as a one-member stack
    (observe takes stacks only): a run ends at the first ValueError of
    observe (at the step observed; a MemberError's reason is the run's own
    message) or of a step (at the step being made)."""
    runs = []
    for value in values:
        ensemble, observed, end = Ensemble(init, 0), [], (None, None)
        while True:
            t = ensemble.step_index
            try:
                observed.append((t, observe(t, ensemble.particles[None])[0]))
            except ValueError as exc:
                end = (t, exc.reason if isinstance(exc, MemberError) else str(exc))
                break
            if t == n_steps:
                break
            try:
                ensemble = advance(ensemble, value)
            except ValueError as exc:
                end = (t + 1, str(exc))
                break
        runs.append((observed, *end))
    return runs
