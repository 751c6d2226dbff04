"""Independent reference implementations used as test oracles.

These are deliberately naive (scalar loops, direct formulas) and share no
code with the library paths they check.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg


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
