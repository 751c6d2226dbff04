import numpy as np
import pytest

from particleflow.losses import (
    QuadraticProjectionLoss,
    exact_posterior,
    expected_posterior,
    sample_synthetic_problem,
)
from particleflow.metrics import kl_gaussians

from reference import central_difference_gradient, relative_gradient_error


def test_problem_sampling_is_deterministic():
    a = sample_synthetic_problem(3, 2, seed=7)
    b = sample_synthetic_problem(3, 2, seed=7)
    assert np.array_equal(a.center, b.center)
    assert np.array_equal(a.directions, b.directions)
    c = sample_synthetic_problem(3, 2, seed=8)
    assert not np.array_equal(a.center, c.center)


def test_center_norm_matches_standard_normal_moments():
    # E|center|^2 = d; 1000 seeds, allow 3 standard errors of chi^2_d.
    d, seeds = 3, 1000
    norms_sq = np.array([
        np.sum(sample_synthetic_problem(d, 1, s).center ** 2) for s in range(seeds)
    ])
    stderr = np.sqrt(2.0 * d / seeds)
    assert abs(norms_sq.mean() - d) < 3.0 * stderr


def test_loss_zero_at_center_for_every_step():
    problem = sample_synthetic_problem(4, 6, seed=3)
    for t in range(6):
        assert problem.loss(t, problem.center) == 0.0


def test_loss_invariant_orthogonal_to_direction_and_grad_parallel():
    problem = sample_synthetic_problem(5, 3, seed=11)
    gen = np.random.default_rng(0)
    x = gen.standard_normal(5)
    for t in range(3):
        direction = problem.directions[t]
        # random vector orthogonal to the step direction
        v = gen.standard_normal(5)
        v -= (v @ direction) / (direction @ direction) * direction
        assert problem.loss(t, x + v) == pytest.approx(problem.loss(t, x), rel=1e-9)
        g = problem.grad(t, x)
        cross = g - (g @ direction) / (direction @ direction) * direction
        assert np.linalg.norm(cross) < 1e-9 * max(1.0, np.linalg.norm(g))


def test_loss_rejects_out_of_range_step():
    problem = sample_synthetic_problem(3, 2, seed=0)
    with pytest.raises(ValueError):
        problem.loss(2, np.zeros(3))
    with pytest.raises(ValueError):
        problem.loss(-1, np.zeros(3))


def test_gradients_match_finite_differences():
    problem = sample_synthetic_problem(6, 4, seed=5)
    gen = np.random.default_rng(1)
    for _ in range(25):
        x = 2.0 * gen.standard_normal(6)
        t = int(gen.integers(0, 4))
        numeric = central_difference_gradient(lambda p: problem.loss(t, p), x)
        assert relative_gradient_error(problem.grad(t, x), numeric) < 1e-5


# --- posteriors --------------------------------------------------------------


def test_exact_posterior_prior_at_step_zero():
    problem = sample_synthetic_problem(3, 2, seed=1)
    prior = exact_posterior(problem, 0)
    assert np.array_equal(prior.mean, np.zeros(3))
    assert np.array_equal(prior.covariance, np.eye(3))


def test_exact_posterior_hand_case():
    # one observation along e1 with center (1, 1, 1):
    # precision diag(2, 1, 1), mean (1/2, 0, 0)
    problem = QuadraticProjectionLoss(np.array([1.0, 1.0, 1.0]),
                                      np.array([[1.0, 0.0, 0.0]]))
    post = exact_posterior(problem, 1)
    np.testing.assert_allclose(post.mean, [0.5, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(post.covariance, np.diag([0.5, 1.0, 1.0]), atol=1e-12)


def test_exact_posterior_precision_bounds():
    problem = sample_synthetic_problem(4, 30, seed=9)
    for t in (1, 10, 30):
        post = exact_posterior(problem, t)
        eigs = np.linalg.eigvalsh(post.covariance)
        assert np.all(eigs > 0)
        # precision >= I, so covariance eigenvalues <= 1
        assert np.all(eigs <= 1.0 + 1e-12)


def test_exact_posterior_mean_converges_to_center():
    problem = sample_synthetic_problem(4, 200, seed=13)
    err_early = np.linalg.norm(exact_posterior(problem, 1).mean - problem.center)
    err_mid = np.linalg.norm(exact_posterior(problem, 40).mean - problem.center)
    err_late = np.linalg.norm(exact_posterior(problem, 200).mean - problem.center)
    assert err_late < err_mid < err_early
    assert err_late < 0.5 * err_early


def test_exact_posterior_range_check():
    problem = sample_synthetic_problem(3, 2, seed=0)
    with pytest.raises(ValueError):
        exact_posterior(problem, 3)


def test_expected_posterior_cases():
    prior = expected_posterior(np.zeros(3), 0)
    assert np.array_equal(prior.covariance, np.eye(3))
    post = expected_posterior(np.array([2.0, 0.0, 0.0]), 1)
    np.testing.assert_allclose(post.mean, [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(post.covariance, np.eye(3) / 2.0, atol=1e-15)
    late = expected_posterior(np.array([2.0, 0.0, 0.0]), 10 ** 9)
    np.testing.assert_allclose(late.mean, [2.0, 0.0, 0.0], rtol=1e-8)
    assert np.all(np.diag(late.covariance) < 1e-8)
    with pytest.raises(ValueError):
        expected_posterior(np.zeros(3), -1)


def test_expected_and_exact_posteriors_stay_close_over_time():
    # KL(expected || exact) stays bounded and both means approach the center.
    for seed in range(10):
        problem = sample_synthetic_problem(5, 200, seed=seed)
        kls = []
        for t in (1, 5, 20, 50, 100, 150, 200):
            expected = expected_posterior(problem.center, t)
            exact = exact_posterior(problem, t)
            kls.append(kl_gaussians(expected, exact))
        assert all(np.isfinite(kls))
        # no late blow-up: the tail never exceeds the early maximum
        assert max(kls[3:]) <= max(kls[:3]) + 1.0
        mean_err = np.linalg.norm(exact_posterior(problem, 200).mean - problem.center)
        early_err = np.linalg.norm(exact_posterior(problem, 1).mean - problem.center)
        assert mean_err < 0.5 * early_err
