import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from particleflow.pose import (
    PoseState,
    canonicalize_rotation_vector,
    make_pose_problem,
    mean_pose,
    pose_unpack,
)

from reference import central_difference_gradient, naive_pose_gradient, pose_pack, relative_gradient_error


def test_zero_vector_is_identity_pose():
    state = pose_unpack(np.zeros(6))
    assert np.array_equal(state.translation, np.zeros(3))
    assert np.array_equal(state.rotation, np.zeros(3))
    np.testing.assert_allclose(state.rotation_matrix(), np.eye(3), atol=1e-15)


def test_pack_unpack_round_trip_below_pi():
    gen = np.random.default_rng(3)
    for _ in range(50):
        vec = np.concatenate([
            gen.uniform(-1, 1, 3),
            gen.uniform(-1, 1, 3) * (math.pi / 2),
        ])
        assert np.array_equal(pose_pack(pose_unpack(vec)), vec)


def test_canonicalization_wraps_three_half_pi():
    w = np.array([0.0, 0.0, 1.5 * math.pi])
    canonical = canonicalize_rotation_vector(w)
    np.testing.assert_allclose(canonical, [0.0, 0.0, -0.5 * math.pi], rtol=1e-12)
    np.testing.assert_allclose(
        Rotation.from_rotvec(w).as_matrix(),
        Rotation.from_rotvec(canonical).as_matrix(),
        atol=1e-10,
    )


@pytest.mark.parametrize("angle", [math.pi, 2.5 * math.pi, 4.0 * math.pi, 11.0 * math.pi])
def test_canonicalization_preserves_rotation_for_large_angles(angle):
    axis = np.array([1.0, 2.0, -0.5])
    axis /= np.linalg.norm(axis)
    w = axis * angle
    canonical = canonicalize_rotation_vector(w)
    assert np.linalg.norm(canonical) <= math.pi + 1e-12
    np.testing.assert_allclose(
        Rotation.from_rotvec(w).as_matrix(),
        Rotation.from_rotvec(canonical).as_matrix(),
        atol=1e-10,
    )


def test_canonicalization_rejects_overflowed_norm():
    # every component is finite, but their norm overflows to inf
    w = np.array([1e200, -2e200, 3e200])
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="rotation-vector norm overflowed"):
            canonicalize_rotation_vector(w)
        with pytest.raises(ValueError, match="rotation-vector norm overflowed"):
            pose_unpack(np.concatenate([np.zeros(3), w]))


def test_rotation_matrices_are_orthonormal():
    gen = np.random.default_rng(5)
    for _ in range(25):
        state = pose_unpack(np.concatenate([np.zeros(3), gen.uniform(-3, 3, 3)]))
        r = state.rotation_matrix()
        np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-10)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-10)


# --- registration problem ----------------------------------------------------


def test_noise_free_problem_has_zero_loss_at_truth():
    problem = make_pose_problem(8, sigma=0.0, seed=4)
    truth_vec = pose_pack(problem.true_pose)
    assert problem.loss(0, truth_vec) < 1e-20


def test_zero_noise_observations_are_exact_transforms():
    problem = make_pose_problem(6, sigma=0.0, seed=2)
    truth = problem.true_pose
    transformed = problem.model_points @ truth.rotation_matrix().T + truth.translation
    np.testing.assert_allclose(problem.observed_points, transformed, atol=1e-15)
    # degenerate case: identity ground truth leaves the points untouched
    from particleflow.pose import PoseRegistrationLoss

    identity = PoseState(np.zeros(3), np.zeros(3))
    observed = problem.model_points @ identity.rotation_matrix().T + identity.translation
    np.testing.assert_array_equal(observed, problem.model_points)
    loss = PoseRegistrationLoss(problem.model_points, observed, 0.0, identity)
    assert loss.loss(0, np.zeros(6)) == 0.0


def test_problem_is_deterministic_per_seed():
    a = make_pose_problem(5, sigma=0.01, seed=9)
    b = make_pose_problem(5, sigma=0.01, seed=9)
    assert np.array_equal(a.model_points, b.model_points)
    assert np.array_equal(a.observed_points, b.observed_points)
    assert np.array_equal(pose_pack(a.true_pose), pose_pack(b.true_pose))


def test_problem_rejects_too_few_points():
    with pytest.raises(ValueError):
        make_pose_problem(2, sigma=0.1, seed=0)


def test_loss_at_truth_equals_noise_residual_only():
    sigma = 0.02
    problem = make_pose_problem(10, sigma=sigma, seed=6)
    truth_vec = pose_pack(problem.true_pose)
    truth = problem.true_pose
    predicted = problem.model_points @ truth.rotation_matrix().T + truth.translation
    residual = predicted - problem.observed_points
    expected = 0.5 / sigma ** 2 * np.sum(residual ** 2)
    assert problem.loss(0, truth_vec) == pytest.approx(expected, rel=1e-12)


def test_registration_gradient_matches_finite_differences():
    problem = make_pose_problem(7, sigma=0.05, seed=8)
    gen = np.random.default_rng(10)
    for _ in range(100):
        x = np.concatenate([gen.uniform(-1, 1, 3), gen.uniform(-2.5, 2.5, 3)])
        numeric = central_difference_gradient(lambda p: problem.loss(0, p), x)
        assert relative_gradient_error(problem.grad(0, x), numeric) < 1e-5


def test_registration_gradient_near_zero_rotation():
    # exercises the small-angle series of the rotation Jacobian
    problem = make_pose_problem(5, sigma=0.1, seed=12)
    x = np.concatenate([np.array([0.1, -0.2, 0.3]), np.full(3, 1e-7)])
    numeric = central_difference_gradient(lambda p: problem.loss(0, p), x)
    assert relative_gradient_error(problem.grad(0, x), numeric) < 1e-5


@pytest.mark.parametrize("angle", [0.0, 3e-5, 0.9e-4, 1.3, math.pi - 1e-9, 2.5 * math.pi, 40.0])
def test_registration_gradient_matches_naive_point_loop(angle):
    # angles below 1e-4 take the series branch of the right Jacobian
    problem = make_pose_problem(12, sigma=0.05, seed=21)
    gen = np.random.default_rng(int(angle * 1000))
    batch = []
    for _ in range(6):
        axis = gen.standard_normal(3)
        batch.append(np.concatenate([gen.uniform(-1, 1, 3), axis / np.linalg.norm(axis) * angle]))
    grads = problem.grad(0, np.array(batch))
    for x, grad in zip(batch, grads):
        oracle = naive_pose_gradient(problem.model_points, problem.observed_points, problem.sigma, x)
        np.testing.assert_allclose(grad, oracle, rtol=1e-12)


def test_registration_gradient_stays_finite_for_huge_rotation_vectors():
    # |w|^2 |J^T torque| passes 1e308 here: writing J^T v as nested cross
    # products w x (w x v) overflows to inf * 0 = NaN, the matrix form of J
    # stays finite
    problem = make_pose_problem(12, sigma=0.005, seed=0)
    x = np.array([1e9, -2e9, 5e8, 6e149, -8e149, 3e149])
    with np.errstate(over="ignore"):
        grad = problem.grad(0, x)
    assert np.isfinite(grad).all()


def test_loss_invariant_under_consistent_point_reindexing():
    problem = make_pose_problem(9, sigma=0.03, seed=14)
    perm = np.random.default_rng(0).permutation(9)
    shuffled = type(problem)(
        problem.model_points[perm], problem.observed_points[perm],
        problem.sigma, problem.true_pose,
    )
    gen = np.random.default_rng(1)
    for _ in range(10):
        x = np.concatenate([gen.uniform(-1, 1, 3), gen.uniform(-3, 3, 3)])
        assert shuffled.loss(0, x) == pytest.approx(problem.loss(0, x), rel=1e-12)


def test_batched_and_single_evaluations_agree():
    problem = make_pose_problem(6, sigma=0.05, seed=3)
    gen = np.random.default_rng(4)
    batch = np.column_stack([gen.uniform(-1, 1, (5, 3)), gen.uniform(-3, 3, (5, 3))])
    losses = problem.loss(0, batch)
    grads = problem.grad(0, batch)
    for i in range(5):
        assert losses[i] == pytest.approx(problem.loss(0, batch[i]), rel=1e-15)
        np.testing.assert_array_equal(grads[i], problem.grad(0, batch[i]))


def test_sigma_zero_uses_unscaled_residual():
    problem = make_pose_problem(5, sigma=0.0, seed=7)
    x = pose_pack(problem.true_pose) + 0.01
    rot = Rotation.from_rotvec(x[3:]).as_matrix()
    resid = problem.model_points @ rot.T + x[:3] - problem.observed_points
    assert problem.loss(0, x) == pytest.approx(0.5 * np.sum(resid ** 2), rel=1e-12)


def test_mean_pose_is_canonicalized():
    particles = np.zeros((3, 6))
    particles[:, 5] = 1.5 * math.pi
    state = mean_pose(particles)
    assert np.linalg.norm(state.rotation) < math.pi
