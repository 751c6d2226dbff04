import ast
import copy
import dataclasses
import itertools
import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import particleflow
from particleflow.flow import Ensemble, MemberError, evaluate_losses
from particleflow.pose import (
    PoseRegistrationLoss,
    _quaternion_rotation_vectors,
    _right_jacobian,
    _rotation_angles,
    canonicalize_rotation_vector,
    make_pose_problem,
    mean_pose,
    random_rotation_vectors,
    rotation_matrices,
)

from reference import (
    central_difference_gradient,
    naive_pose_gradient,
    relative_gradient_error,
    right_jacobian,
    scipy_pose_grad,
    scipy_pose_loss,
    scipy_quaternion_rotation_vectors,
    scipy_random_rotation_vectors,
    scipy_rotation_matrices,
)


def test_zero_vector_is_identity_pose():
    pose = mean_pose(np.zeros((1, 6)))
    assert np.array_equal(pose, np.zeros(6))
    np.testing.assert_allclose(rotation_matrices(pose[None, 3:])[0], np.eye(3), atol=1e-15)


def test_mean_pose_of_one_particle_round_trips_below_pi():
    gen = np.random.default_rng(3)
    for _ in range(50):
        vec = np.concatenate([
            gen.uniform(-1, 1, 3),
            gen.uniform(-1, 1, 3) * (math.pi / 2),
        ])
        assert np.array_equal(mean_pose(vec[None]), vec)


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
            mean_pose(np.concatenate([np.zeros(3), w])[None])


def test_rotation_matrices_are_orthonormal():
    gen = np.random.default_rng(5)
    for _ in range(25):
        pose = mean_pose(np.concatenate([np.zeros(3), gen.uniform(-3, 3, 3)])[None])
        r = rotation_matrices(pose[None, 3:])[0]
        np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-10)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-10)


def _directions(gen, n):
    d = gen.standard_normal((n, 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def _diverging_batches(gen, n):
    """Rotation vectors a diverging run can reach: norms from 1e155 to 1e300,
    where x*x + y*y + z*z overflows to inf, and rows holding inf and NaN."""
    huge = _directions(gen, n) * 10.0 ** gen.uniform(155, 300, (n, 1))
    rows = np.array([[np.inf, 0.0, 0.0], [np.nan, 1.0, 0.0], [-np.inf, np.inf, np.nan],
                     [0.0, 0.0, np.nan], [1e-9, -np.inf, 0.0], [0.1, -0.2, 0.3]])
    nonfinite = rows[gen.integers(0, len(rows), n)]
    return [huge, nonfinite]


@pytest.mark.parametrize("n", [1, 80])
def test_rotation_matrices_match_scipy_bit_for_bit(n):
    gen = np.random.default_rng(n)
    batches = [_directions(gen, n) * 10.0 ** gen.uniform(lo, hi, (n, 1))
               for lo, hi in [(-9, -6), (-6, -3), (-3.2, -2.8), (-3, 0), (0, 2), (2, 20), (20, 150)]]
    # both sides of the series threshold 1e-3, exactly on it, and zero rows
    edge = np.array([0.0, np.nextafter(1e-3, 0.0), 1e-3, np.nextafter(1e-3, 1.0)])
    batches.append(_directions(gen, n) * gen.choice(edge, (n, 1)))
    batches.append(np.zeros((n, 3)))
    mixed = _directions(gen, n) * 10.0 ** gen.uniform(-9, 150, (n, 1))
    mixed[::3] *= 1e-12
    batches.append(mixed)
    batches.extend(_diverging_batches(gen, n))
    for w in batches:
        with np.errstate(all="ignore"):
            assert np.array_equal(rotation_matrices(w), scipy_rotation_matrices(w), equal_nan=True)
    # a read-only, non-contiguous view as the ensemble passes it
    x = gen.standard_normal((n, 6))
    x.flags.writeable = False
    assert np.array_equal(rotation_matrices(x[:, 3:]), scipy_rotation_matrices(x[:, 3:]))


def test_single_rotation_matrix_matches_scipy_bit_for_bit():
    # one rotation vector as a batch of one, as make_pose_problem builds its truth
    gen = np.random.default_rng(11)
    for w in [np.zeros(3), np.array([2e-4, 0.0, -1e-4]), *gen.uniform(-3, 3, (20, 3))]:
        assert np.array_equal(rotation_matrices(w[None])[0], scipy_rotation_matrices(w[None, :])[0])


def test_quaternion_rotation_vectors_match_scipy_bit_for_bit():
    # every quaternion over these values: w < 0, w == 0 (+0 and -0) with
    # each tie on x, y and z, and signed zeros in every place
    values = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e-5, -1e-5]
    grid = np.array([q for q in itertools.product(values, repeat=4) if any(q)])
    gen = np.random.default_rng(2)
    # angles at most 1e-3 (the series) and just above, with w of either sign
    near = np.concatenate([_directions(gen, 200) * 10.0 ** gen.uniform(-9, -2.5, (200, 1)),
                           gen.choice([-1.0, 1.0], (200, 1))], axis=1)
    scaled = gen.standard_normal((300, 4)) * 10.0 ** gen.uniform(-100, 100, (300, 1))
    for quats in (grid, near, scaled, gen.standard_normal((1, 4))):
        assert np.array_equal(_quaternion_rotation_vectors(quats), scipy_quaternion_rotation_vectors(quats))


@pytest.mark.parametrize("count", [1, 80, 1000])
def test_random_rotation_vectors_match_scipy_bit_for_bit(count):
    for seed in range(8):
        drawn = random_rotation_vectors(np.random.default_rng(seed), count)
        assert np.array_equal(drawn, scipy_random_rotation_vectors(np.random.default_rng(seed), count))


@pytest.mark.parametrize("n", [1, 80])
def test_right_jacobian_matches_the_where_form_bit_for_bit(n):
    gen = np.random.default_rng(n + 100)
    for lo, hi in [(-9, -5), (-5, -3), (-3, 0), (0, 2), (2, 100)]:
        w = _directions(gen, n) * 10.0 ** gen.uniform(lo, hi, (n, 1))
        assert np.array_equal(_right_jacobian(w, _rotation_angles(w)), right_jacobian(w))
        # the same batch with one row below the series threshold 1e-4
        w[0] *= 1e-8
        assert np.array_equal(_right_jacobian(w, _rotation_angles(w)), right_jacobian(w))
    assert np.array_equal(_right_jacobian(np.zeros((n, 3)), np.zeros(n)), right_jacobian(np.zeros((n, 3))))
    for w in _diverging_batches(gen, n):
        with np.errstate(all="ignore"):
            assert np.array_equal(_right_jacobian(w, _rotation_angles(w)), right_jacobian(w), equal_nan=True)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 40.0])
def test_loss_and_grad_match_scipy_form_bit_for_bit(scale):
    for seed in range(8):
        problem = make_pose_problem(12, sigma=0.005, seed=seed)
        gen = np.random.default_rng(seed)
        x = np.concatenate([0.3 * gen.standard_normal((80, 3)),
                            scale * random_rotation_vectors(gen, 80)], axis=1)
        assert np.array_equal(problem.loss(0, x), scipy_pose_loss(problem, x))
        assert np.array_equal(problem.grad(0, x), scipy_pose_grad(problem, x))
        assert problem.loss(0, x[0]) == scipy_pose_loss(problem, x[0])
        assert np.array_equal(problem.grad(0, x[0]), scipy_pose_grad(problem, x[0]))


# --- registration problem ----------------------------------------------------


def test_noise_free_problem_has_zero_loss_at_truth():
    problem = make_pose_problem(8, sigma=0.0, seed=4)
    assert problem.loss(0, problem.true_pose) < 1e-20


def test_zero_noise_observations_are_exact_transforms():
    problem = make_pose_problem(6, sigma=0.0, seed=2)
    truth = problem.true_pose
    assert truth.shape == (6,) and truth.dtype == np.float64
    transformed = problem.model_points @ rotation_matrices(truth[None, 3:])[0].T + truth[:3]
    np.testing.assert_allclose(problem.observed_points, transformed, atol=1e-15)
    # degenerate case: identity ground truth leaves the points untouched
    identity = np.zeros(6)
    observed = problem.model_points @ rotation_matrices(identity[None, 3:])[0].T + identity[:3]
    np.testing.assert_array_equal(observed, problem.model_points)
    loss = PoseRegistrationLoss(problem.model_points, observed, 0.0, identity)
    assert loss.loss(0, np.zeros(6)) == 0.0


def test_problem_is_deterministic_per_seed():
    a = make_pose_problem(5, sigma=0.01, seed=9)
    b = make_pose_problem(5, sigma=0.01, seed=9)
    assert np.array_equal(a.model_points, b.model_points)
    assert np.array_equal(a.observed_points, b.observed_points)
    assert np.array_equal(a.true_pose, b.true_pose)


def test_problem_rejects_too_few_points():
    with pytest.raises(ValueError):
        make_pose_problem(2, sigma=0.1, seed=0)


def test_problem_rejects_a_negative_sigma_through_its_loss():
    with pytest.raises(ValueError, match=r"^sigma must be nonnegative, got -0.1$"):
        make_pose_problem(5, sigma=-0.1, seed=0)


@pytest.mark.parametrize("sigma, message", [(math.nan, "^sigma must be nonnegative, got nan$"),
                                            (math.inf, "^sigma must be finite, got inf$")])
def test_problem_rejects_a_non_finite_sigma_through_its_loss(sigma, message):
    with pytest.raises(ValueError, match=message):
        make_pose_problem(5, sigma=sigma, seed=0)


def test_loss_at_truth_equals_noise_residual_only():
    sigma = 0.02
    problem = make_pose_problem(10, sigma=sigma, seed=6)
    truth = problem.true_pose
    predicted = problem.model_points @ rotation_matrices(truth[None, 3:])[0].T + truth[:3]
    residual = predicted - problem.observed_points
    expected = 0.5 / sigma ** 2 * np.sum(residual ** 2)
    assert problem.loss(0, truth) == pytest.approx(expected, rel=1e-12)


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
    x = problem.true_pose + 0.01
    rot = Rotation.from_rotvec(x[3:]).as_matrix()
    resid = problem.model_points @ rot.T + x[:3] - problem.observed_points
    assert problem.loss(0, x) == pytest.approx(0.5 * np.sum(resid ** 2), rel=1e-12)


def test_mean_pose_is_canonicalized():
    particles = np.zeros((3, 6))
    particles[:, 5] = 1.5 * math.pi
    pose = mean_pose(particles)
    assert np.linalg.norm(pose[3:]) < math.pi


@pytest.mark.parametrize("k", [1, 2, 11])
@pytest.mark.parametrize("n", [2, 7, 80])
@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e3, 1e150])
@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_stacked_mean_pose_gives_each_member_the_bits_of_its_own_mean(k, n, scale, offset):
    # rotation vectors from below the small-angle range to far past pi
    gen = np.random.default_rng([k, n])
    x = offset + gen.standard_normal((k, n, 6)) * np.array([0.3, 0.3, 0.3, scale, scale, scale])
    poses = mean_pose(x)
    assert isinstance(poses, np.ndarray) and poses.shape == (k, 6)
    for pose, member in zip(poses, x):
        alone = mean_pose(member)
        assert np.array_equal(pose[:3], alone[:3])
        assert np.array_equal(pose[3:], alone[3:])


@pytest.mark.parametrize("failure, message", [
    ("nan", "pose vector must be finite"),
    ("mean_overflow", "pose vector must be finite"),
    ("norm_overflow", "rotation-vector norm overflowed to inf"),
    # every member below j overflows its norm: a mean that is not finite is
    # named first all the same, since finiteness is checked for the whole
    # stack before any member is canonicalized
    ("nan_after_norm_overflow", "pose vector must be finite"),
])
@pytest.mark.parametrize("k, j", [(2, 0), (2, 1), (11, 7)])
def test_stacked_mean_pose_names_the_member_that_fails(failure, message, k, j):
    x = np.random.default_rng(k).standard_normal((k, 5, 6))
    huge = [-3.83e153, 1.71e154, 5.20e153]  # |w| is finite, its square is not
    for bad in {j, k - 1}:  # the first failing member is named
        if failure in ("nan", "nan_after_norm_overflow"):
            x[bad, 3, 4] = math.nan
        elif failure == "mean_overflow":
            x[bad, :, 0] = 1.7e308  # finite particles whose sum overflows
        else:
            x[bad, :, 3:] = huge
    if failure == "nan_after_norm_overflow":
        x[:j, :, 3:] = huge
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=message) as alone:
            mean_pose(x[j])
        with pytest.raises(ValueError) as stacked:
            mean_pose(x)
    assert str(stacked.value) == f"stack member {j}: {alone.value}"
    assert isinstance(stacked.value, MemberError) and (stacked.value.member, stacked.value.reason) == (j, str(alone.value))


@pytest.mark.parametrize("rotation", [[0.1, -0.2, 0.3], [0.0, 0.0, 1.5 * math.pi]])
@pytest.mark.parametrize("shape", [(1, 6), (2, 1, 6)])
def test_mean_pose_is_a_fresh_array(rotation, shape):
    vector = np.array([1.0, 2.0, 3.0, *rotation])
    particles = np.broadcast_to(vector, shape).copy()
    particles.flags.writeable = False  # as Ensemble.particles
    pose = mean_pose(particles)
    expected = np.broadcast_to(np.concatenate([vector[:3], canonicalize_rotation_vector(vector[3:])]), shape[:-2] + (6,))
    assert not np.shares_memory(pose, particles)
    particles.flags.writeable = True
    particles[...] = 7.0
    assert np.array_equal(pose, expected)
    assert pose.dtype == np.float64 and pose.shape == shape[:-2] + (6,) and pose.flags.owndata and pose.flags.writeable


def test_mean_pose_rejects_non_finite_and_misshapen_particles():
    with pytest.raises(ValueError, match="pose vector must be finite"):
        mean_pose(np.array([[0.0, 0.0, 0.0, math.inf, 0.0, 0.0]]))
    with pytest.raises(ValueError, match=r"pose vector must have shape \(6,\), got \(5,\)"):
        mean_pose(np.zeros((2, 5)))
    with pytest.raises(ValueError, match=r"pose vector must have shape \(6,\), got \(5,\)"):
        mean_pose(np.zeros((3, 2, 5)))


def test_no_module_defines_a_second_pose_form():
    # a pose is a flat [translation, rotation vector] array everywhere: no
    # pose class besides the loss, and no packing or unpacking of poses
    classes, defined = set(), set()
    for path in sorted(Path(particleflow.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                classes.add(node.name)
            elif isinstance(node, ast.FunctionDef):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
    assert {name for name in classes if name.startswith("Pose")} == {"PoseRegistrationLoss"}
    assert "mean_pose" in defined
    assert not {name for name in defined | classes if re.fullmatch(r"pose_(un)?pack", name)}


# --- loss hands its residuals to grad ----------------------------------------
# The oracle is separate loss and grad calls on writeable copies, which build
# their own residuals.


def _pose_stack(seed, k=11, n=80):
    """(k, n, 6) poses whose rotation vectors have angles below the series
    thresholds 1e-4 and 1e-3, near pi, ordinary, and huge."""
    gen = np.random.default_rng(seed)
    angles = gen.choice([3e-7, 0.9e-4, 5e-4, math.pi - 1e-9, math.pi + 1e-9, 1.3, 40.0, 1e8, 6e149], (k, n, 1))
    rotations = _directions(gen, k * n).reshape(k, n, 3) * angles
    return np.concatenate([0.3 * gen.standard_normal((k, n, 3)), rotations], axis=2)


def _separate(problem, t, x):
    """(normalized losses, gradients) from separate calls on writeable copies."""
    losses = problem.loss(t, x.copy())
    return losses - losses.mean(axis=-1, keepdims=True), problem.grad(t, x.copy())


def _counting_residuals(problem):
    """Make problem count its residual builds; returns the count list."""
    built = []
    residuals = problem._residuals
    object.__setattr__(problem, "_residuals", lambda x: built.append(x.shape) or residuals(x))
    return built


@pytest.mark.parametrize("k", [1, 2, 11])
def test_evaluate_losses_on_a_pose_stack_has_the_bits_of_separate_calls(k):
    for seed in range(4):
        problem = make_pose_problem(12, sigma=0.005, seed=seed)
        ensemble = Ensemble(_pose_stack(seed, k), step_index=3)
        built = _counting_residuals(problem)
        with np.errstate(over="ignore"):
            losses, grads = evaluate_losses(problem, ensemble)
        assert len(built) == 1  # the gradient reused what the loss built
        with np.errstate(over="ignore"):
            oracle_losses, oracle_grads = _separate(problem, 3, ensemble.particles)
        assert np.array_equal(losses, oracle_losses)
        assert np.array_equal(grads, oracle_grads)
        assert np.isfinite(grads).all()


@pytest.mark.parametrize("make_input", [
    lambda particles: particles.copy(),  # writeable
    lambda particles: particles[:],  # a read-only view
    lambda particles: np.frombuffer(particles.tobytes()).reshape(particles.shape),  # read-only, owns no data
], ids=["writeable", "view", "buffer"])
def test_other_inputs_build_their_own_residuals(make_input):
    problem = make_pose_problem(12, sigma=0.005, seed=0)
    x = make_input(Ensemble(_pose_stack(0, 2)).particles)
    built = _counting_residuals(problem)
    with np.errstate(over="ignore"):
        losses, grads = evaluate_losses(problem, Ensemble(x))  # Ensemble copies x
        assert len(built) == 1
        loss, grad = problem.loss(0, x), problem.grad(0, x)
        assert len(built) == 3
        oracle_loss, oracle_grad = problem.loss(0, x.copy()), problem.grad(0, x.copy())
    assert np.array_equal(loss, oracle_loss) and np.array_equal(grad, oracle_grad)


def test_grad_after_a_loss_on_another_ensemble_is_its_own():
    problem = make_pose_problem(12, sigma=0.005, seed=1)
    a, b = Ensemble(_pose_stack(1)), Ensemble(_pose_stack(2))
    with np.errstate(over="ignore"):
        problem.loss(0, a.particles)
        grad_b = problem.grad(0, b.particles)
        grad_a = problem.grad(0, a.particles)  # the hand-off was dropped
        assert np.array_equal(grad_b, problem.grad(0, b.particles.copy()))
        assert np.array_equal(grad_a, problem.grad(0, a.particles.copy()))


def test_an_array_written_between_loss_and_grad_gets_a_fresh_gradient():
    problem = make_pose_problem(12, sigma=0.005, seed=2)
    x = _pose_stack(3, k=2)
    problem.loss(0, x)
    x[1, 5, 4] += 0.25
    with np.errstate(over="ignore"):
        assert np.array_equal(problem.grad(0, x), problem.grad(0, x.copy()))
    # a read-only array that owns its data, made writeable again and written
    y = Ensemble(_pose_stack(4, k=2)).particles.copy()
    y.setflags(write=False)
    problem.loss(0, y)
    y.setflags(write=True)
    y[0, 0, 3] -= 0.5
    with np.errstate(over="ignore"):
        assert np.array_equal(problem.grad(0, y), problem.grad(0, y.copy()))


def test_a_second_grad_on_the_same_ensemble_equals_the_first():
    problem = make_pose_problem(12, sigma=0.005, seed=3)
    x = Ensemble(_pose_stack(5)).particles
    built = _counting_residuals(problem)
    with np.errstate(over="ignore"):
        loss = problem.loss(0, x)
        first, second = problem.grad(0, x), problem.grad(0, x)
        assert len(built) == 2  # the first grad used the hand-off, the second built its own
        assert np.array_equal(first, second)
        assert np.array_equal(first, problem.grad(0, x.copy()))
        assert np.array_equal(loss, problem.loss(0, x.copy()))


def test_equality_and_pickling_ignore_the_hand_off():
    problem = make_pose_problem(12, sigma=0.005, seed=4)
    fresh = make_pose_problem(12, sigma=0.005, seed=4)
    x = Ensemble(_pose_stack(6, k=2)).particles
    with np.errstate(over="ignore"):
        problem.loss(0, x)  # a hand-off is held now
    assert [f.name for f in dataclasses.fields(problem)] == ["model_points", "observed_points", "sigma", "true_pose"]
    assert problem == problem
    assert pickle.dumps(problem) == pickle.dumps(fresh)
    for twin in (pickle.loads(pickle.dumps(problem)), copy.copy(problem), copy.deepcopy(problem)):
        assert twin.__dict__.keys() == fresh.__dict__.keys()
        with np.errstate(over="ignore"):
            assert np.array_equal(twin.grad(0, x), problem.grad(0, x))
