import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from particleflow import metrics
from particleflow.metrics import (
    AssignmentResult,
    GaussianSummary,
    default_ridge,
    fit_gaussian,
    kl_gaussians,
    pose_errors,
    wasserstein_exact,
)
from particleflow.pose import random_rotation_vectors

from reference import (
    brute_force_assignment,
    fresh_factor_kl,
    fresh_inverse_factor_kl,
    matrix_pose_errors,
    monte_carlo_kl,
    random_spd_pair,
)


def spd(gen, d, lo=0.5, hi=2.0):
    q, _ = np.linalg.qr(gen.standard_normal((d, d)))
    return (q * gen.uniform(lo, hi, size=d)) @ q.T


# --- Gaussian fitting --------------------------------------------------------


def test_fit_two_point_cloud_without_ridge():
    # the sample covariance before the ridge is diag(2, 0, 0); the fit adds
    # the default ridge on the diagonal and records it
    x = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    fit = fit_gaussian(x)
    raw = np.diag([2.0, 0.0, 0.0])
    assert fit.ridge == default_ridge(raw)
    np.testing.assert_array_equal(fit.mean, np.zeros(3))
    np.testing.assert_array_equal(fit.covariance, raw + fit.ridge * np.eye(3))


def test_fit_degenerate_cloud_is_ridge_dominated():
    x = np.tile([1.0, 2.0, 3.0], (5, 1))
    fit = fit_gaussian(x)
    assert fit.ridge > 0
    np.testing.assert_allclose(fit.covariance, fit.ridge * np.eye(3), atol=1e-18)


def test_fit_recovers_moments_of_large_sample():
    gen = np.random.default_rng(0)
    mean = np.array([1.0, -2.0, 0.5])
    cov = spd(gen, 3)
    chol = np.linalg.cholesky(cov)
    x = mean + gen.standard_normal((100_000, 3)) @ chol.T
    fit = fit_gaussian(x)
    assert np.linalg.norm(fit.mean - mean) < 0.02 * max(1.0, np.linalg.norm(mean))
    assert np.linalg.norm(fit.covariance - cov) < 0.02 * np.linalg.norm(cov)


def test_fit_rejects_single_particle():
    with pytest.raises(ValueError):
        fit_gaussian(np.zeros((1, 3)))


def test_default_ridge_formula():
    cov = np.diag([1.0, 2.0, 3.0])
    assert default_ridge(cov) == pytest.approx(1e-6 * 2.0 + 1e-12)


@pytest.mark.parametrize("k", [1, 2, 11])
@pytest.mark.parametrize("n, d", [(2, 3), (7, 3), (2, 50), (13, 50)])
@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_stacked_fit_gives_each_member_the_bits_of_its_own_fit(k, n, d, offset):
    # members at scales 1e-3 to 1e3, and a cloud whose particles coincide
    gen = np.random.default_rng([k, n, d])
    x = offset + gen.standard_normal((k, n, d)) * 10.0 ** gen.uniform(-3, 3, size=(k, 1, 1))
    x[-1, 1:] = x[-1, :1]
    stacked = fit_gaussian(x)
    assert stacked.mean.shape == (k, d) and stacked.covariance.shape == (k, d, d)
    assert stacked.ridge.shape == (k,)
    for j in range(k):
        alone = fit_gaussian(x[j])
        assert np.array_equal(stacked.mean[j], alone.mean)
        assert np.array_equal(stacked.covariance[j], alone.covariance)
        assert stacked.ridge[j] == alone.ridge


@pytest.mark.parametrize("failure", ["nan", "overflow"])
@pytest.mark.parametrize("k, j", [(2, 0), (2, 1), (11, 7)])
def test_stacked_fit_names_the_member_that_fails(failure, k, j):
    gen = np.random.default_rng(k)
    x = gen.standard_normal((k, 5, 3))
    for bad in {j, k - 1}:  # the first failing member is named
        if failure == "nan":
            x[bad, 2, 1] = math.nan
        else:
            x[bad] *= 1e200  # finite particles whose covariance overflows
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError) as alone:
            fit_gaussian(x[j])
        with pytest.raises(ValueError) as stacked:
            fit_gaussian(x)
    assert str(stacked.value) == f"stack member {j}: {alone.value}"
    assert "infs or NaNs" in str(alone.value)
    with pytest.raises(ValueError, match="need at least 2 particles to fit a Gaussian, got 1"):
        fit_gaussian(x[:, :1])


# --- KL ----------------------------------------------------------------------


def test_kl_identical_gaussians_is_zero():
    gen = np.random.default_rng(1)
    g = GaussianSummary(gen.standard_normal(3), spd(gen, 3))
    assert kl_gaussians(g, g) <= 1e-10


def test_kl_standard_identity_shift():
    mu = np.array([0.3, -0.7, 1.1])
    p = GaussianSummary(mu, np.eye(3))
    q = GaussianSummary(np.zeros(3), np.eye(3))
    assert kl_gaussians(p, q) == pytest.approx(0.5 * float(mu @ mu), rel=1e-12)


def test_kl_matches_monte_carlo_oracle():
    gen = np.random.default_rng(2)
    for _ in range(3):
        (mp, sp), (mq, sq) = random_spd_pair(gen, 3)
        closed = kl_gaussians(GaussianSummary(mp, sp), GaussianSummary(mq, sq))
        estimate = monte_carlo_kl(mp, sp, mq, sq, 200_000, gen)
        assert abs(estimate - closed) <= 0.02 * closed


def test_kl_rejects_non_spd_with_eigenvalue_diagnostic():
    p = GaussianSummary(np.zeros(2), np.eye(2))
    q = GaussianSummary(np.zeros(2), np.diag([1.0, 0.0]))
    with pytest.raises(ValueError, match="eigenvalues"):
        kl_gaussians(p, q)


def test_kl_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        kl_gaussians(GaussianSummary(np.zeros(2), np.eye(2)),
                     GaussianSummary(np.zeros(3), np.eye(3)))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_kl_nonnegative_on_random_pairs(seed):
    gen = np.random.default_rng(seed)
    p = GaussianSummary(gen.standard_normal(3), spd(gen, 3))
    q = GaussianSummary(gen.standard_normal(3), spd(gen, 3))
    assert kl_gaussians(p, q) >= 0.0


@pytest.mark.parametrize("d", [3, 10, 50])
def test_kl_cached_factors_bitwise_equal_fresh_factors(d):
    gen = np.random.default_rng(d)
    for _ in range(5):
        (mp, sp), (mq, sq) = random_spd_pair(gen, d)
        p, q = GaussianSummary(mp, sp), GaussianSummary(mq, sq)
        for _ in range(2):  # first call factors, the second reuses the factors
            for x, y in ((p, q), (q, p)):
                kl = kl_gaussians(x, y)
                args = (x.mean, x.covariance, y.mean, y.covariance)
                assert kl == fresh_inverse_factor_kl(*args)
                # an oracle that shares no inverse with the library
                assert kl == pytest.approx(fresh_factor_kl(*args), rel=1e-12, abs=0.0)


def test_kl_factors_each_summary_once(monkeypatch):
    gen = np.random.default_rng(5)
    (m1, s1), (m2, s2) = random_spd_pair(gen, 4)
    expected, exact = GaussianSummary(m1, s1), GaussianSummary(m2, s2)
    fit = fit_gaussian(gen.standard_normal((20, 4)))
    calls = []
    cholesky = np.linalg.cholesky

    def counted(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    kl_gaussians(fit, expected)
    kl_gaussians(expected, fit)
    kl_gaussians(fit, exact)
    kl_gaussians(exact, fit)
    assert len(calls) == 3


def test_kl_factors_each_stack_once(monkeypatch):
    # the per-run measure's four KL series: one batched factor per stack
    gen = np.random.default_rng(6)
    pairs = [random_spd_pair(gen, 4) for _ in range(5)]
    expected = GaussianSummary.stack([GaussianSummary(m, s) for (m, s), _ in pairs])
    exact = GaussianSummary.stack([GaussianSummary(m, s) for _, (m, s) in pairs])
    fits = GaussianSummary.stack([fit_gaussian(gen.standard_normal((20, 4))) for _ in range(5)])
    calls = []
    cholesky = np.linalg.cholesky

    def counted(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    for reference in (expected, exact):
        assert kl_gaussians(fits, reference).shape == (5,)
        assert kl_gaussians(reference, fits).shape == (5,)
    assert calls == [(5, 4, 4)] * 3


@pytest.mark.parametrize("d", [3, 50])
@pytest.mark.parametrize("scale", [1e-12, 1e12])
def test_stacked_kl_matches_scalar_kl(d, scale):
    # bit for bit, on means near 1e6, both covariances at `scale`, and fits
    # to n <= d particles, whose covariance sits at the ridge floor
    gen = np.random.default_rng(d)
    root = math.sqrt(scale)
    ps, qs = [], []
    for _ in range(4):
        (mp, sp), (mq, sq) = random_spd_pair(gen, d)
        ps.append(GaussianSummary(1e6 + root * mp, scale * sp))
        qs.append(GaussianSummary(1e6 + root * mq, scale * sq))
    for n in (2, d // 2 + 1):
        fit = fit_gaussian(1e6 + root * gen.standard_normal((n, d)))
        assert fit.ridge == default_ridge(fit.covariance - fit.ridge * np.eye(d))
        ps.append(fit)
        qs.append(qs[0])
    p, q = GaussianSummary.stack(ps), GaussianSummary.stack(qs)
    for (a, b), members in (((p, q), zip(ps, qs)), ((q, p), zip(qs, ps))):
        stacked = kl_gaussians(a, b)
        assert isinstance(stacked, np.ndarray) and stacked.shape == (len(ps),)
        scalar = [kl_gaussians(x, y) for x, y in members]
        assert all(isinstance(v, float) for v in scalar)
        assert np.array_equal(stacked, scalar)


def test_stacked_kl_names_the_member_that_fails_as_the_scalar_path_does():
    good = GaussianSummary(np.zeros(3), np.eye(3))
    bad = GaussianSummary(np.ones(3), np.diag([1.0, -1.0, 1.0]))
    members = GaussianSummary.stack([good, good, bad, good])
    references = GaussianSummary.stack([good] * 4)
    for stacked, scalar in (((members, references), (bad, good)), ((references, members), (good, bad))):
        with pytest.raises(ValueError) as one:
            kl_gaussians(*scalar)
        with pytest.raises(ValueError) as many:
            kl_gaussians(*stacked)
        assert str(many.value) == f"stack member 2: {one.value}"


def test_kl_that_overflows_raises_unstacked_and_stacked():
    # the trace term d * 1e308 of a covariance near the float limit against
    # a unit reference overflows: an error, never an inf KL
    unit = GaussianSummary(np.zeros(3), np.eye(3))
    huge = GaussianSummary(np.zeros(3), 1e308 * np.eye(3))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="KL evaluated to inf") as one:
        kl_gaussians(huge, unit)
    stack = GaussianSummary.stack([unit, huge, unit])
    with np.errstate(over="ignore"), pytest.raises(ValueError) as many:
        kl_gaussians(stack, GaussianSummary.stack([unit] * 3))
    assert str(many.value) == f"stack member 1: {one.value}"
    assert kl_gaussians(GaussianSummary.stack([unit, unit]), GaussianSummary.stack([unit, unit])).tolist() == [0.0, 0.0]


def test_stack_rejects_mismatched_shapes_and_scalar_indexing():
    stack = GaussianSummary.stack([GaussianSummary(np.zeros(3), np.eye(3))] * 2)
    with pytest.raises(ValueError, match="shape mismatch"):
        kl_gaussians(stack, GaussianSummary(np.zeros(3), np.eye(3)))
    with pytest.raises(TypeError):
        GaussianSummary(np.zeros(3), np.eye(3))[0]
    cov = np.stack([np.eye(2), np.eye(2)])
    cov[1, 0, 1] = 1e-6
    with pytest.raises(ValueError, match="stack member 1: covariance asymmetric"):
        GaussianSummary(np.zeros((2, 2)), cov)


def test_kl_failed_factor_is_not_cached_and_names_the_argument():
    good = GaussianSummary(np.zeros(2), np.eye(2))
    singular = GaussianSummary(np.zeros(2), np.diag([1.0, -1.0]))
    with pytest.raises(ValueError, match="first covariance is not positive definite"):
        kl_gaussians(singular, good)
    with pytest.raises(ValueError, match=r"second \(reference\) covariance is not positive definite"):
        kl_gaussians(good, singular)


@pytest.mark.parametrize("bad", ["covariance", "mean"])
def test_kl_rejects_non_finite_input(bad):
    mean, cov = np.zeros(3), np.eye(3)
    if bad == "covariance":
        cov[1, 1] = np.inf
    else:
        mean[2] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        GaussianSummary(mean, cov)


def test_kl_rejects_overflowing_mean_difference():
    far = GaussianSummary(np.full(3, 1e308), np.eye(3))
    opposite = GaussianSummary(np.full(3, -1e308), np.eye(3))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="mean difference"):
        kl_gaussians(far, opposite)


def test_gaussian_summary_holds_read_only_copies():
    mean, cov = np.zeros(2), np.eye(2)
    g = GaussianSummary(mean, cov)
    mean[0], cov[0, 0] = 5.0, 5.0
    assert g.mean[0] == 0.0 and g.covariance[0, 0] == 1.0
    with pytest.raises(ValueError):
        g.covariance[0, 0] = 2.0
    with pytest.raises(ValueError):
        g.mean[0] = 2.0


def test_gaussian_summary_rejects_asymmetry():
    cov = np.eye(2)
    cov[0, 1] = 1e-6
    with pytest.raises(ValueError, match="asymmetric"):
        GaussianSummary(np.zeros(2), cov)


# --- Wasserstein -------------------------------------------------------------


def test_wasserstein_identical_sets_cost_zero_identity():
    x = np.random.default_rng(0).standard_normal((5, 3))
    result = wasserstein_exact(x, x)
    assert isinstance(result, AssignmentResult)
    assert result.total_cost == 0.0
    assert np.array_equal(result.permutation, np.arange(5))


def test_wasserstein_single_pair():
    a = np.array([[0.0, 0.0]])
    b = np.array([[3.0, 4.0]])
    assert wasserstein_exact(a, b).total_cost == pytest.approx(5.0, rel=1e-15)


def test_wasserstein_matches_brute_force_exactly():
    gen = np.random.default_rng(3)
    for trial in range(100):
        n = 2 + trial % 5  # sizes 2..6
        a = gen.standard_normal((n, 3))
        b = gen.standard_normal((n, 3))
        result = wasserstein_exact(a, b)
        from scipy.spatial.distance import cdist

        perm, cost = brute_force_assignment(cdist(a, b))
        assert result.total_cost == cost
        assert np.array_equal(result.permutation, perm)


def test_wasserstein_rejects_unequal_sizes():
    with pytest.raises(ValueError, match="equal size"):
        wasserstein_exact(np.zeros((3, 2)), np.zeros((4, 2)))


def test_wasserstein_symmetry_and_shift_invariance():
    gen = np.random.default_rng(4)
    a = gen.standard_normal((6, 3))
    b = gen.standard_normal((6, 3))
    forward = wasserstein_exact(a, b).total_cost
    backward = wasserstein_exact(b, a).total_cost
    assert forward == pytest.approx(backward, rel=1e-12)
    shift = gen.uniform(-10, 10, 3)
    shifted = wasserstein_exact(a + shift, b + shift).total_cost
    assert shifted == pytest.approx(forward, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_wasserstein_triangle_inequality(seed):
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((5, 3))
    b = gen.standard_normal((5, 3))
    c = gen.standard_normal((5, 3))
    ab = wasserstein_exact(a, b).total_cost
    bc = wasserstein_exact(b, c).total_cost
    ac = wasserstein_exact(a, c).total_cost
    assert ac <= ab + bc + 1e-9


# --- pose errors -------------------------------------------------------------


def _pose(translation, rotation):
    """The (6,) pose [translation, rotation vector]."""
    return np.concatenate([translation, rotation])


def test_pose_errors_identical_pose():
    pose = np.array([0.1, 0.2, 0.3, 0.4, -0.5, 0.6])
    assert pose_errors(pose, pose) == (0.0, 0.0)
    assert pose_errors(pose, pose.copy()) == (0.0, 0.0)


def test_pose_errors_translation_unit_conversion():
    truth = np.zeros(6)
    est = _pose([0.01, 0.0, 0.0], np.zeros(3))
    trans_cm, rot_deg = pose_errors(est, truth)
    assert trans_cm == pytest.approx(1.0, rel=1e-12)
    assert rot_deg == 0.0


def test_pose_errors_signed_ninety_degrees():
    axis = np.array([0.0, 0.0, 1.0])
    truth = _pose(np.zeros(3), axis * 0.5)
    ahead = _pose(np.zeros(3), axis * (0.5 + math.pi / 2))
    behind = _pose(np.zeros(3), axis * (0.5 - math.pi / 2))
    assert pose_errors(ahead, truth)[1] == pytest.approx(90.0, rel=1e-10)
    assert pose_errors(behind, truth)[1] == pytest.approx(-90.0, rel=1e-10)


def test_pose_errors_match_matrix_route_on_random_poses():
    gen = np.random.default_rng(7)
    for trial in range(300):
        truth = _pose(gen.standard_normal(3), random_rotation_vectors(gen, 1)[0])
        # every third estimate is a non-minimal representative (angle > pi)
        rotation = random_rotation_vectors(gen, 1)[0]
        if trial % 3 == 0:
            rotation = rotation * (1.0 + 2.0 * math.pi / np.linalg.norm(rotation))
        estimate = _pose(gen.standard_normal(3), rotation)
        expected = matrix_pose_errors(estimate, truth)
        assert pose_errors(estimate, truth) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("case", ["zero_rotation_truth", "small_rotations", "near_half_turn",
                                  "far_translation"])
def test_pose_errors_match_matrix_route_on_edge_poses(case):
    gen = np.random.default_rng(8)
    for _ in range(50):
        axis = gen.standard_normal(3)
        axis /= np.linalg.norm(axis)
        truth = _pose(gen.standard_normal(3), random_rotation_vectors(gen, 1)[0])
        estimate = _pose(gen.standard_normal(3), random_rotation_vectors(gen, 1)[0])
        if case == "zero_rotation_truth":
            truth = _pose(truth[:3], np.zeros(3))
        elif case == "small_rotations":
            # both rotation vectors below the 1e-4 switch to the series
            truth = _pose(truth[:3], gen.uniform(1e-6, 5e-5) * axis)
            other = gen.standard_normal(3)
            other *= gen.uniform(1e-6, 5e-5) / np.linalg.norm(other)
            estimate = _pose(estimate[:3], other)
        elif case == "near_half_turn":
            # a relative rotation less than 1e-9 degrees short of a half turn
            angle = math.pi - math.radians(gen.uniform(0.0, 1e-9))
            relative = Rotation.from_rotvec(angle * axis)
            rotation = (Rotation.from_rotvec(truth[3:]) * relative).as_rotvec()
            estimate = _pose(estimate[:3], rotation)
        else:
            estimate = _pose(estimate[:3] + 1e6 * axis, estimate[3:])
        trans_cm, rot_deg = pose_errors(estimate, truth)
        expected_cm, expected_deg = matrix_pose_errors(estimate, truth)
        assert trans_cm == pytest.approx(expected_cm, rel=1e-10)
        assert rot_deg == pytest.approx(expected_deg, rel=1e-10)
        if case == "zero_rotation_truth":
            assert rot_deg > 0.0
        elif case == "near_half_turn":
            assert abs(rot_deg) > 180.0 - 2e-9


@pytest.mark.parametrize("degrees", [1e-7, 1e-5, 1e-3, 1e-1])
def test_pose_errors_tiny_angles_about_the_truth_axis(degrees):
    # an estimate turned by a known angle about the truth's own axis; the
    # rounding of the two rotation vectors bounds the error in absolute terms
    gen = np.random.default_rng(9)
    for _ in range(20):
        axis = gen.standard_normal(3)
        axis /= np.linalg.norm(axis)
        angle = gen.uniform(0.1, 3.0)
        truth = _pose(np.zeros(3), angle * axis)
        ahead = _pose(np.zeros(3), (angle + math.radians(degrees)) * axis)
        behind = _pose(np.zeros(3), (angle - math.radians(degrees)) * axis)
        assert pose_errors(ahead, truth)[1] == pytest.approx(degrees, rel=1e-10, abs=1e-12)
        assert pose_errors(behind, truth)[1] == pytest.approx(-degrees, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("angle", [1e-8, 9e-5, 1.1e-4, 0.3, 1.5])
def test_pose_errors_of_the_inverse_rotation_are_exact(angle):
    # R(-w) relative to R(w) turns by exactly 2|w| back about w's axis,
    # on either side of the series switch at |w| = 1e-4
    axis = np.array([2.0, -3.0, 6.0]) / 7.0
    truth = _pose(np.zeros(3), angle * axis)
    inverse = _pose(np.zeros(3), -angle * axis)
    assert pose_errors(inverse, truth)[1] == pytest.approx(-math.degrees(2.0 * angle), rel=1e-13)


def test_metrics_imports_nothing_from_pose():
    # pose errors read flat 6-vectors, so the metrics need no pose type
    tree = ast.parse(Path(metrics.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module} | {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not {name for name in imported if name and name.rsplit(".", 1)[-1] == "pose"}
