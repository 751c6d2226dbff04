import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from particleflow import flow
from particleflow.baselines import gradient_descent_step, mcl_step, systematic_resample
from particleflow.flow import Ensemble, evaluate_losses, flow_update, gradient_coefficient

from reference import STACK_CASES, QuadraticWellLoss, assert_stack_steps_as_its_members


class ConstantLoss:
    dim = 3

    def loss(self, t, x):
        return np.zeros(np.asarray(x).shape[0])

    def grad(self, t, x):
        return np.zeros_like(np.asarray(x))


class PointTargetLoss:
    """Loss 0 within a tiny ball of the target, huge elsewhere."""

    def __init__(self, target, radius=1e-3):
        self.target = np.asarray(target, dtype=float)
        self.radius = radius
        self.dim = self.target.shape[0]

    def loss(self, t, x):
        dist = np.linalg.norm(np.asarray(x) - self.target, axis=-1)
        return np.where(dist < self.radius, 0.0, 1e9)

    def grad(self, t, x):
        return np.zeros_like(np.asarray(x))


# --- systematic resampling ---------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=32),
    st.floats(min_value=0.0, max_value=0.999999),
)
# tied weights whose first cumulative sum rounds to just above 1/3
@example([0.21017422996681986] * 3, 0.0)
def test_systematic_resample_counts_within_one(raw_weights, offset):
    w = np.asarray(raw_weights) / sum(raw_weights)
    n = w.shape[0]
    indices = systematic_resample(w, offset)
    counts = np.bincount(indices, minlength=n)
    lower = np.floor(n * w)
    upper = np.ceil(n * w)
    assert np.all(counts >= lower - 1e-9)
    assert np.all(counts <= upper + 1e-9)


def test_systematic_resample_expected_counts_over_trials():
    gen = np.random.default_rng(0)
    w = np.array([0.5, 0.3, 0.15, 0.05])
    n = w.shape[0]
    for _ in range(10_000):
        counts = np.bincount(systematic_resample(w, float(gen.uniform())), minlength=n)
        assert np.all(np.abs(counts - n * w) < 1.0)


def test_uniform_weights_resample_is_a_permutation():
    w = np.full(8, 1.0 / 8)
    indices = systematic_resample(w, 0.37)
    assert sorted(indices) == list(range(8))


# --- MCL steps ---------------------------------------------------------------


def test_mcl_uniform_losses_keep_every_moved_particle():
    gen = np.random.default_rng(1)
    particles = gen.standard_normal((6, 3))
    out = mcl_step(Ensemble(particles), ConstantLoss(), 0.01, 3)
    assert out.particles.shape == (6, 3) and out.step_index == 1
    # uniform weights: the resampled set is exactly the moved set, reordered
    moved = sorted(map(tuple, out.particles))
    assert len(set(moved)) == 6


def test_mcl_degenerate_weights_collapse_to_dominant_particle():
    target = np.array([5.0, 5.0, 5.0])
    particles = np.vstack([np.zeros((7, 3)), target])
    out = mcl_step(Ensemble(particles), PointTargetLoss(target), 1e-20, 0)
    np.testing.assert_allclose(out.particles, np.tile(target, (8, 1)), atol=1e-8)


def test_mcl_is_deterministic_per_seed():
    particles = np.random.default_rng(2).standard_normal((10, 3))
    a = mcl_step(Ensemble(particles, 4), ConstantLoss(), 0.1, 5)
    b = mcl_step(Ensemble(particles, 4), ConstantLoss(), 0.1, 5)
    assert np.array_equal(a.particles, b.particles)
    c = mcl_step(Ensemble(particles, 5), ConstantLoss(), 0.1, 5)
    assert not np.array_equal(a.particles, c.particles)


def test_mcl_tracks_static_gaussian_optimum():
    # stationary sanity run: mean settles near the loss minimum
    gen = np.random.default_rng(7)
    ensemble = Ensemble(gen.standard_normal((1000, 3)) + 2.0)
    loss_model = QuadraticWellLoss(np.zeros(3))
    for _ in range(200):
        ensemble = mcl_step(ensemble, loss_model, 0.01, 11)
    assert ensemble.step_index == 200
    assert np.linalg.norm(ensemble.particles.mean(axis=0)) < 0.1


def test_mcl_vanishing_noise_and_uniform_weights_is_noop_up_to_permutation():
    particles = np.random.default_rng(3).standard_normal((12, 3))
    out = mcl_step(Ensemble(particles), ConstantLoss(), 1e-30, 2).particles
    np.testing.assert_allclose(np.sort(out, axis=0), np.sort(particles, axis=0), atol=1e-13)


def test_mcl_weight_stage_produces_distribution_for_any_finite_losses():
    class HugeLoss:
        dim = 3

        def loss(self, t, x):
            return np.full(np.asarray(x).shape[0], 1e8) + np.arange(np.asarray(x).shape[0])

        def grad(self, t, x):
            return np.zeros_like(np.asarray(x))

    # exp(-1e8) underflows to 0; the min-shift keeps the weights a
    # distribution, so every output is a moved copy of some input particle
    particles = np.arange(15.0).reshape(5, 3)
    out = mcl_step(Ensemble(particles), HugeLoss(), 0.01, 1).particles
    assert out.shape == (5, 3) and np.isfinite(out).all()
    nearest = np.linalg.norm(out[:, None, :] - particles[None, :, :], axis=2).min(axis=1)
    assert np.all(nearest < 1.0)


# --- gradient descent --------------------------------------------------------


def test_gd_zero_gradient_leaves_particles():
    x = np.random.default_rng(0).standard_normal((4, 3))
    out = gradient_descent_step(Ensemble(x, 2), ConstantLoss(), eta=0.5)
    assert np.array_equal(out.particles, x)
    assert out.step_index == 3


def test_gd_monotone_loss_decrease_on_quadratic():
    loss_model = QuadraticWellLoss(np.array([1.0, 2.0, 3.0]))
    ensemble = Ensemble(np.random.default_rng(1).standard_normal((6, 3)))
    previous = loss_model.loss(0, ensemble.particles)
    for _ in range(20):
        ensemble = gradient_descent_step(ensemble, loss_model, eta=0.1)
        current = loss_model.loss(0, ensemble.particles)
        assert np.all(current <= previous + 1e-15)
        previous = current


def test_gd_equals_flow_without_interaction_bit_exact():
    # a lone particle's interaction term vanishes, so the flow run on each
    # particle by itself is gradient descent with the prefactor in eta
    gen = np.random.default_rng(9)
    x = gen.standard_normal((5, 3))
    loss_model = QuadraticWellLoss(gen.standard_normal(3))
    eta, gamma, d = 0.37, 0.8, 3
    flow_out = []
    for row in x:
        single = Ensemble(row[None, :])
        flow_out.append(row + flow_update(single, *evaluate_losses(loss_model, single), gamma, eta)[0])
    eta_prime = eta * gradient_coefficient(d, gamma)
    gd_out = gradient_descent_step(Ensemble(x), loss_model, eta_prime)
    assert np.array_equal(np.array(flow_out), gd_out.particles)


def test_gd_permutation_and_translation_equivariance():
    gen = np.random.default_rng(4)
    x = gen.standard_normal((6, 3))
    perm = gen.permutation(6)
    shift = gen.uniform(-3, 3, 3)
    loss_model = QuadraticWellLoss(gen.standard_normal(3))

    plain = gradient_descent_step(Ensemble(x), loss_model, 0.2).particles
    permuted = gradient_descent_step(Ensemble(x[perm]), loss_model, 0.2).particles
    np.testing.assert_allclose(permuted, plain[perm], rtol=1e-12, atol=1e-12)

    class Shifted:
        dim = 3

        def loss(self, t, p):
            return loss_model.loss(t, np.asarray(p) - shift)

        def grad(self, t, p):
            return loss_model.grad(t, np.asarray(p) - shift)

    shifted = gradient_descent_step(Ensemble(x + shift), Shifted(), 0.2).particles
    np.testing.assert_allclose(shifted, plain + shift, rtol=1e-12, atol=1e-12)


def test_mcl_step_rejects_nonpositive_epsilon():
    with pytest.raises(ValueError, match="^epsilon must be positive, got 0.0$"):
        mcl_step(Ensemble(np.zeros((2, 3))), ConstantLoss(), 0.0, 0)


class MalformedLoss:
    """Zero losses and gradients, of the given shapes, with one entry set to inf."""

    def __init__(self, loss_shape=None, grad_shape=None, inf_loss_at=None, inf_grad_at=None):
        self.loss_shape, self.grad_shape = loss_shape, grad_shape
        self.inf_loss_at, self.inf_grad_at = inf_loss_at, inf_grad_at

    def loss(self, t, x):
        out = np.zeros(self.loss_shape or x.shape[0])
        if self.inf_loss_at is not None:
            out[self.inf_loss_at] = np.inf
        return out

    def grad(self, t, x):
        out = np.zeros(self.grad_shape or x.shape)
        if self.inf_grad_at is not None:
            out[self.inf_grad_at, 1] = np.inf
        return out


LOSS_FAULTS = [
    (MalformedLoss(loss_shape=5), r"loss model returned shape \(5,\), expected \(4,\)"),
    (MalformedLoss(inf_loss_at=2), "non-finite loss for particle 2 at step 7"),
]
GRADIENT_FAULTS = [
    (MalformedLoss(grad_shape=(4, 2)), r"loss gradient has shape \(4, 2\), expected \(4, 3\)"),
    (MalformedLoss(inf_grad_at=2), "non-finite gradient for particle 2 at step 7"),
]


@pytest.mark.parametrize("advance, faults", [
    (lambda e, model: flow.step(e, model, 1.0, 0.1), LOSS_FAULTS + GRADIENT_FAULTS),
    (lambda e, model: mcl_step(e, model, 0.1, 0), LOSS_FAULTS),
    (lambda e, model: gradient_descent_step(e, model, 0.1), GRADIENT_FAULTS),
], ids=["flow", "mcl", "gd"])
def test_every_step_checks_the_losses_and_gradients_it_reads(advance, faults):
    ensemble = Ensemble(np.zeros((4, 3)), 7)
    for model, message in faults:
        with pytest.raises(ValueError, match=message + "$"):
            advance(ensemble, model)


# --- stacks of ensembles -----------------------------------------------------


@pytest.mark.parametrize("k", (1, 2, 11))
@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_stacked_mcl_step_equals_its_members_stepped_alone(case, k):
    loss_model, particles, _, _ = STACK_CASES[case](k)
    with np.errstate(all="ignore"):
        assert_stack_steps_as_its_members(
            lambda ensemble, epsilon: mcl_step(ensemble, loss_model, epsilon, 7), particles, 0.1 * np.logspace(-2, 2, k))


@pytest.mark.parametrize("k", (1, 2, 11))
@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_stacked_gradient_descent_step_equals_its_members_stepped_alone(case, k):
    loss_model, particles, _, _ = STACK_CASES[case](k)
    with np.errstate(all="ignore"):
        assert_stack_steps_as_its_members(
            lambda ensemble, eta: gradient_descent_step(ensemble, loss_model, eta), particles, np.logspace(-3, 1, k))


def test_stacked_baseline_steps_name_the_failing_member():
    x = Ensemble(np.zeros((3, 2, 3)))
    with pytest.raises(ValueError, match="^stack member 1: epsilon must be positive, got 0.0$"):
        mcl_step(x, ConstantLoss(), [0.1, 0.0, 0.2], 0)
    with pytest.raises(ValueError, match="^stack member 2: eta must be positive, got nan$"):
        gradient_descent_step(x, ConstantLoss(), [0.1, 0.2, np.nan])
    with np.errstate(invalid="ignore"), \
            pytest.raises(ValueError, match="^stack member 1: non-finite loss for particle 0 at step 0$"):
        mcl_step(x, QuadraticWellLoss(np.zeros(3)), [0.1, np.inf, 0.2], 0)
