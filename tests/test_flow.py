import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from particleflow import flow
from particleflow.flow import (
    Ensemble,
    FlowConfig,
    evaluate_losses,
    flow_update,
    gradient_coefficient,
    kernel_constant,
    normalize_losses,
    step,
)

from reference import QuadraticWellLoss, naive_flow_displacements, pair_summand


def make_eval(loss_model, particles, t=0):
    return evaluate_losses(loss_model, Ensemble(particles, t))


class ShiftedLoss:
    """Wraps a loss model so that loss'(x) = loss(x - shift)."""

    def __init__(self, base, shift):
        self.base = base
        self.shift = np.asarray(shift, dtype=float)
        self.dim = base.dim

    def loss(self, t, x):
        return self.base.loss(t, np.asarray(x) - self.shift)

    def grad(self, t, x):
        return self.base.grad(t, np.asarray(x) - self.shift)


# --- kernel constant ---------------------------------------------------------


def test_kernel_constant_d3_matches_newtonian_value():
    assert abs(kernel_constant(3) - 1.0 / (4.0 * math.pi)) < 1e-12


def test_kernel_constant_d4():
    assert abs(kernel_constant(4) - 1.0 / (4.0 * math.pi ** 2)) < 1e-12


@pytest.mark.parametrize("d", [0, 1, 2])
def test_kernel_constant_rejects_low_dimension(d):
    with pytest.raises(ValueError):
        kernel_constant(d)


def test_kernel_constant_positive_up_to_high_dimension():
    for d in range(3, 200):
        assert kernel_constant(d) > 0


def test_gradient_coefficient_matches_direct_product():
    for d, gamma in [(3, 0.5), (5, 1.0), (10, 0.1), (50, 2.0)]:
        direct = kernel_constant(d) * gamma ** (2 - d)
        assert gradient_coefficient(d, gamma) == pytest.approx(direct, rel=1e-12)


def test_gradient_coefficient_overflow_is_a_value_error():
    assert math.isfinite(gradient_coefficient(3, 1e-300))  # C * 1e300
    with pytest.raises(ValueError, match=r"overflows \(gamma=1e-100, dim=10\)$"):
        gradient_coefficient(10, 1e-100)


# --- loss normalization ------------------------------------------------------


def test_normalize_losses_examples():
    z, centered = normalize_losses([2.0, 4.0, 6.0])
    assert z == 4.0
    assert np.array_equal(centered, [-2.0, 0.0, 2.0])
    z, centered = normalize_losses([5.0])
    assert z == 5.0 and centered[0] == 0.0
    z, centered = normalize_losses([1.5, 1.5])
    assert z == 1.5 and np.array_equal(centered, [0.0, 0.0])


def test_normalize_losses_rejects_nonfinite_with_index():
    with pytest.raises(ValueError, match="particle 2"):
        normalize_losses([1.0, 2.0, math.nan, 3.0])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=64))
def test_normalize_losses_mean_zero(losses):
    _, centered = normalize_losses(losses)
    bound = 1e-9 * len(losses) * max(1e-300, max(abs(v) for v in losses) if losses else 0.0)
    assert abs(centered.sum()) <= max(bound, 1e-300)


# --- flow update -------------------------------------------------------------


def test_single_particle_reduces_to_gradient_descent_exactly():
    gen = np.random.default_rng(1)
    x = gen.standard_normal((1, 4))
    loss_model = QuadraticWellLoss(gen.standard_normal(4))
    config = FlowConfig(dim=4, gamma=0.7, eta=0.3)
    evaluation = make_eval(loss_model, x)
    disp = flow_update(Ensemble(x), evaluation, config)
    expected = -(config.eta * gradient_coefficient(4, config.gamma)) * evaluation.grads
    assert np.array_equal(disp, expected)


def test_equal_losses_leave_pure_gradient_steps():
    # Two particles equidistant from the center: equal losses, zero
    # centered losses, so the pairwise term vanishes identically.
    x = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    loss_model = QuadraticWellLoss(np.zeros(3))
    config = FlowConfig(dim=3, gamma=0.5, eta=0.2)
    evaluation = make_eval(loss_model, x)
    assert np.array_equal(evaluation.normalized_losses, [0.0, 0.0])
    disp = flow_update(Ensemble(x), evaluation, config)
    expected = -(config.eta * gradient_coefficient(3, config.gamma)) * evaluation.grads
    assert np.array_equal(disp, expected)


def test_two_particle_attraction_repulsion_signs_and_magnitudes():
    # Zero gradients, centered losses (-1, +1): particle 0 (below average)
    # attracts particle 1; particle 1 (above average) repels particle 0.
    x = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    gamma, eta, d = 0.5, 1.0, 3
    losses = np.array([0.0, 2.0])  # centered: -1, +1
    grads = np.zeros((2, 3))
    evaluation_like = evaluate_like(x, losses, grads)
    config = FlowConfig(dim=d, gamma=gamma, eta=eta)
    disp = flow_update(Ensemble(x), evaluation_like, config)

    c = 1.0 / (4.0 * math.pi)
    magnitude = c * 1.0 / (1.0 + gamma ** 2) ** 1.5
    # particle 0 pushed away from particle 1 (negative x direction)
    assert disp[0][0] == pytest.approx(-magnitude, rel=1e-12)
    # particle 1 pulled toward particle 0 (negative x direction)
    assert disp[1][0] == pytest.approx(-magnitude, rel=1e-12)
    assert np.all(disp[:, 1:] == 0.0)
    # per-pair summands against the scalar formula
    np.testing.assert_allclose(
        disp[0], eta * pair_summand(x[1], x[0], +1.0, gamma, d), rtol=1e-12)
    np.testing.assert_allclose(
        disp[1], eta * pair_summand(x[0], x[1], -1.0, gamma, d), rtol=1e-12)


def evaluate_like(x, losses, grads):
    from particleflow.flow import LossEvaluation, normalize_losses as norm

    z, centered = norm(losses)
    return LossEvaluation(np.asarray(losses, float), np.asarray(grads, float), z, centered)


def test_pair_summands_match_scalar_formula_on_random_pairs():
    gen = np.random.default_rng(7)
    for _ in range(20):
        x = gen.standard_normal((2, 3))
        losses = gen.standard_normal(2)
        z = losses.mean()
        evaluation = evaluate_like(x, losses, np.zeros((2, 3)))
        config = FlowConfig(dim=3, gamma=0.8, eta=1.0)
        disp = flow_update(Ensemble(x), evaluation, config)
        np.testing.assert_allclose(
            disp[0], pair_summand(x[1], x[0], losses[1] - z, 0.8, 3), rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(
            disp[1], pair_summand(x[0], x[1], losses[0] - z, 0.8, 3), rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_flow_update_matches_naive_double_loop(n):
    gen = np.random.default_rng(100 + n)
    x = gen.standard_normal((n, 3))
    loss_model = QuadraticWellLoss(gen.standard_normal(3))
    config = FlowConfig(dim=3, gamma=0.6, eta=0.15)
    evaluation = make_eval(loss_model, x)
    disp = flow_update(Ensemble(x), evaluation, config)
    oracle = naive_flow_displacements(
        x, list(evaluation.losses), [list(g) for g in evaluation.grads], 0.6, 0.15)
    np.testing.assert_allclose(disp, oracle, rtol=1e-12, atol=1e-15)


def _adversarial_cloud(case):
    """(particles, losses, gamma) of one hard input for the interaction kernel."""
    gen = np.random.default_rng(sum(map(ord, case)))
    n, d, gamma, spread = {
        "offset_1e6": (20, 10, 0.5, 1.0),
        "coincident": (12, 5, 0.3, 0.5),
        "d3": (30, 3, 0.7, 1.0),
        "d50": (15, 50, 1.0, 0.1),
        "tiny_gamma": (16, 10, 1e-3, 1e-3),
    }[case]
    x = spread * gen.standard_normal((n, d))
    if case == "offset_1e6":
        x += 1e6
    if case == "coincident":
        x[7] = x[2]
    return x, gen.standard_normal(n), gamma


@pytest.mark.parametrize("case", ["offset_1e6", "coincident", "d3", "d50", "tiny_gamma"])
def test_interaction_kernel_matches_naive_double_loop_on_adversarial_clouds(case):
    # zero gradients leave the interaction term alone; eta rescales the
    # oracle's largest displacement to 1 so the absolute tolerance does not
    # swallow the tiny kernel values of d=50
    x, losses, gamma = _adversarial_cloud(case)
    n, d = x.shape
    grads = np.zeros((n, d))
    unit = naive_flow_displacements(x, list(losses), grads.tolist(), gamma, 1.0)
    eta = 1.0 / np.abs(unit).max()
    oracle = naive_flow_displacements(x, list(losses), grads.tolist(), gamma, eta)
    evaluation = evaluate_like(x, losses, grads)
    disp = flow_update(Ensemble(x), evaluation, FlowConfig(dim=d, gamma=gamma, eta=eta))
    np.testing.assert_allclose(disp, oracle, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("case", ["offset_1e6", "coincident", "d50"])
def test_interaction_kernel_is_bit_stable_for_any_block_split(case, monkeypatch):
    x, losses, gamma = _adversarial_cloud(case)
    n, d = x.shape
    evaluation = evaluate_like(x, losses, np.zeros((n, d)))
    config = FlowConfig(dim=d, gamma=gamma, eta=1.0)
    outputs = []
    for rows in (1, 7, n):
        monkeypatch.setattr(flow, "_BUDGET", rows * d * n)
        outputs.append(flow_update(Ensemble(x), evaluation, config))
    assert all(np.array_equal(outputs[0], out) for out in outputs[1:])


def test_flow_update_self_term_is_exactly_zero():
    # A lone far-away particle with zero gradient must not move at all,
    # whatever its own centered loss would contribute through i = j.
    x = np.array([[0.0, 0.0, 0.0]])
    evaluation = evaluate_like(x, np.array([123.0]), np.zeros((1, 3)))
    config = FlowConfig(dim=3, gamma=0.1, eta=1.0)
    assert np.all(flow_update(Ensemble(x), evaluation, config) == 0.0)


def test_flow_update_dimension_mismatch_rejected():
    x = np.zeros((2, 4))
    evaluation = evaluate_like(x, np.zeros(2), np.zeros((2, 4)))
    with pytest.raises(ValueError, match="dimension"):
        flow_update(Ensemble(x), evaluation, FlowConfig(dim=3, gamma=1.0, eta=1.0))


def test_flow_update_nonfinite_diagnostic_names_particle_pair(monkeypatch):
    # Coincident particles with an underflowing kernel denominator produce
    # an inf * 0 interaction; the error must name the offending pair.
    x = np.zeros((2, 3))
    evaluation = evaluate_like(x, np.array([0.0, 2.0]), np.zeros((2, 3)))
    config = FlowConfig(dim=3, gamma=1e-160, eta=1.0)
    with pytest.raises(ValueError, match=r"particle pair \(1, 0\)"):
        flow_update(Ensemble(x), evaluation, config)
    # rows 37 and 41 coincide, every other pair is far apart, so (41, 37)
    # is the first non-finite term, also when row 37 lies in a later block
    n = 45
    x = np.zeros((n, 3))
    x[:, 0] = 10.0 * np.arange(n)
    x[41] = x[37]
    losses = np.zeros(n)
    losses[41] = 2.0
    evaluation = evaluate_like(x, losses - losses.mean(), np.zeros((n, 3)))
    for rows in (1, 10, n):
        monkeypatch.setattr(flow, "_BUDGET", rows * 3 * n)
        with pytest.raises(ValueError, match=r"particle pair \(41, 37\)$"):
            flow_update(Ensemble(x), evaluation, config)


def test_flow_update_gradient_diagnostics_come_first():
    # Coincident particles would also give a non-finite interaction term;
    # the coefficient and then the gradient term are reported before it.
    x = np.zeros((3, 3))
    evaluation = evaluate_like(x, np.array([0.0, 2.0, 1.0]), [[0.0] * 3, [1e308] * 3, [0.0] * 3])
    with pytest.raises(ValueError, match="gradient coefficient .* overflowed"):
        flow_update(Ensemble(x), evaluation, FlowConfig(dim=3, gamma=1e-160, eta=1e200))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=r"gradient term for particle 1$"):
        flow_update(Ensemble(x), evaluation, FlowConfig(dim=3, gamma=1e-160, eta=1.0))


def test_flow_update_overflowing_sum_names_particle():
    # Every summand is finite (about 1e308), but particle 0's two summands
    # point the same way and their sum overflows.
    a = 1e308
    x = np.array([[0.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 100.0, 0.0]])
    evaluation = evaluate_like(x, np.array([a, -a, a, -a]), np.zeros((4, 3)))
    config = FlowConfig(dim=3, gamma=1e-3, eta=1.0)
    with pytest.raises(ValueError, match=r"non-finite displacement for particle 0$"):
        flow_update(Ensemble(x), evaluation, config)


# --- step --------------------------------------------------------------------


def test_step_zero_displacement_increments_index_only():
    x = np.array([[0.5, -0.5, 0.25], [-0.5, 0.5, -0.25]])

    class ZeroLoss:
        dim = 3

        def loss(self, t, x):
            return np.zeros(x.shape[0])

        def grad(self, t, x):
            return np.zeros_like(x)

    out = step(Ensemble(x, 3), ZeroLoss(), FlowConfig(dim=3, gamma=1.0, eta=1.0))
    assert out.step_index == 4
    assert np.array_equal(out.particles, x)


def test_step_does_not_mutate_input():
    x = np.ones((2, 3))
    ens = Ensemble(x)
    step(ens, QuadraticWellLoss(np.zeros(3)), FlowConfig(dim=3, gamma=1.0, eta=0.1))
    assert np.array_equal(ens.particles, x)


def test_single_particle_converges_monotonically_to_center():
    center = np.array([1.0, -2.0, 0.5])
    loss_model = QuadraticWellLoss(center)
    config = FlowConfig(dim=3, gamma=1.0, eta=5.0)
    n_steps = 40
    # contraction factor |1 - eta * C * gamma**(2-d)| < 1
    factor = 1.0 - config.eta * gradient_coefficient(3, 1.0)
    assert 0.0 < factor < 1.0
    ens = Ensemble(np.array([[4.0, 4.0, 4.0]]))
    distances = [np.linalg.norm(ens.particles[0] - center)]
    for _ in range(n_steps):
        ens = step(ens, loss_model, config)
        distances.append(np.linalg.norm(ens.particles[0] - center))
    assert all(b < a for a, b in zip(distances, distances[1:]))
    assert distances[-1] == pytest.approx(distances[0] * factor ** n_steps, rel=1e-9)


def test_run_is_deterministic_bit_for_bit():
    gen = np.random.default_rng(5)
    x = gen.standard_normal((8, 3))
    loss_model = QuadraticWellLoss(gen.standard_normal(3))
    config = FlowConfig(dim=3, gamma=0.9, eta=0.5)
    a = b = Ensemble(x)
    for _ in range(25):
        a = step(a, loss_model, config)
        b = step(b, loss_model, config)
    assert a.step_index == b.step_index == 25
    assert np.array_equal(a.particles, b.particles)


def test_run_reports_step_index_on_failure():
    class ExplodingLoss:
        dim = 3

        def loss(self, t, x):
            if t >= 2:
                return np.full(x.shape[0], math.nan)
            return np.zeros(x.shape[0])

        def grad(self, t, x):
            return np.zeros_like(x)

    config = FlowConfig(dim=3, gamma=1.0, eta=1.0)
    ensemble = Ensemble(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="^step 2: non-finite loss for particle 0 at step 2$"):
        for _ in range(10):
            ensemble = step(ensemble, ExplodingLoss(), config)
    assert ensemble.step_index == 2


# --- equivariance properties -------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_permutation_equivariance(n, seed):
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, 3))
    perm = gen.permutation(n)
    loss_model = QuadraticWellLoss(gen.standard_normal(3))
    config = FlowConfig(dim=3, gamma=0.7, eta=0.2)
    plain = step(Ensemble(x), loss_model, config).particles
    permuted = step(Ensemble(x[perm]), loss_model, config).particles
    np.testing.assert_allclose(permuted, plain[perm], rtol=1e-12, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_translation_equivariance(n, seed):
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, 3))
    shift = gen.uniform(-5, 5, size=3)
    base = QuadraticWellLoss(gen.standard_normal(3))
    config = FlowConfig(dim=3, gamma=0.7, eta=0.2)
    plain = step(Ensemble(x), base, config).particles
    shifted = step(Ensemble(x + shift), ShiftedLoss(base, shift), config).particles
    np.testing.assert_allclose(shifted, plain + shift, rtol=1e-12, atol=1e-12)


def test_synchronous_update_reads_prestep_state():
    # The naive oracle evaluates everything at pre-step positions; agreement
    # on a state where sequential updates would differ confirms the step is
    # order-independent.
    gen = np.random.default_rng(42)
    x = gen.standard_normal((5, 3)) * 0.3
    loss_model = QuadraticWellLoss(np.zeros(3))
    config = FlowConfig(dim=3, gamma=0.4, eta=2.0)
    evaluation = make_eval(loss_model, x)
    out = step(Ensemble(x), loss_model, config).particles
    oracle = x + naive_flow_displacements(
        x, list(evaluation.losses), [list(g) for g in evaluation.grads], 0.4, 2.0)
    np.testing.assert_allclose(out, oracle, rtol=1e-12, atol=1e-15)


# --- types -------------------------------------------------------------------


def test_ensemble_validation():
    with pytest.raises(ValueError):
        Ensemble(np.zeros((0, 3)))
    with pytest.raises(ValueError, match="particle 1"):
        Ensemble(np.array([[0.0, 0.0], [math.inf, 0.0]]))
    with pytest.raises(ValueError):
        Ensemble(np.zeros((2, 3)), step_index=-1)


def test_ensemble_particles_are_read_only():
    ens = Ensemble(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ens.particles[0, 0] = 1.0


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(dim=2, gamma=1.0, eta=1.0)
    with pytest.raises(ValueError):
        FlowConfig(dim=3, gamma=0.0, eta=1.0)
    with pytest.raises(ValueError):
        FlowConfig(dim=3, gamma=1.0, eta=-0.1)


def test_evaluate_losses_reports_particle_index():
    class BadLoss:
        dim = 3

        def loss(self, t, x):
            out = np.zeros(x.shape[0])
            out[1] = math.inf
            return out

        def grad(self, t, x):
            return np.zeros_like(x)

    with pytest.raises(ValueError, match="particle 1"):
        evaluate_losses(BadLoss(), Ensemble(np.zeros((3, 3))))
