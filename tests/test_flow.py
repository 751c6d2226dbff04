import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from particleflow import experiments, flow
from particleflow.flow import (
    Ensemble,
    MemberError,
    evaluate_losses,
    flow_update,
    gradient_coefficient,
    kernel_constant,
    step,
)

from reference import (
    STACK_CASES,
    QuadraticWellLoss,
    assert_stack_steps_as_its_members,
    naive_flow_displacements,
    pair_summand,
    plain_power_interaction_sum,
)


def centered(losses):
    """Losses minus their mean, as evaluate_losses normalizes them."""
    losses = np.asarray(losses, dtype=float)
    return losses - losses.mean()


class ListedLoss:
    """Fixed per-particle losses and zero gradients, at every step."""

    def __init__(self, losses):
        self.losses = np.asarray(losses, dtype=float)

    def loss(self, t, x):
        return self.losses

    def grad(self, t, x):
        return np.zeros_like(x)


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
    for losses, expected in (([2.0, 4.0, 6.0], [-2.0, 0.0, 2.0]), ([5.0], [0.0]), ([1.5, 1.5], [0.0, 0.0])):
        x = np.zeros((len(losses), 3))
        normalized, _ = evaluate_losses(ListedLoss(losses), Ensemble(x))
        assert np.array_equal(normalized, expected)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=64))
def test_normalize_losses_mean_zero(losses):
    normalized, _ = evaluate_losses(ListedLoss(losses), Ensemble(np.zeros((len(losses), 3))))
    bound = 1e-9 * len(losses) * max(1e-300, max(abs(v) for v in losses) if losses else 0.0)
    assert abs(normalized.sum()) <= max(bound, 1e-300)


# --- flow update -------------------------------------------------------------


def test_single_particle_reduces_to_gradient_descent_exactly():
    gen = np.random.default_rng(1)
    x = gen.standard_normal((1, 4))
    loss_model = QuadraticWellLoss(gen.standard_normal(4))
    normalized, grads = evaluate_losses(loss_model, Ensemble(x))
    disp = flow_update(Ensemble(x), normalized, grads, 0.7, 0.3)
    expected = -(0.3 * gradient_coefficient(4, 0.7)) * grads
    assert np.array_equal(disp, expected)


def test_equal_losses_leave_pure_gradient_steps():
    # Two particles equidistant from the center: equal losses, zero
    # centered losses, so the pairwise term vanishes identically.
    x = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    loss_model = QuadraticWellLoss(np.zeros(3))
    normalized, grads = evaluate_losses(loss_model, Ensemble(x))
    assert np.array_equal(normalized, [0.0, 0.0])
    disp = flow_update(Ensemble(x), normalized, grads, 0.5, 0.2)
    expected = -(0.2 * gradient_coefficient(3, 0.5)) * grads
    assert np.array_equal(disp, expected)


def test_two_particle_attraction_repulsion_signs_and_magnitudes():
    # Zero gradients, centered losses (-1, +1): particle 0 (below average)
    # attracts particle 1; particle 1 (above average) repels particle 0.
    x = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    gamma, eta, d = 0.5, 1.0, 3
    losses = np.array([0.0, 2.0])  # centered: -1, +1
    disp = flow_update(Ensemble(x), centered(losses), np.zeros((2, 3)), gamma, eta)

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


def test_pair_summands_match_scalar_formula_on_random_pairs():
    gen = np.random.default_rng(7)
    for _ in range(20):
        x = gen.standard_normal((2, 3))
        losses = gen.standard_normal(2)
        z = losses.mean()
        disp = flow_update(Ensemble(x), centered(losses), np.zeros((2, 3)), 0.8, 1.0)
        np.testing.assert_allclose(
            disp[0], pair_summand(x[1], x[0], losses[1] - z, 0.8, 3), rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(
            disp[1], pair_summand(x[0], x[1], losses[0] - z, 0.8, 3), rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_flow_update_matches_naive_double_loop(n):
    gen = np.random.default_rng(100 + n)
    x = gen.standard_normal((n, 3))
    loss_model = QuadraticWellLoss(gen.standard_normal(3))
    normalized, grads = evaluate_losses(loss_model, Ensemble(x))
    disp = flow_update(Ensemble(x), normalized, grads, 0.6, 0.15)
    oracle = naive_flow_displacements(
        x, list(loss_model.loss(0, x)), [list(g) for g in loss_model.grad(0, x)], 0.6, 0.15)
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
        # pair bases around float_max**(1/5), so that about 40% of the
        # kernel powers overflow to inf
        "exploded": (20, 10, 0.5, 1.5e30),
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
    disp = flow_update(Ensemble(x), centered(losses), grads, gamma, eta)
    np.testing.assert_allclose(disp, oracle, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("case", ["offset_1e6", "coincident", "d50", "exploded"])
def test_interaction_kernel_is_bit_stable_for_any_block_split(case, monkeypatch):
    x, losses, gamma = _adversarial_cloud(case)
    n, d = x.shape
    outputs = []
    for rows in (1, 7, n):
        monkeypatch.setattr(flow, "_BUDGET", rows * d * n)
        outputs.append(flow_update(Ensemble(x), centered(losses), np.zeros((n, d)), gamma, 1.0))
    assert all(np.array_equal(outputs[0], out) for out in outputs[1:])


def _kernel_outcome(kernel, x, normalized, gamma):
    """A kernel's output as bytes (so signed zeros count), or its error message."""
    try:
        return kernel(x, normalized, gamma, x.shape[1]).tobytes()
    except ValueError as exc:
        return str(exc)


def _signed_losses(gen, n):
    """Normalized losses that are negative, positive, +0.0 and -0.0."""
    normalized = centered(gen.standard_normal(n))
    normalized[:3] = [0.0, -0.0, 0.0]
    return normalized


@pytest.mark.parametrize("scale", [1e40, 1e66, 1e147])
@pytest.mark.parametrize("d", [3, 6, 10, 50])
def test_interaction_kernel_matches_plain_power_on_exploded_clouds(d, scale):
    # Diverging runs blow the cloud up this far; wherever (sq + g2)**(d/2)
    # overflows, the kernel sets inf without the power, to the same bits.
    gen = np.random.default_rng(d)
    x = scale * gen.standard_normal((30, d))
    normalized = _signed_losses(gen, 30)
    expected = _kernel_outcome(plain_power_interaction_sum, x, normalized, 0.5)
    assert _kernel_outcome(flow._interaction_sum, x, normalized, 0.5) == expected


@pytest.mark.parametrize("d", [3, 4, 6, 10, 50])
def test_interaction_kernel_matches_plain_power_at_the_overflow_threshold(d, monkeypatch):
    # Particle 0 at the origin, the others on one axis at squared distances
    # within 1e-8 (and 1e-12) relative of float_max**(2/d), where the power
    # starts to overflow; the other pairs are close and their powers small.
    edge = math.exp(flow._LOG_FLOAT_MAX / (0.5 * d))
    rel = np.concatenate([np.linspace(-1e-8, 1e-8, 41), [-1e-12, -1e-13, 1e-13, 1e-12]])
    x = np.zeros((rel.size + 1, d))
    x[1:, 0] = np.sqrt(edge * (1.0 + rel))
    with np.errstate(over="ignore"):
        powers = (x[1:, 0] ** 2 + 0.25) ** (0.5 * d)
    assert np.isfinite(powers).any() and np.isinf(powers).any()
    normalized = _signed_losses(np.random.default_rng(d), x.shape[0])
    for rows in (1, 7, x.shape[0]):
        budget = rows * d * x.shape[0]
        monkeypatch.setattr(flow, "_BUDGET", budget)
        oracle = functools.partial(plain_power_interaction_sum, budget=budget)
        assert _kernel_outcome(flow._interaction_sum, x, normalized, 0.5) == \
            _kernel_outcome(oracle, x, normalized, 0.5)


def test_interaction_kernel_matches_plain_power_when_differences_overflow():
    # x_i - x_j overflows to inf: inf bases give 0 * inf summands, and both
    # kernels name the same first pair
    gen = np.random.default_rng(5)
    x = gen.standard_normal((6, 10))
    x[2, 3], x[4, 3] = 1e308, -1e308
    normalized = _signed_losses(gen, 6)
    outcome = _kernel_outcome(flow._interaction_sum, x, normalized, 0.5)
    assert outcome == _kernel_outcome(plain_power_interaction_sum, x, normalized, 0.5)
    assert outcome == "non-finite interaction term for particle pair (4, 2)"


def _adversarial_stack(case, k):
    """k members of one hard input: member m is the case's cloud scaled by
    1 + m / 4, with its losses rolled by m, so the exploded members cross
    the power-overflow threshold at different pairs. In the cases
    differences_overflow_at_<m>, x_i - x_j overflows in member m only."""
    if case.startswith("differences_overflow"):
        gen = np.random.default_rng(5)
        x, losses, gamma = gen.standard_normal((6, 10)), gen.standard_normal(6), 0.5
        bad = x.copy()
        bad[2, 3], bad[4, 3] = 1e308, -1e308
        members = [bad if m == int(case[-1]) else x * (1.0 + m / 4.0) for m in range(k)]
    else:
        x, losses, gamma = _adversarial_cloud(case)
        members = [x * (1.0 + m / 4.0) for m in range(k)]
    normalized = np.stack([np.roll(centered(losses), m) for m in range(k)])
    return np.stack(members), normalized, gamma


def _stacked_outcome(x, normalized, gamma):
    """The stacked kernel's members as bytes, or (member, reason) of its error."""
    try:
        return [member.tobytes() for member in flow._interaction_sum(x, normalized, gamma, x.shape[-1])]
    except MemberError as exc:
        return exc.member, exc.reason


def _members_outcome(kernel, x, normalized, gamma):
    """What _stacked_outcome gives when each member gets the outcome of
    kernel called on it alone: every member's bytes, or (member, message)
    of the first member that fails."""
    outcomes = [_kernel_outcome(kernel, member, own, gamma) for member, own in zip(x, normalized)]
    failed = [m for m, outcome in enumerate(outcomes) if isinstance(outcome, str)]
    return (failed[0], outcomes[failed[0]]) if failed else outcomes


@pytest.mark.parametrize("k", (1, 2, 11))
@pytest.mark.parametrize("case", ["offset_1e6", "coincident", "d3", "d50", "tiny_gamma", "exploded",
                                  "differences_overflow_at_0", "differences_overflow_at_1"])
def test_stacked_interaction_kernel_gives_each_member_its_own_bits(case, k, monkeypatch):
    # against the kernel on each member alone and against the plain-power
    # oracle, for blocks of 1 and 7 rows and for one block
    x, normalized, gamma = _adversarial_stack(case, k)
    n, d = x.shape[-2:]
    for rows in (1, 7, n):
        monkeypatch.setattr(flow, "_BUDGET", rows * d * n)
        outcome = _stacked_outcome(x, normalized, gamma)
        assert outcome == _members_outcome(flow._interaction_sum, x, normalized, gamma)
        oracle = functools.partial(plain_power_interaction_sum, budget=rows * d * n)
        assert outcome == _members_outcome(oracle, x, normalized, gamma)
    if case == "differences_overflow_at_1" and k > 1:
        assert outcome == (1, "non-finite interaction term for particle pair (4, 2)")


@pytest.mark.parametrize("k", (1, 2, 11))
@pytest.mark.parametrize("scale", [1e40, 1e147])
@pytest.mark.parametrize("d", [3, 50])
def test_stacked_interaction_kernel_matches_plain_power_on_exploded_clouds(d, scale, k):
    gen = np.random.default_rng(d)
    x = scale * gen.standard_normal((k, 30, d)) * np.linspace(1.0, 3.0, k)[:, None, None]
    normalized = np.stack([_signed_losses(gen, 30) for _ in range(k)])
    assert _stacked_outcome(x, normalized, 0.5) == _members_outcome(plain_power_interaction_sum, x, normalized, 0.5)


def test_flow_update_self_term_is_exactly_zero():
    # A lone far-away particle with zero gradient must not move at all,
    # whatever its own centered loss would contribute through i = j.
    x = np.array([[0.0, 0.0, 0.0]])
    assert np.all(flow_update(Ensemble(x), centered([123.0]), np.zeros((1, 3)), 0.1, 1.0) == 0.0)


def test_flow_update_dimension_mismatch_rejected():
    # gradients of another dimension than the ensemble's, or one loss too many
    x = np.zeros((2, 4))
    with pytest.raises(ValueError, match="do not match the ensemble's shape"):
        flow_update(Ensemble(x), np.zeros(2), np.zeros((2, 3)), 1.0, 1.0)
    with pytest.raises(ValueError, match="do not match the ensemble's shape"):
        flow_update(Ensemble(x), np.zeros(3), np.zeros((2, 4)), 1.0, 1.0)


def test_flow_update_nonfinite_diagnostic_names_particle_pair(monkeypatch):
    # Coincident particles with an underflowing kernel denominator produce
    # an inf * 0 interaction; the error must name the offending pair.
    x = np.zeros((2, 3))
    with pytest.raises(ValueError, match=r"particle pair \(1, 0\)"):
        flow_update(Ensemble(x), centered([0.0, 2.0]), np.zeros((2, 3)), 1e-160, 1.0)
    # rows 37 and 41 coincide, every other pair is far apart, so (41, 37)
    # is the first non-finite term, also when row 37 lies in a later block
    n = 45
    x = np.zeros((n, 3))
    x[:, 0] = 10.0 * np.arange(n)
    x[41] = x[37]
    losses = np.zeros(n)
    losses[41] = 2.0
    for rows in (1, 10, n):
        monkeypatch.setattr(flow, "_BUDGET", rows * 3 * n)
        with pytest.raises(ValueError, match=r"particle pair \(41, 37\)$"):
            flow_update(Ensemble(x), centered(losses), np.zeros((n, 3)), 1e-160, 1.0)


def test_flow_update_gradient_diagnostics_come_first():
    # Coincident particles would also give a non-finite interaction term;
    # the coefficient and then the gradient term are reported before it.
    x = np.zeros((3, 3))
    normalized = centered([0.0, 2.0, 1.0])
    grads = np.array([[0.0] * 3, [1e308] * 3, [0.0] * 3])
    with pytest.raises(ValueError, match="gradient coefficient .* overflowed"):
        flow_update(Ensemble(x), normalized, grads, 1e-160, 1e200)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=r"gradient term for particle 1$"):
        flow_update(Ensemble(x), normalized, grads, 1e-160, 1.0)


def test_overflowing_eta_fails_the_step_without_a_warning():
    # eta * C * gamma**(2-d) overflows to inf: the step names it, single and
    # stacked, and the product raises no floating-point warning
    x = np.zeros((3, 2, 3))
    message = "gradient coefficient eta * C * gamma**(2-d) overflowed (eta=1e+308, gamma=0.01, dim=3)"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as single:
            step(Ensemble(x[0]), QuadraticWellLoss(np.zeros(3)), 0.01, 1e308)
        with pytest.raises(MemberError) as stacked:
            step(Ensemble(x), QuadraticWellLoss(np.zeros(3)), 0.01, [1.0, 1e308, 1e308])
    assert str(single.value) == message and not isinstance(single.value, MemberError)
    assert (stacked.value.member, stacked.value.reason) == (1, message)


def test_flow_update_overflowing_sum_names_particle():
    # Every summand is finite (about 1e308), but particle 0's two summands
    # point the same way and their sum overflows.
    a = 1e308
    x = np.array([[0.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 100.0, 0.0]])
    with pytest.raises(ValueError, match=r"non-finite displacement for particle 0$"):
        flow_update(Ensemble(x), np.array([a, -a, a, -a]), np.zeros((4, 3)), 1e-3, 1.0)


# --- step --------------------------------------------------------------------


def test_step_zero_displacement_increments_index_only():
    x = np.array([[0.5, -0.5, 0.25], [-0.5, 0.5, -0.25]])

    class ZeroLoss:
        dim = 3

        def loss(self, t, x):
            return np.zeros(x.shape[0])

        def grad(self, t, x):
            return np.zeros_like(x)

    out = step(Ensemble(x, 3), ZeroLoss(), 1.0, 1.0)
    assert out.step_index == 4
    assert np.array_equal(out.particles, x)


def test_step_does_not_mutate_input():
    x = np.ones((2, 3))
    ens = Ensemble(x)
    step(ens, QuadraticWellLoss(np.zeros(3)), 1.0, 0.1)
    assert np.array_equal(ens.particles, x)


def test_single_particle_converges_monotonically_to_center():
    center = np.array([1.0, -2.0, 0.5])
    loss_model = QuadraticWellLoss(center)
    gamma, eta = 1.0, 5.0
    n_steps = 40
    # contraction factor |1 - eta * C * gamma**(2-d)| < 1
    factor = 1.0 - eta * gradient_coefficient(3, gamma)
    assert 0.0 < factor < 1.0
    ens = Ensemble(np.array([[4.0, 4.0, 4.0]]))
    distances = [np.linalg.norm(ens.particles[0] - center)]
    for _ in range(n_steps):
        ens = step(ens, loss_model, gamma, eta)
        distances.append(np.linalg.norm(ens.particles[0] - center))
    assert all(b < a for a, b in zip(distances, distances[1:]))
    assert distances[-1] == pytest.approx(distances[0] * factor ** n_steps, rel=1e-9)


def test_run_is_deterministic_bit_for_bit():
    gen = np.random.default_rng(5)
    x = gen.standard_normal((8, 3))
    loss_model = QuadraticWellLoss(gen.standard_normal(3))
    a = b = Ensemble(x)
    for _ in range(25):
        a = step(a, loss_model, 0.9, 0.5)
        b = step(b, loss_model, 0.9, 0.5)
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

    ensemble = Ensemble(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="^non-finite loss for particle 0 at step 2$"):
        for _ in range(10):
            ensemble = step(ensemble, ExplodingLoss(), 1.0, 1.0)
    assert ensemble.step_index == 2


# --- equivariance properties -------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_permutation_equivariance(n, seed):
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, 3))
    perm = gen.permutation(n)
    loss_model = QuadraticWellLoss(gen.standard_normal(3))
    plain = step(Ensemble(x), loss_model, 0.7, 0.2).particles
    permuted = step(Ensemble(x[perm]), loss_model, 0.7, 0.2).particles
    np.testing.assert_allclose(permuted, plain[perm], rtol=1e-12, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_translation_equivariance(n, seed):
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, 3))
    shift = gen.uniform(-5, 5, size=3)
    base = QuadraticWellLoss(gen.standard_normal(3))
    plain = step(Ensemble(x), base, 0.7, 0.2).particles
    shifted = step(Ensemble(x + shift), ShiftedLoss(base, shift), 0.7, 0.2).particles
    np.testing.assert_allclose(shifted, plain + shift, rtol=1e-12, atol=1e-12)


def test_synchronous_update_reads_prestep_state():
    # The naive oracle evaluates everything at pre-step positions; agreement
    # on a state where sequential updates would differ confirms the step is
    # order-independent.
    gen = np.random.default_rng(42)
    x = gen.standard_normal((5, 3)) * 0.3
    loss_model = QuadraticWellLoss(np.zeros(3))
    out = step(Ensemble(x), loss_model, 0.4, 2.0).particles
    oracle = x + naive_flow_displacements(
        x, list(loss_model.loss(0, x)), [list(g) for g in loss_model.grad(0, x)], 0.4, 2.0)
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


def test_flow_step_validation():
    with pytest.raises(ValueError, match="^kernel constant requires dim >= 3, got 2$"):
        step(Ensemble(np.zeros((2, 2))), QuadraticWellLoss(np.zeros(2)), 1.0, 1.0)
    with pytest.raises(ValueError, match="^gamma must be positive, got 0.0$"):
        step(Ensemble(np.zeros((2, 3))), QuadraticWellLoss(np.zeros(3)), 0.0, 1.0)
    with pytest.raises(ValueError, match="^eta must be positive, got -0.1$"):
        step(Ensemble(np.zeros((2, 3))), QuadraticWellLoss(np.zeros(3)), 1.0, -0.1)


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


# --- stacks of ensembles -----------------------------------------------------


def test_ensemble_stack_members_and_validation():
    x = np.arange(24.0).reshape(2, 4, 3)
    stack = Ensemble(x, 5)
    assert stack.n == 4 and stack[()] is stack
    assert np.array_equal(stack[1].particles, x[1]) and stack[1].step_index == 5
    assert np.array_equal(stack[[1, 0]].particles, x[::-1])
    assert stack.particles.flags.c_contiguous
    with pytest.raises(TypeError, match="only a stack"):
        stack[0][0]
    with pytest.raises(ValueError, match="must be an"):
        Ensemble(np.zeros((0, 4, 3)))
    x[1, 2, 0] = math.nan
    with pytest.raises(ValueError, match="^stack member 1: non-finite coordinate at particle 2, component 0$"):
        Ensemble(x)


def test_evaluate_losses_normalizes_each_stack_member_by_its_own_mean():
    x = np.random.default_rng(3).standard_normal((3, 5, 4)) * np.array([1e-3, 1.0, 1e3])[:, None, None]
    loss_model = QuadraticWellLoss(np.ones(4))
    normalized, grads = evaluate_losses(loss_model, Ensemble(x))
    for member, (own_normalized, own_grads) in zip(range(3), (evaluate_losses(loss_model, Ensemble(m)) for m in x)):
        assert np.array_equal(normalized[member], own_normalized)
        assert np.array_equal(grads[member], own_grads)


class _UnreachableLoss:
    """A loss model that must not be evaluated."""

    def loss(self, step_index, x):
        raise AssertionError("loss evaluated")

    grad = loss


def test_stacked_flow_step_names_the_failing_member():
    # a bad eta is named before any loss is evaluated, stacked or alone
    with pytest.raises(MemberError, match="^stack member 2: eta must be positive, got -1.0$") as stacked:
        step(Ensemble(np.zeros((3, 2, 3))), _UnreachableLoss(), 1.0, [1.0, 2.0, -1.0])
    assert (stacked.value.member, stacked.value.reason) == (2, "eta must be positive, got -1.0")
    with pytest.raises(ValueError, match="^eta must be positive, got 0.0$"):
        step(Ensemble(np.zeros((2, 3))), _UnreachableLoss(), 1.0, 0)


@pytest.mark.parametrize("k", (1, 2, 11))
@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_stacked_flow_step_equals_its_members_stepped_alone(case, k):
    loss_model, particles, gamma, center = STACK_CASES[case](k)
    with np.errstate(all="ignore"):
        assert_stack_steps_as_its_members(
            lambda ensemble, eta: step(ensemble, loss_model, gamma, eta), particles, center * np.logspace(-2, 2, k))


class _FirstCoordinateLoss:
    """Loss x_0 of each particle, and the same large gradient 1e149 everywhere."""

    def loss(self, t, x):
        return x[..., 0].copy()

    def grad(self, t, x):
        return np.full(x.shape, 1e149)


def test_stacked_flow_step_checks_every_gradient_term_before_any_kernel():
    # Particles 0 and 1 coincide and gamma**2 underflows, so the kernel
    # fails on pair (1, 0) for every eta; the gradient term 7.96e307 * eta
    # overflows for eta = 10 only. Member 0 (eta = 1) fails in the kernel,
    # member 1 (eta = 10) at its gradient term, and the stacked step names
    # member 1 first, as every check runs for all members before the next.
    init = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    loss_model, gamma, etas = _FirstCoordinateLoss(), 1e-160, [1.0, 10.0]

    def advance(ensemble, values):
        return step(ensemble, loss_model, gamma, values)

    reasons = []
    with np.errstate(over="ignore"):
        for eta in etas:
            with pytest.raises(ValueError) as alone:
                advance(Ensemble(init), eta)
            reasons.append(str(alone.value))
        assert reasons == ["non-finite interaction term for particle pair (1, 0)",
                           "non-finite gradient term for particle 0"]
        with pytest.raises(MemberError) as stacked:
            advance(Ensemble(np.stack([init, init])), etas)
        assert (stacked.value.member, stacked.value.reason) == (1, reasons[1])
        # the sweep ends both runs at that step, each with its own message
        runs = experiments._lockstep(advance, etas, init, lambda t, particles: [t] * len(particles), 3)
    assert runs == [([(0, 0)], 1, reason) for reason in reasons]
