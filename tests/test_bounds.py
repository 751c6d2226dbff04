import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from particleflow import bounds
from particleflow.bounds import (
    DivergenceCheckReport,
    gronwall_bound,
    max_ratio,
    perturbed_flow_check,
)
from particleflow.config import make_config, parse_config_file
from particleflow.experiments import theorem_field
from particleflow.metrics import wasserstein_exact


def bound(w0=0.0, eps=0.0, lf=1.0, t=0.0):
    return gronwall_bound(w0, eps, lf, t)


def test_bound_at_time_zero_is_initial_distance():
    assert bound(w0=0.7, eps=0.3, t=0.0) == pytest.approx(0.7, rel=1e-15)


def test_bound_without_discrepancy_is_pure_exponential_growth():
    value = bound(w0=2.0, eps=0.0, lf=0.5, t=6.0)
    assert value == pytest.approx(2.0 * math.exp(3.0), rel=1e-12)


def test_bound_closed_form_point():
    # W0=0, L_F=1, eps=1, t=1 -> e - 1
    assert bound(w0=0.0, eps=1.0, t=1.0) == pytest.approx(math.e - 1.0, rel=1e-12)


def test_bound_params_validation():
    with pytest.raises(ValueError, match="initial_distance must be nonnegative"):
        bound(w0=-1.0)
    with pytest.raises(ValueError, match="discrepancy must be nonnegative"):
        bound(eps=-1.0)
    with pytest.raises(ValueError, match="elapsed must be nonnegative"):
        bound(t=-1.0)
    with pytest.raises(ValueError, match="field_lipschitz must be positive"):
        bound(lf=0.0)
    # a ValueError, which the CLI turns into a one-line exit, not math.exp's OverflowError
    with pytest.raises(ValueError, match=r"^exp\(L_F \* t\) overflows at L_F \* t = 720$"):
        bound(lf=2.0, t=360.0)
    # NaN passes a `value < 0` check
    for name, nan in (("initial_distance", {"w0": math.nan}), ("discrepancy", {"eps": math.nan}),
                      ("elapsed", {"t": math.nan}), ("field_lipschitz", {"lf": math.nan})):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            bound(**nan)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.1, max_value=3.0),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_bound_monotone_in_w0_eps_t(w0, eps, lf, t, dw, de):
    base = bound(w0=w0, eps=eps, lf=lf, t=t)
    assert bound(w0=w0 + dw, eps=eps, lf=lf, t=t) >= base - 1e-12
    assert bound(w0=w0, eps=eps + de, lf=lf, t=t) >= base - 1e-12
    assert bound(w0=w0, eps=eps, lf=lf, t=t + dw) >= base - 1e-12


def test_max_ratio_guards_zero_bounds():
    assert max_ratio(np.array([0.0, 1.0]), np.array([0.0, 2.0])) == 0.5
    assert max_ratio(np.array([1.0]), np.array([0.0])) == math.inf


# --- empirical check ---------------------------------------------------------


def test_zero_discrepancy_identical_sets_stay_together():
    field = theorem_field(3, seed=0)
    report = perturbed_flow_check(8, field, eps=0.0, t_end=0.5, dt=5e-4, seed=0)
    assert report.initial_distance == 0.0
    assert np.all(report.observed <= 1e-12)
    assert report.max_ratio == 0.0


def test_zero_field_drift_is_linear_in_time():
    # Under the near-zero field 1e-6 * I every perturbed particle drifts
    # along the same direction at rate eps / n, so the assignment distance
    # grows as eps * t (to within the field's 1e-6 relative growth), and
    # the bound at L_F = 1e-6 reduces to eps * t as well.
    d, n, eps = 3, 8, 0.25
    report = perturbed_flow_check(n, 1e-6 * np.eye(d), eps=eps, t_end=1.0, dt=1e-3, seed=3)
    assert report.field_lipschitz == pytest.approx(1e-6, rel=1e-12)
    np.testing.assert_allclose(report.observed, eps * report.times, rtol=1e-6)
    np.testing.assert_allclose(report.bounds, eps * report.times, rtol=1e-5)
    assert report.max_ratio <= 1.0 + 1e-5


def test_aligned_perturbation_tracks_bound_tightly():
    field = theorem_field(3, seed=1)
    report = perturbed_flow_check(16, field, eps=0.1, t_end=1.0, dt=1e-3, seed=1)
    assert isinstance(report, DivergenceCheckReport)
    assert len(report.times) >= 100
    assert np.all(report.observed <= report.bounds * 1.05)
    # tight by construction: the worst ratio is close to (but below) one
    assert 0.9 <= report.max_ratio <= 1.0


def test_dt_precondition_enforced():
    with pytest.raises(ValueError, match="dt"):
        perturbed_flow_check(4, np.eye(3), eps=0.1, t_end=1.0, dt=0.01, seed=0)


@pytest.mark.parametrize("eps, t_end, message", [
    (math.nan, 1.0, "^eps must be nonnegative, got nan$"),
    (math.inf, 1.0, "^eps must be finite, got inf$"),
    (-0.1, 1.0, "^eps must be nonnegative, got -0.1$"),
    (0.1, math.inf, "^t_end and dt must be positive and t_end finite, got t_end=inf, dt=0.001$"),
    (0.1, math.nan, "^t_end and dt must be positive and t_end finite, got t_end=nan, dt=0.001$"),
])
def test_check_rejects_non_finite_settings_before_integrating(eps, t_end, message):
    with pytest.raises(ValueError, match=message):
        perturbed_flow_check(4, np.eye(3), eps=eps, t_end=t_end, dt=1e-3, seed=0)


def test_check_is_deterministic():
    field = theorem_field(3, seed=5)
    a = perturbed_flow_check(8, field, eps=0.1, t_end=1.0, dt=1e-3, seed=5)
    b = perturbed_flow_check(8, field, eps=0.1, t_end=1.0, dt=1e-3, seed=5)
    assert np.array_equal(a.observed, b.observed)
    assert np.array_equal(a.bounds, b.bounds)


def _matched_distances(monkeypatch, runs):
    """(x, z, value) of every `bounds._matched_distance` call the checks
    make, one check per (n, d, eps, t_end, dt, seed) of `runs`."""
    measure = bounds._matched_distance
    calls = []

    def recorded(x, z):
        value = measure(x, z)
        calls.append((x, z, value))
        return value

    monkeypatch.setattr(bounds, "_matched_distance", recorded)
    for n, d, eps, t_end, dt, seed in runs:
        perturbed_flow_check(n, theorem_field(d, seed), eps, t_end, dt, seed)
    return calls


def _assert_the_solver_agrees(calls):
    # every particle gets the same offset, so z_i - x_i is one shared vector
    # e(t) up to rounding, and by the triangle inequality no permutation
    # beats the index matching: the solver, the oracle, must return the
    # identity at the matched distance's cost, bit for bit
    for x, z, value in calls:
        result = wasserstein_exact(x, z)
        assert np.array_equal(result.permutation, np.arange(len(x)))
        assert result.total_cost == value


def test_theorem_protocol_assignments_are_the_identity(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "configs" / "theorem.cfg"
    cfg = make_config("theorem", parse_config_file(str(path), "theorem"))
    (d,), (n,) = cfg.dims, cfg.n_particles
    calls = _matched_distances(monkeypatch, [(n, d, cfg.eps, cfg.t_end, cfg.dt, seed) for seed in cfg.seeds])
    assert len(calls) == len(cfg.seeds) * (1 + bounds.N_CHECKPOINTS) == 505
    _assert_the_solver_agrees(calls)


@pytest.mark.parametrize("n, d, eps", [
    (32, 10, 0.1),
    (64, 50, 0.1),
    # an offset near the particles' rounding, and one far above their spread
    (32, 3, 1e-12),
    (32, 3, 1e4),
])
def test_off_protocol_assignments_are_the_identity(monkeypatch, n, d, eps):
    calls = _matched_distances(monkeypatch, [(n, d, eps, 1.0, 1e-3, 7)])
    assert len(calls) == 1 + bounds.N_CHECKPOINTS
    _assert_the_solver_agrees(calls)


def test_bounds_imports_nothing_from_metrics():
    # the check needs no assignment solver, so no protocol loads scipy
    tree = ast.parse(Path(bounds.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module} | {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not {name for name in imported if name and "metrics" in name}
