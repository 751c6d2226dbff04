"""Every failure check's message, pinned whole: for one input alone, and for
the same input as a member m >= 1 of a stack whose other members pass.

Each row of CASES is (fail, message, m): fail(stacked) raises ValueError
on the single input (stacked False) or on the stack (stacked True). The
single message must equal `message`. The stacked error must be a
`MemberError` of member m whose reason is `message`, so its message is
"stack member m: " followed by it.
"""
import ast
import pickle
from pathlib import Path

import numpy as np
import pytest

import particleflow
from particleflow.baselines import gradient_descent_step, mcl_step
from particleflow.flow import Ensemble, MemberError, _each_member, evaluate_losses, step
from particleflow.metrics import GaussianSummary, kl_gaussians

# four particles in d=3, all within 0.2 of each other
X = np.arange(12.0).reshape(4, 3) / 100.0
MARK = 7.0  # first coordinate of a marked particle; unmarked ones stay below 1


def marked(*cells) -> np.ndarray:
    """X with MARK at each cell: a (particle, component) pair, or a particle
    index for its first component."""
    x = X.copy()
    for cell in cells:
        x[cell if isinstance(cell, tuple) else (cell, 0)] = MARK
    return x


def stacked_at(m: int, bad, good, k: int = 3) -> np.ndarray:
    """k members equal to good, except member m, which is bad."""
    return np.stack([bad if i == m else good for i in range(k)])


class MarkedLoss:
    """Loss `loss` at the particles whose first coordinate is marked, and
    gradient `grad` at each marked coordinate; zero elsewhere. A coordinate
    above 5 counts as marked, also after MCL's motion noise."""

    def __init__(self, loss=0.0, grad=0.0):
        self.value, self.slope = loss, grad

    def loss(self, t, x):
        return np.where(x[..., 0] > 5.0, self.value, 0.0)

    def grad(self, t, x):
        return np.where(x > 5.0, self.slope, 0.0)


def ensemble(bad: np.ndarray, stacked: bool, m: int = 1, step_index: int = 0) -> Ensemble:
    return Ensemble(stacked_at(m, bad, X) if stacked else bad, step_index)


def per_member(value, stacked: bool, m: int = 1, good=1.0):
    return stacked_at(m, value, good) if stacked else value


def summary(mean, cov, stacked: bool, m: int = 1) -> GaussianSummary:
    mean, cov = np.asarray(mean, dtype=float), np.asarray(cov, dtype=float)
    if not stacked:
        return GaussianSummary(mean, cov)
    return GaussianSummary(stacked_at(m, mean, np.zeros_like(mean)), stacked_at(m, cov, np.eye(len(mean))))


def unit(stacked: bool) -> GaussianSummary:
    return summary(np.zeros(2), np.eye(2), stacked)


def _coordinate(stacked):
    bad = X.copy()
    bad[2, 1] = np.nan
    Ensemble(stacked_at(1, bad, X) if stacked else bad)


def _cholesky_factor(stacked, monkeypatch):
    # a finite, symmetric, positive definite covariance always factors to a
    # finite factor, so this check is reached only through a patched factor
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky",
                        lambda cov: np.where(cov[..., :1, :1] == MARK, np.nan, cholesky(cov)))
    summary(np.zeros(2), np.diag([MARK, 1.0]), stacked).cholesky


def _negative_kl(stacked, monkeypatch):
    # KL(p || q) of valid summaries is not below -1e-8 at any practical
    # size, so this check is reached only through a wrong cached inverse
    # factor of q (half the true one)
    q = unit(stacked)
    vars(q)["inverse_factor"] = per_member(0.5 * np.eye(2), stacked, good=np.eye(2))
    kl_gaussians(unit(stacked), q)


CASES = {
    "ensemble coordinate": (
        lambda s, mp: _coordinate(s), "non-finite coordinate at particle 2, component 1", 1),
    "gd eta": (
        lambda s, mp: gradient_descent_step(ensemble(X, s), MarkedLoss(), per_member(0.0, s, 2)),
        "eta must be positive, got 0.0", 2),
    "mcl epsilon": (
        lambda s, mp: mcl_step(ensemble(X, s), MarkedLoss(), per_member(np.nan, s), seed=0),
        "epsilon must be positive, got nan", 1),
    "flow eta": (
        lambda s, mp: step(ensemble(X, s), MarkedLoss(), 0.5, per_member(-1.0, s)),
        "eta must be positive, got -1.0", 1),
    "loss": (
        lambda s, mp: evaluate_losses(MarkedLoss(loss=np.nan), ensemble(marked(2), s, step_index=3)),
        "non-finite loss for particle 2 at step 3", 1),
    "mcl loss": (
        lambda s, mp: mcl_step(ensemble(marked(3), s, m=2, step_index=4), MarkedLoss(loss=np.inf), 1e-6, seed=0),
        "non-finite loss for particle 3 at step 4", 2),
    "gradient": (
        lambda s, mp: evaluate_losses(MarkedLoss(grad=np.inf), ensemble(marked((1, 2), (3, 0)), s, step_index=3)),
        "non-finite gradient for particle 1 at step 3", 1),
    "gd gradient": (
        lambda s, mp: gradient_descent_step(ensemble(marked(3), s), MarkedLoss(grad=np.nan), 1.0),
        "non-finite gradient for particle 3 at step 0", 1),
    "gradient coefficient": (
        lambda s, mp: step(ensemble(X, s), MarkedLoss(), 0.01, per_member(1e308, s)),
        "gradient coefficient eta * C * gamma**(2-d) overflowed (eta=1e+308, gamma=0.01, dim=3)", 1),
    "gradient term": (
        lambda s, mp: step(ensemble(marked(2), s), MarkedLoss(grad=1e308), 0.01, 1.0),
        "non-finite gradient term for particle 2", 1),
    "interaction pair": (
        lambda s, mp: step(ensemble(marked(2), s, m=2), MarkedLoss(loss=1e307), 0.01, 1.0),
        "non-finite interaction term for particle pair (1, 0)", 2),
    "displacement": (
        lambda s, mp: step(ensemble(marked(2), s), MarkedLoss(loss=1e305), 1.0, 1e10),
        "non-finite displacement for particle 0", 1),
    "summary mean": (
        lambda s, mp: summary([0.0, np.nan], np.eye(2), s),
        "mean and covariance must not contain infs or NaNs", 1),
    "summary covariance": (
        lambda s, mp: summary(np.zeros(2), [[1.0, np.inf], [np.inf, 1.0]], s, m=2),
        "mean and covariance must not contain infs or NaNs", 2),
    "summary asymmetric": (
        lambda s, mp: summary(np.zeros(2), [[1.0, 0.1], [0.0, 1.0]], s),
        "covariance asymmetric: max |S - S^T| = 0.1", 1),
    "cholesky factor": (
        _cholesky_factor, "covariance has a non-finite Cholesky factor", 1),
    "kl reference not positive definite": (
        lambda s, mp: kl_gaussians(unit(s), summary(np.zeros(2), np.diag([1.0, -1.0]), s)),
        "second (reference) covariance is not positive definite (eigenvalues in [-1, 1])", 1),
    "kl first not positive definite": (
        lambda s, mp: kl_gaussians(summary(np.zeros(2), np.diag([1.0, -1.0]), s), unit(s)),
        "first covariance is not positive definite (eigenvalues in [-1, 1])", 1),
    "kl mean difference": (
        lambda s, mp: kl_gaussians(summary([-1e308, 0.0], np.eye(2), s), summary([1e308, 0.0], np.eye(2), s)),
        "mean difference must not contain infs or NaNs", 1),
    "kl overflow": (
        lambda s, mp: kl_gaussians(unit(s), summary([1e200, 0.0], np.eye(2), s)),
        "KL evaluated to inf; a term overflowed", 1),
    "kl negative": (
        _negative_kl, "KL evaluated to -0.75 < 0; inputs are inconsistent", 1),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_failure_message_single_and_stacked(case, monkeypatch):
    fail, message, member = CASES[case]
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError) as single:
            fail(False, monkeypatch)
        with pytest.raises(ValueError) as stacked:
            fail(True, monkeypatch)
    assert str(single.value) == message and not isinstance(single.value, MemberError)
    exc = stacked.value
    assert isinstance(exc, MemberError) and exc.member == member and exc.reason == message
    assert str(exc) == f"stack member {member}: {message}"
    copy = pickle.loads(pickle.dumps(exc))
    assert (copy.member, copy.reason, str(copy)) == (member, message, str(exc))


def test_each_member_calls_members_in_order_and_names_the_first_that_fails():
    called = []

    def call(i):
        called.append(i)
        if i and i[0] >= 2:
            raise ValueError(f"member {i[0]} fails alone")
        return 10 * len(called)

    assert _each_member(call, (2,)) == [10, 20] and called == [(0,), (1,)]
    assert _each_member(call, ()) == [30]
    called.clear()
    with pytest.raises(MemberError) as stacked:
        _each_member(call, (5,))
    assert (stacked.value.member, stacked.value.reason) == (2, "member 2 fails alone")
    assert called == [(0,), (1,), (2,)]  # no member after the failing one
    own = ValueError("a single run's own message")

    def fail(i):
        raise own

    with pytest.raises(ValueError) as single:
        _each_member(fail, ())
    assert single.value is own


def test_one_member_loop_builds_every_member_error():
    # MemberError is built by the failure check and the member loop only, the
    # member loop is the package's one np.ndindex, and the KL read-out
    # recovers through experiments._drop_failing, with no try of its own
    found = {"MemberError": set(), "ndindex": set(), "try": set()}
    for path in sorted(Path(particleflow.__file__).parent.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        for top in module.body:
            for func in top.body if isinstance(top, ast.ClassDef) else [top]:
                name = f"{path.stem}.{getattr(func, 'name', '')}"
                for node in ast.walk(func):
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "MemberError":
                        found["MemberError"].add(name)
                    elif isinstance(node, ast.Attribute) and node.attr == "ndindex":
                        found["ndindex"].add(name)
                    elif isinstance(node, ast.Try):
                        found["try"].add(name)
    assert found["MemberError"] == {"flow._require", "flow._each_member"}
    assert found["ndindex"] == {"flow._each_member"}
    assert "experiments._kl_measure" not in found["try"] and "experiments._drop_failing" in found["try"]
