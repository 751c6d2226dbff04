"""Resampling-free particle flow filter core.

Particles track a Bayesian posterior by following a deterministic velocity
field with two parts:

* a gradient term ``-C * gamma**(2-d) * grad L(x_j)`` performing gradient
  descent on the current negative log-likelihood, and
* a pairwise attraction-repulsion term
  ``-C * sum_i (d-2) * Lt_i * (x_i - x_j) / (|x_j - x_i|^2 + gamma^2)**(d/2)``
  where ``Lt_i`` is particle i's loss minus the ensemble mean loss. It
  pulls particle j toward particles with below-average loss and pushes it
  away from particles with above-average loss.

``C`` is the normalizing constant of the Newtonian potential kernel
``K(r) = C * r**(2-d)`` (the Green's function of the Laplacian, defined for
d >= 3); ``gamma`` smooths the kernel so coincident particles interact
finitely. Both terms are scaled by a single step size ``eta``. A step is
synchronous: losses, the mean-loss normalizer, gradients, and all pairwise
interactions are evaluated at the pre-step positions, and the result does
not depend on the order in which particles are updated. There is no
resampling and no randomness anywhere in this module.

``step(ensemble, loss_model, gamma, eta)`` maps an `Ensemble` at step t
to the ensemble at step t + 1, as the baselines' ``mcl_step`` and
``gradient_descent_step`` do. Its two halves are `evaluate_losses`, which
returns the normalized losses and gradients, and `flow_update`, which
turns them into displacements. All three also step a stack of ensembles
(see `Ensemble`), with one step size per member, in one call each for
the whole stack; each member gets the bits it would get stepped alone.

The pairwise term costs O(n^2 d) time and O(n d) memory. It is summed
from exact differences x_i - x_j (no Gram-matrix expansion, which cancels
badly for near-coincident particles), laid out coordinate-major so that
each array operation runs along the particle axis, in blocks of rows sized
by a fixed memory budget. Where a kernel denominator must overflow, as on
the diverging clouds at the large-eta edge of a step-size grid, it is set
to inf without computing the power, which numpy makes slow there.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

# Doubles of pair differences per interaction block (512 KB): blocks of
# rows stay cache-sized, and peak memory grows linearly with the ensemble.
_BUDGET = 1 << 16

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Immutable particle set at a discrete time index, or a stack of them.

    A stack carries a leading axis, particles (k, n, d): k particle sets of
    one size at one time index, such as the runs of a step-size grid, which
    the step functions advance together, each member getting the bits it
    would get alone. Indexing a stack gives its members (an int index) or a
    sub-stack (a list of indices); the empty index () gives the ensemble
    itself, so `_each_member` over ensemble.particles.shape[:-2] treats a
    single ensemble as a one-member stack. Construction raises ValueError
    naming the first non-finite coordinate (after its member, in a stack).

    Particle order only matters for reproducibility of floating-point
    reductions; filter output is equivariant under permutations.
    """

    particles: np.ndarray  # (n, d), or (k, n, d) for a stack
    step_index: int = 0

    def __post_init__(self) -> None:
        arr = np.array(self.particles, dtype=np.float64, copy=True, order="C")
        if arr.ndim not in (2, 3) or 0 in arr.shape[:-1]:
            raise ValueError(
                f"particles must be an (n, d) array with n >= 1 (a (k, n, d) array for a stack), "
                f"got shape {np.shape(self.particles)}"
            )
        _require(np.isfinite(arr), lambda at: f"non-finite coordinate at particle {at[-2]}, component {at[-1]}", 2)
        if self.step_index < 0:
            raise ValueError(f"step_index must be nonnegative, got {self.step_index}")
        arr.setflags(write=False)
        object.__setattr__(self, "particles", arr)

    def __getitem__(self, index) -> Ensemble:
        if isinstance(index, tuple) and not index:
            return self
        if self.particles.ndim != 3:
            raise TypeError("only a stack of ensembles can be indexed")
        return Ensemble(self.particles[index], self.step_index)

    @property
    def n(self) -> int:
        return self.particles.shape[-2]


class MemberError(ValueError):
    """A check that failed for stack member `member`, whose message alone
    is `reason`: "stack member {member}: {reason}"."""

    def __init__(self, member: int, reason: str):
        super().__init__(member, reason)  # args that pickling rebuilds it from
        self.member, self.reason = member, reason

    def __str__(self) -> str:
        return f"stack member {self.member}: {self.reason}"


def _require(ok: np.ndarray, describe, item_axes: int = 0) -> None:
    """Raise ValueError(describe(at)) at ok's first False entry in row-major
    order, at being its full index. An ok with more than item_axes axes
    flags a stack, whose leading axis indexes members: a MemberError then
    names the member. A check passes its whole mask, so while it holds it
    costs one reduction, and the first False lies in the first failing row."""
    if not ok.all():
        at = tuple(np.argwhere(~ok)[0].tolist())
        raise MemberError(at[0], describe(at)) if ok.ndim > item_axes else ValueError(describe(at))


def _each_member(call, shape: tuple) -> list:
    """[call(i) for i in np.ndindex(shape)], the one loop over the members of
    a stack of shape (k,) or a single run of shape () (i is then ()). The
    first ValueError of a call ends it: a stack raises a `MemberError` naming
    member i[0] with the call's message, a single run the error itself."""
    results = []
    for i in np.ndindex(shape):
        try:
            results.append(call(i))
        except ValueError as exc:
            raise (MemberError(i[0], str(exc)) if i else exc) from None
    return results


def _per_member(value, ensemble: Ensemble, name: str) -> np.ndarray:
    """A step size, one for every member or one per member, as an array of
    shape ensemble.particles.shape[:-2] (() for a single ensemble); raises
    ValueError naming the first value that is not positive."""
    values = np.broadcast_to(np.asarray(value, dtype=np.float64), ensemble.particles.shape[:-2])
    _require(values > 0, lambda at: f"{name} must be positive, got {values[at]}")
    return values


def _log_kernel_constant(dim: int) -> float:
    """log C, with C = Gamma(d/2 + 1) / (d * (d - 2) * pi**(d/2)).

    Log space keeps large dimensions from overflowing intermediate
    factorials. Rejects dim < 3 where the expression is singular or
    undefined.
    """
    if dim < 3:
        raise ValueError(f"kernel constant requires dim >= 3, got {dim}")
    return (
        math.lgamma(dim / 2.0 + 1.0)
        - math.log(dim)
        - math.log(dim - 2)
        - (dim / 2.0) * math.log(math.pi)
    )


def kernel_constant(dim: int) -> float:
    """Constant C = Gamma(d/2 + 1) / (d * (d - 2) * pi**(d/2)) of the kernel."""
    return math.exp(_log_kernel_constant(dim))


def gradient_coefficient(dim: int, gamma: float) -> float:
    """Coefficient C * gamma**(2-d) of the gradient term, in log space.

    gamma**(2-d) grows explosively for small gamma in high dimension
    (gamma=0.1, d=10 already gives 1e8), so the product is formed from
    logarithms. Raises ValueError when it exceeds the largest float.
    Overall magnitude is otherwise the caller's concern, via eta.
    """
    log_c = _log_kernel_constant(dim)
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    exponent = log_c + (2.0 - dim) * math.log(gamma)
    if exponent > _LOG_FLOAT_MAX:
        raise ValueError(f"gradient coefficient C * gamma**(2-d) overflows (gamma={gamma}, dim={dim})")
    return math.exp(exponent)


def _checked_losses(loss_model, t: int, x: np.ndarray) -> np.ndarray:
    """loss_model.loss(t, x) as floats, one call for x of shape (n, d) or a
    (k, n, d) stack; ValueError on a wrong shape or naming the first
    particle (after its member, in a stack) whose loss is not finite."""
    losses = np.asarray(loss_model.loss(t, x), dtype=np.float64)
    if losses.shape != x.shape[:-1]:
        raise ValueError(f"loss model returned shape {losses.shape}, expected {x.shape[:-1]}")
    _require(np.isfinite(losses), lambda at: f"non-finite loss for particle {at[-1]} at step {t}", 1)
    return losses


def _checked_grads(loss_model, t: int, x: np.ndarray) -> np.ndarray:
    """loss_model.grad(t, x) as floats, one call for x of shape (n, d) or a
    (k, n, d) stack; ValueError on a wrong shape or naming the first
    particle (after its member, in a stack) with a non-finite component."""
    grads = np.asarray(loss_model.grad(t, x), dtype=np.float64)
    if grads.shape != x.shape:
        raise ValueError(f"loss gradient has shape {grads.shape}, expected {x.shape}")
    _require(np.isfinite(grads), lambda at: f"non-finite gradient for particle {at[-2]} at step {t}", 2)
    return grads


def evaluate_losses(loss_model, ensemble: Ensemble) -> tuple[np.ndarray, np.ndarray]:
    """(normalized losses, gradients) of every particle at the ensemble's time index.

    The normalized losses are the losses minus their ensemble mean, so they
    sum to zero up to rounding. A stack makes one loss and one gradient
    call for all its members, and each member is normalized by its own
    mean: the results are shaped (k, n) and (k, n, d), and each member's
    rows have the bits of its own evaluation.
    """
    t, x = ensemble.step_index, ensemble.particles
    losses = _checked_losses(loss_model, t, x)
    grads = _checked_grads(loss_model, t, x)
    return losses - losses.mean(axis=-1, keepdims=True), grads


def _interaction_sum(x: np.ndarray, normalized_losses: np.ndarray, gamma: float, dim: int) -> np.ndarray:
    """sum_i (d-2) * Lt_i * (x_i - x_j) / (|x_j - x_i|^2 + gamma^2)**(d/2).

    Works coordinate-major: x is transposed once to (d, n), and each block
    of rows j forms the exact differences diff[k, b, i] = x_ik - x_jk, so
    every numpy call runs along the long particle axis i rather than the
    short coordinate axis. A block holds as many rows as fit in _BUDGET
    doubles of differences, which keeps the temporaries in cache and at
    O(n * d) memory. The i = j summand is excluded, hence exactly zero.
    Each output entry is one einsum reduction over all i, whatever the
    block, so the result is bit-stable for any split of the rows. A
    (k, n, d) stack with (k, n) losses shares the set-up, then runs each
    member's block loop in turn (`_each_member`), each with the bits it
    would get alone.

    A base |x_j - x_i|^2 + gamma^2 whose power must overflow is set to inf
    without computing the power, which numpy does tens of times slower
    there; the weight is scaled / inf bit for bit as with the power.

    Raises ValueError naming the first particle pair (i, j) whose summand
    is not finite (a `MemberError` naming the first such member, in a
    stack). A sum that overflows from finite summands is returned as is.
    """
    n, d = x.shape[-2:]
    xt = np.ascontiguousarray(np.swapaxes(x, -1, -2))
    scaled = (dim - 2.0) * normalized_losses
    g2 = gamma * gamma
    # the smallest base whose power certainly overflows; the margin is far
    # above the rounding error of exp, so bases just below still go through **
    overflow = math.exp(_LOG_FLOAT_MAX / (0.5 * dim)) * (1.0 + 1e-9)
    rows = max(1, min(n, _BUDGET // (d * n)))
    diagonal = np.arange(n)
    out = np.empty_like(x)

    def member(m):
        xt_m, scaled_m, out_m = xt[m], scaled[m], out[m]
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            diff = xt_m[:, None, :] - xt_m[:, start:stop, None]  # diff[k, b, i] = x_ik - x_(start+b)k
            sq = np.einsum("kbi,kbi->bi", diff, diff)
            sq += g2
            if sq.max() < overflow:
                sq **= 0.5 * dim
            else:
                big = sq >= overflow  # before the power, whose finite results may pass it
                np.power(sq, 0.5 * dim, out=sq, where=~big)
                sq[big] = np.inf
            w = scaled_m / sq
            w[diagonal[:stop - start], diagonal[start:stop]] = 0.0
            out_m[start:stop] = np.einsum("bi,kbi->bk", w, diff)
            if not np.isfinite(out_m[start:stop]).all():
                _require(np.isfinite(w * diff).all(axis=0),
                         lambda at: f"non-finite interaction term for particle pair ({at[1]}, {start + at[0]})", 2)
            # free this block before the next one allocates: with two blocks
            # live the heap can outgrow malloc's trim threshold, and then its
            # pages are returned and faulted in again on every call
            del diff, sq, w

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _each_member(member, x.shape[:-2])
    return out


def flow_update(ensemble: Ensemble, normalized_losses: np.ndarray, grads: np.ndarray,
                gamma: float, eta) -> np.ndarray:
    """Per-particle displacements eta * F(x_j) for one synchronous step.

    normalized_losses and grads are as returned by `evaluate_losses`;
    gamma > 0 is the kernel smoothing length (state units) and eta > 0 the
    step size multiplying the whole velocity field, one for all members of
    a stack or one per member. The state dimension d is the ensemble's
    width and must be at least 3, where the kernel constant is defined.

    With a single particle the update is exactly the gradient term
    -eta * C * gamma**(2-d) * grads[j]; the pairwise term of a lone
    particle vanishes identically because its normalized loss is zero and
    the self-summand is excluded.

    Raises ValueError naming the first non-finite quantity, checked in
    this order: the gradient coefficient, a particle's gradient term, a
    particle pair's interaction term, a particle's summed displacement.
    A stack is updated in one call, each member with the bits it would
    get alone, and each check runs for every member before the next one:
    its `MemberError` names a member whose gradient term fails before an
    earlier member whose kernel fails, each with its own message.
    """
    x = ensemble.particles
    d = x.shape[-1]
    etas = _per_member(eta, ensemble, "eta")
    if grads.shape != x.shape or normalized_losses.shape != x.shape[:-1]:
        raise ValueError("losses or gradients do not match the ensemble's shape")
    with np.errstate(over="ignore"):  # an overflowing product is reported below
        coeffs = etas * gradient_coefficient(d, gamma)
    _require(np.isfinite(coeffs), lambda at: (
        f"gradient coefficient eta * C * gamma**(2-d) overflowed (eta={etas[at]}, gamma={gamma}, dim={d})"))
    displacements = (-coeffs)[..., None, None] * grads
    _require(np.isfinite(displacements), lambda at: f"non-finite gradient term for particle {at[-2]}", 2)
    if ensemble.n > 1:
        pair = _interaction_sum(x, normalized_losses, gamma, d)
        displacements = displacements + (-(etas * kernel_constant(d)))[..., None, None] * pair
        _require(np.isfinite(displacements), lambda at: f"non-finite displacement for particle {at[-2]}", 2)
    return displacements


def step(ensemble: Ensemble, loss_model, gamma: float, eta) -> Ensemble:
    """One synchronous filter step; returns a new ensemble, input untouched.

    All quantities are read from the pre-step ensemble and written to a
    fresh particle array, so the result is independent of any per-particle
    update order. A stack takes one eta for all members or one per member,
    checked before anything is evaluated. It makes one `evaluate_losses`
    and one `flow_update` call for the whole stack, so each member gets
    the bits it would get stepped alone; a failing member fails the step
    with a `MemberError`.
    """
    etas = _per_member(eta, ensemble, "eta")
    normalized_losses, grads = evaluate_losses(loss_model, ensemble)
    displacements = flow_update(ensemble, normalized_losses, grads, gamma, etas)
    return Ensemble(ensemble.particles + displacements, ensemble.step_index + 1)
