"""Span tracer for the benchmark's traced run, and the per-layer table built from it.

The tracer wraps particleflow's public functions from outside, at the names
the drivers actually call (for example `particleflow.experiments.kl_gaussians`
rather than `particleflow.metrics.kl_gaussians`), so the program itself
carries no tracing code. Spans are kept in memory as
(name, start, end, parent index, work) and written out when the run ends.
Calls run on one thread (the workloads keep `--threads` at 1), so a plain
stack gives each span its parent.
"""
from __future__ import annotations

import functools
import importlib
import os
import time

# span name -> (module holding the name the program calls, attribute path)
BOUNDARIES = {
    "flow.flow_update": ("particleflow.flow", "flow_update"),
    "flow.evaluate_losses": ("particleflow.flow", "evaluate_losses"),
    "losses.QuadraticProjectionLoss.loss": ("particleflow.losses", "QuadraticProjectionLoss.loss"),
    "losses.QuadraticProjectionLoss.grad": ("particleflow.losses", "QuadraticProjectionLoss.grad"),
    "losses.exact_posterior": ("particleflow.experiments", "exact_posterior"),
    "losses.expected_posterior": ("particleflow.experiments", "expected_posterior"),
    "pose.PoseRegistrationLoss.loss": ("particleflow.pose", "PoseRegistrationLoss.loss"),
    "pose.PoseRegistrationLoss.grad": ("particleflow.pose", "PoseRegistrationLoss.grad"),
    "pose.mean_pose": ("particleflow.experiments", "mean_pose"),
    "baselines.mcl_step": ("particleflow.experiments", "mcl_step"),
    "baselines.gradient_descent_step": ("particleflow.experiments", "gradient_descent_step"),
    "metrics.fit_gaussian": ("particleflow.experiments", "fit_gaussian"),
    "metrics.kl_gaussians": ("particleflow.experiments", "kl_gaussians"),
    "metrics.pose_errors": ("particleflow.experiments", "pose_errors"),
    "rng.stream": ("particleflow.rng", "stream"),
    "experiments.write_csv": ("particleflow.experiments", "write_csv"),
    "experiments.write_manifest": ("particleflow.experiments", "write_manifest"),
}

# Counted but not timed, so factorisation time stays in the self time of
# the metric function that asks for it. Calls are attributed to the
# innermost span they run in.
CHOLESKY = (
    ("numpy.linalg", "cholesky"),
    ("scipy.linalg", "cholesky"),
    ("scipy.linalg", "cho_factor"),
)

ROOT = "cli.main"


def _pairs(args, kwargs, result) -> int:
    n = args[0].particles.shape[0]  # flow_update(ensemble, evaluation, config)
    return n * (n - 1)


def _bytes_written(args, kwargs, result) -> int:
    return os.path.getsize(args[0])  # write_csv(path, rows)


# work recorded with each span, summed into a per-layer metric
WORK = {"flow.flow_update": _pairs, "experiments.write_csv": _bytes_written}


class MissingBoundary(LookupError):
    """A traced name no longer exists in the program."""


def _resolve(module_name: str, path: str):
    """(owner, attribute, current value) for a dotted attribute path."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise MissingBoundary(f"{module_name}: {exc}") from None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    value = getattr(owner, attr, None) if owner is not None else None
    if not callable(value):
        raise MissingBoundary(f"{module_name}.{path} does not exist or is not callable")
    return owner, attr, value


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, work]
        self.cholesky: dict[str, int] = {}  # enclosing span name -> calls
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def span(self, name: str, fn, work=None):
        """fn wrapped to record one span per call."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, time.perf_counter(), None, stack[-1] if stack else -1, 0]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if work is not None:
                record[4] = work(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn):
        counts, spans, stack = self.cholesky, self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            where = spans[stack[-1]][0] if stack else ROOT
            counts[where] = counts.get(where, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every boundary; raises MissingBoundary naming the first one gone."""
        targets = []
        for name, (module_name, path) in BOUNDARIES.items():
            try:
                owner, attr, value = _resolve(module_name, path)
            except MissingBoundary as exc:
                raise MissingBoundary(f"trace boundary {name}: {exc}") from None
            targets.append((owner, attr, value, self.span(name, value, WORK.get(name))))
        for module_name, attr in CHOLESKY:
            owner, attr, value = _resolve(module_name, attr)
            targets.append((owner, attr, value, self._counted(value)))
        for owner, attr, value, wrapper in targets:
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, value))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, value = self._installed.pop()
            setattr(owner, attr, value)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - c for (_, start, end, _, _), c in zip(spans, child)]


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100]) of a nonempty sequence."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(spans, cholesky: dict, untraced_wall_s: float) -> dict:
    """Per-layer metrics per traced CLI call, as {name: (value, unit)}.

    Spans must come from whole `cli.main` calls, each a root span. Counts
    and self times are totals divided by the number of root calls, so the
    self times of all boundaries plus `experiments.driver.self_s` add up to
    `cli.main.traced_s`.
    """
    selfs = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    if not roots or any(spans[i][0] != ROOT for i in roots):
        raise ValueError(f"every top-level span must be {ROOT}")
    per_call = 1.0 / len(roots)
    calls = dict.fromkeys(BOUNDARIES, 0)
    self_s = dict.fromkeys(BOUNDARIES, 0.0)
    work = dict.fromkeys(BOUNDARIES, 0)
    durations = []
    for (name, start, end, parent, amount), own in zip(spans, selfs):
        if name == ROOT:
            continue
        calls[name] += 1
        self_s[name] += own
        work[name] += amount
        if name == "flow.flow_update":
            durations.append(end - start)

    out = {}
    for name in BOUNDARIES:
        out[f"{name}.calls"] = (calls[name] * per_call, "count")
        out[f"{name}.self_s"] = (self_s[name] * per_call, "s")
    flow = "flow.flow_update"
    out[f"{flow}.call_ms.p50"] = (1e3 * percentile(durations, 50) if durations else 0.0, "ms")
    out[f"{flow}.call_ms.p99"] = (1e3 * percentile(durations, 99) if durations else 0.0, "ms")
    out[f"{flow}.ns_per_pair"] = (1e9 * self_s[flow] / work[flow] if work[flow] else 0.0, "ns")
    in_metrics = sum(c for where, c in cholesky.items() if where.startswith("metrics."))
    kl_calls = calls["metrics.kl_gaussians"]
    out["metrics.cholesky.calls"] = (in_metrics * per_call, "count")
    out["metrics.kl_gaussians.cholesky_per_kl"] = (
        cholesky.get("metrics.kl_gaussians", 0) / kl_calls if kl_calls else 0.0, "ratio")
    out["experiments.write_csv.bytes"] = (work["experiments.write_csv"] * per_call, "B")
    traced = sum(spans[i][2] - spans[i][1] for i in roots) * per_call
    out["experiments.driver.self_s"] = (sum(selfs[i] for i in roots) * per_call, "s")
    out["cli.main.traced_s"] = (traced, "s")
    out["trace.overhead_s"] = (traced - untraced_wall_s, "s")
    return out


def hot_without_calls(metrics: dict, hot) -> list[str]:
    """Hot boundaries of a workload that recorded no calls."""
    return [name for name in hot if metrics[f"{name}.calls"][0] == 0]
