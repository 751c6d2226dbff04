"""Experiment configuration: key=value files, flag overrides, validation.

EXPERIMENT_KEYS names the keys each experiment reads: they are its CLI
flags, the keys its config file may hold and the configuration lines of
its manifest. `ExperimentConfig` rejects any other key set away from its
default, however the config is built.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .bounds import check_time_step

VALID_METHODS = ("flow", "mcl", "gd")

_SWEEP_KEYS = ("n_particles", "n_steps", "seeds", "methods", "gamma", "grid_center",
               "grid_orders", "grid_points_per_order", "out")
EXPERIMENT_KEYS = {
    "synthetic": ("dims",) + _SWEEP_KEYS,
    "pose": _SWEEP_KEYS + ("pose_points", "sigma"),
    "theorem": ("dims", "n_particles", "seeds", "eps", "t_end", "dt", "out"),
}

# Per-experiment values of the fields whose dataclass default is None. Pose
# reads no dims key: its particles are 6-D poses, and this (6,) is the
# dimension every pose sweep, grid check and manifest line uses.
_EXPERIMENT_DEFAULTS = {
    "synthetic": {"dims": (10,), "n_particles": (100,), "methods": ("flow", "mcl")},
    "pose": {"dims": (6,), "n_particles": (80,), "methods": ("flow", "gd")},
    "theorem": {"dims": (3,), "n_particles": (32,), "methods": ()},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated settings of one experiment. dims, n_particles and methods
    left at None take the experiment's _EXPERIMENT_DEFAULTS; a field the
    experiment does not read (EXPERIMENT_KEYS) that differs from its
    default is rejected as an unknown key."""

    experiment: str
    dims: tuple | None = None
    n_particles: tuple | None = None
    n_steps: int = 50
    seeds: tuple = tuple(range(10))
    methods: tuple | None = None
    gamma: float | None = None  # None: 0.5 synthetic / 8.0 pose, see experiments.resolve_grid
    # log-uniform hyperparameter grid spanning grid_orders orders of magnitude;
    # None picks a scale-aware center per method and dimension (see
    # experiments.auto_grid_center), recorded in the run manifest either way
    grid_center: float | None = None
    grid_orders: int = 5
    grid_points_per_order: int = 2
    out: str = "results.csv"
    # pose experiment
    pose_points: int = 12
    sigma: float = 0.005
    # theorem experiment
    eps: float = 0.1
    t_end: float = 1.0
    dt: float = 1e-3

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENT_KEYS:
            raise ValueError(f"experiment must be one of {tuple(EXPERIMENT_KEYS)}, got {self.experiment!r}")
        defaults = _EXPERIMENT_DEFAULTS[self.experiment]
        for key, value in defaults.items():
            if getattr(self, key) is None:
                object.__setattr__(self, key, value)
        for f in fields(self)[1:]:  # after experiment
            if (f.name not in EXPERIMENT_KEYS[self.experiment]
                    and getattr(self, f.name) != defaults.get(f.name, f.default)):
                raise ValueError(f"unknown key {f.name!r} for the {self.experiment} experiment")
        if self.grid_center is not None and not self.grid_center > 0:
            raise ValueError(f"grid center must be positive, got {self.grid_center}")
        if self.grid_orders < 1:
            raise ValueError(f"grid orders must be >= 1, got {self.grid_orders}")
        if self.grid_points_per_order < 1:
            raise ValueError(f"grid points_per_order must be >= 1, got {self.grid_points_per_order}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        # a list the experiment reads (theorem reads no methods) is nonempty; a
        # repeated value would run twice, or (seeds) once under a manifest naming it twice
        for key in ("dims", "n_particles", "seeds", "methods"):
            values = getattr(self, key)
            if not values and key in EXPERIMENT_KEYS[self.experiment]:
                raise ValueError(f"{key} must be nonempty")
            if len(set(values)) != len(values):
                raise ValueError(f"{key} must hold distinct values, got {','.join(map(str, values))}")
            if self.experiment == "theorem" and key in ("dims", "n_particles") and len(values) != 1:
                raise ValueError(f"theorem takes one {key} value, got {','.join(map(str, values))}")
        if any(n < 1 for n in self.n_particles):
            raise ValueError(f"n_particles must all be >= 1, got {self.n_particles}")
        if any(s < 0 for s in self.seeds):
            raise ValueError(f"seeds must all be nonnegative, got {self.seeds}")
        if self.experiment == "synthetic" and any(d < 3 for d in self.dims):
            raise ValueError(f"synthetic dims must all be >= 3, got {self.dims}")
        if self.experiment == "theorem" and any(d < 1 for d in self.dims):
            raise ValueError(f"theorem dims must all be >= 1, got {self.dims}")
        for m in self.methods:
            if m not in VALID_METHODS:
                raise ValueError(f"unknown method {m!r}; valid: {VALID_METHODS}")
        if self.experiment == "pose" and "mcl" in self.methods:
            raise ValueError("method 'mcl' is not supported for the pose experiment; use flow,gd")
        if self.gamma is not None and not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.pose_points < 3:
            raise ValueError(f"pose_points must be >= 3, got {self.pose_points}")
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be {'finite' if self.sigma > 0 else 'nonnegative'}, got {self.sigma}")
        # with eps = 0 the two theorem sets stay identical, so the negative
        # control can never break
        if not 0 < self.eps < math.inf:
            raise ValueError(f"eps must be {'finite' if self.eps > 0 else 'positive'}, got {self.eps}")
        check_time_step(self.t_end, self.dt)

    def manifest_items(self) -> list[tuple[str, str]]:
        """The experiment and each key it reads, resolved, as sorted (key, value) text pairs."""
        items = [("experiment", self.experiment)]
        for key in EXPERIMENT_KEYS[self.experiment]:
            value = getattr(self, key)
            if value is None:  # gamma and grid_center
                items.append((key, "auto"))
            elif isinstance(value, tuple):
                items.append((key, ",".join(str(v) for v in value)))
            else:
                items.append((key, str(value)))
        return sorted(items)


def _parse_int_list(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(int(p) for p in parts)


def _parse_methods(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    for p in parts:
        if p not in VALID_METHODS:
            raise ValueError(f"unknown method {p!r}")
    return tuple(parts)


def _parse_float_or_auto(text: str):
    if text.strip().lower() == "auto":
        return None
    return float(text)


# key -> (parser, expected type named in error messages, flag help text)
KEYS = {
    "dims": (_parse_int_list, "comma-separated integers", "comma-separated dimensions"),
    "n_particles": (_parse_int_list, "comma-separated integers", "comma-separated particle counts"),
    "n_steps": (int, "integer", "filter iterations"),
    "seeds": (_parse_int_list, "comma-separated integers", "comma-separated seeds"),
    "methods": (_parse_methods, "comma-separated subset of flow,mcl,gd",
                "comma-separated methods (flow,mcl,gd)"),
    "gamma": (_parse_float_or_auto, "positive number or 'auto'", "kernel width or 'auto'"),
    "grid_center": (_parse_float_or_auto, "positive number or 'auto'", "grid center or 'auto'"),
    "grid_orders": (int, "integer", "orders of magnitude spanned by the grid"),
    "grid_points_per_order": (int, "integer", "grid resolution"),
    "out": (str, "path", "output CSV path"),
    "pose_points": (int, "integer", "number of point correspondences"),
    "sigma": (float, "number", "observation noise standard deviation (meters)"),
    "eps": (float, "number", "total field discrepancy bound"),
    "t_end": (float, "number", "integration horizon"),
    "dt": (float, "number", "Euler step (must be <= 1e-3 * t_end)"),
}


def parse_config_file(path: str, experiment: str) -> dict:
    """Read a UTF-8 key=value config file ('#' starts a comment).

    Keys the experiment does not read and malformed values are rejected
    with the offending key, line number, and expected type.
    """
    values: dict = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, text = line.partition("=")
            key = key.strip()
            text = text.strip()
            if key not in EXPERIMENT_KEYS[experiment]:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            parser, expected, _ = KEYS[key]
            try:
                values[key] = parser(text)
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{lineno}: invalid value for {key!r} ({exc}); expected {expected}"
                ) from None
    return values


def make_config(experiment: str, file_values: dict | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """The experiment's config from file values and overrides (which win)."""
    return ExperimentConfig(experiment, **{**(file_values or {}), **(overrides or {})})
