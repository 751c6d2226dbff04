"""Experiment configuration: key=value files, flag overrides, validation."""
from __future__ import annotations

from dataclasses import dataclass, fields

VALID_METHODS = ("flow", "mcl", "gd")
EXPERIMENTS = ("synthetic", "pose", "theorem")

# Per-experiment defaults for fields left unset by file and flags.
_EXPERIMENT_DEFAULTS = {
    "synthetic": {"dims": (10,), "n_particles": (100,), "methods": ("flow", "mcl")},
    "pose": {"dims": (6,), "n_particles": (80,), "methods": ("flow", "gd")},
    "theorem": {"dims": (3,), "n_particles": (32,), "methods": ()},
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    dims: tuple = (10,)
    n_particles: tuple = (100,)
    n_steps: int = 50
    seeds: tuple = tuple(range(10))
    methods: tuple = ("flow", "mcl")
    gamma: float | None = None  # None: 0.5 synthetic / 8.0 pose, see resolve_gamma
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
        if self.grid_center is not None and not self.grid_center > 0:
            raise ValueError(f"grid center must be positive, got {self.grid_center}")
        if self.grid_orders < 1:
            raise ValueError(f"grid orders must be >= 1, got {self.grid_orders}")
        if self.grid_points_per_order < 1:
            raise ValueError(f"grid points_per_order must be >= 1, got {self.grid_points_per_order}")
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        if not self.dims:
            raise ValueError("dims must be nonempty")
        if not self.n_particles or any(n < 1 for n in self.n_particles):
            raise ValueError(f"n_particles must all be >= 1, got {self.n_particles}")
        if self.experiment == "synthetic" and any(d < 3 for d in self.dims):
            raise ValueError(f"synthetic dims must all be >= 3, got {self.dims}")
        for m in self.methods:
            if m not in VALID_METHODS:
                raise ValueError(f"unknown method {m!r}; valid: {VALID_METHODS}")
        if self.experiment == "pose" and "mcl" in self.methods:
            raise ValueError("method 'mcl' is not supported for the pose experiment; use flow,gd")
        if self.gamma is not None and not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.pose_points < 3:
            raise ValueError(f"pose_points must be >= 3, got {self.pose_points}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")
        if self.eps < 0:
            raise ValueError(f"eps must be nonnegative, got {self.eps}")
        if not self.t_end > 0 or not self.dt > 0:
            raise ValueError("t_end and dt must be positive")

    def manifest_items(self) -> list[tuple[str, str]]:
        """Resolved configuration as sorted (key, value) text pairs."""
        items = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:  # gamma and grid_center
                items.append((f.name, "auto"))
            elif isinstance(value, tuple):
                items.append((f.name, ",".join(str(v) for v in value)))
            else:
                items.append((f.name, str(value)))
        return sorted(items)


def _parse_int(text: str) -> int:
    return int(text)


def _parse_float(text: str) -> float:
    return float(text)


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


# key -> (converter, human description used in error messages)
_KEY_PARSERS = {
    "dims": (_parse_int_list, "comma-separated integers"),
    "n_particles": (_parse_int_list, "comma-separated integers"),
    "n_steps": (_parse_int, "integer"),
    "seeds": (_parse_int_list, "comma-separated integers"),
    "methods": (_parse_methods, "comma-separated subset of flow,mcl,gd"),
    "gamma": (_parse_float_or_auto, "positive number or 'auto'"),
    "grid_center": (_parse_float_or_auto, "positive number or 'auto'"),
    "grid_orders": (_parse_int, "integer"),
    "grid_points_per_order": (_parse_int, "integer"),
    "out": (str, "path"),
    "pose_points": (_parse_int, "integer"),
    "sigma": (_parse_float, "number"),
    "eps": (_parse_float, "number"),
    "t_end": (_parse_float, "number"),
    "dt": (_parse_float, "number"),
}


def parse_config_file(path: str) -> dict:
    """Read a UTF-8 key=value config file ('#' starts a comment).

    Unknown keys and malformed values are rejected with the offending key,
    line number, and expected type.
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
            if key not in _KEY_PARSERS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            converter, description = _KEY_PARSERS[key]
            try:
                values[key] = converter(text)
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{lineno}: invalid value for {key!r} ({exc}); expected {description}"
                ) from None
    return values


def make_config(experiment: str, file_values: dict | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Merge per-experiment defaults, file values, and overrides (which win)."""
    merged: dict = dict(_EXPERIMENT_DEFAULTS[experiment])
    for source in (file_values or {}), (overrides or {}):
        for key, value in source.items():
            if value is None and key not in ("gamma", "grid_center"):
                continue
            merged[key] = value
    return ExperimentConfig(experiment=experiment, **merged)
