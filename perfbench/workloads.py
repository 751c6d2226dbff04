"""The benchmark's workloads: particleflow CLI protocols and what each one stresses.

Every workload is one `particleflow` CLI call over a single program seed.
The benchmark's `--seed` picks that program seed from a pool of
PROGRAM_SEEDS, for which reference CSVs are kept in `reference/`. Why each
workload was chosen, and which layers it stresses: README.md.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

PROGRAM_SEEDS = 4
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    methods: tuple
    n: int
    n_steps: int
    dims: int | None = None
    grid_orders: int = 5
    grid_points_per_order: int = 2
    extra: tuple = ()
    # trace boundaries that must record calls on this workload; a zero
    # count means the tracer lost the layer the workload was chosen for
    hot: tuple = ()

    @property
    def grid_points(self) -> int:
        return self.grid_orders * self.grid_points_per_order + 1

    @property
    def runs(self) -> int:
        """(method, grid point, seed) runs attempted per CLI call."""
        return len(self.methods) * self.grid_points

    @property
    def particle_steps(self) -> int:
        """Sum over attempted runs of n * n_steps: the work of one CLI call."""
        return self.runs * self.n * self.n_steps

    def cli_args(self, program_seed: int, out: str) -> list[str]:
        args = [self.experiment]
        if self.dims is not None:
            args += ["--dims", str(self.dims)]
        args += [
            "--n-particles", str(self.n),
            "--method", ",".join(self.methods),
            "--n-steps", str(self.n_steps),
            "--grid-orders", str(self.grid_orders),
            "--grid-points-per-order", str(self.grid_points_per_order),
            *self.extra,
            "--seeds", str(program_seed),
            "--out", out,
        ]
        return args

    def reference(self, program_seed: int) -> Path:
        return REFERENCE_DIR / f"{self.name}_seed{program_seed}.csv.gz"


_IO = ("experiments.write_csv", "experiments.write_manifest")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="synthetic_sweep",
            experiment="synthetic", dims=10, n=100, n_steps=50, methods=("flow", "mcl"),
            hot=("flow.flow_update", "flow.evaluate_losses",
                 "losses.QuadraticProjectionLoss.loss", "losses.QuadraticProjectionLoss.grad",
                 "losses.exact_posterior", "losses.expected_posterior", "baselines.mcl_step",
                 "metrics.fit_gaussian", "metrics.kl_gaussians", "metrics.cholesky",
                 "rng.stream") + _IO,
        ),
        Workload(
            name="flow_large_n",
            experiment="synthetic", dims=10, n=2048, n_steps=3, methods=("flow",),
            grid_orders=1, grid_points_per_order=1,
            hot=("flow.flow_update",) + _IO,
        ),
        Workload(
            name="pose_registration",
            experiment="pose", n=80, n_steps=100, methods=("flow", "gd"),
            extra=("--pose-points", "12", "--sigma", "0.005"),
            hot=("flow.flow_update", "flow.evaluate_losses", "pose.PoseRegistrationLoss.loss",
                 "pose.PoseRegistrationLoss.grad", "pose.mean_pose",
                 "baselines.gradient_descent_step", "metrics.pose_errors") + _IO,
        ),
    )
}


def program_seed(seed: int) -> int:
    """The particleflow seed a benchmark seed runs; references exist for each."""
    return seed % PROGRAM_SEEDS
