"""Resampling-free particle flow filtering at desk scale.

Modules:
    flow         deterministic particle flow filter core
    losses       bundled loss models and analytic posteriors
    pose         flat SE(3) poses and a synthetic registration likelihood
    baselines    Monte Carlo localization and per-particle gradient descent
    metrics      Gaussian fits, closed-form KL, exact assignment Wasserstein
    bounds       Gronwall-type divergence bound and its empirical check
    experiments  batch experiment drivers producing tidy CSV rows
    cli          command-line entry point (synthetic / pose / theorem / summarize)
"""

__version__ = "0.1.0"

from .flow import (
    Ensemble,
    evaluate_losses,
    flow_update,
    gradient_coefficient,
    kernel_constant,
    step,
)
from .metrics import (
    AssignmentResult,
    GaussianSummary,
    fit_gaussian,
    kl_gaussians,
    pose_errors,
    wasserstein_exact,
)

__all__ = [
    "__version__",
    "Ensemble",
    "evaluate_losses",
    "flow_update",
    "gradient_coefficient",
    "kernel_constant",
    "step",
    "AssignmentResult",
    "GaussianSummary",
    "fit_gaussian",
    "kl_gaussians",
    "pose_errors",
    "wasserstein_exact",
]
