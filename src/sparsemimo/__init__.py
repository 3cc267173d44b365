"""Adaptive sparse channel estimation simulator for MIMO system identification.

The library identifies sparse multipath MIMO channels with a family of
normalized LMS adaptive filters (plain NLMS plus fractional-norm and
zero-attracting sparse variants) and reproduces their Monte-Carlo MSE
learning curves over a seeded parameter grid. Its data are plain arrays: a
channel is an ``(nr, nt * L)`` array, a regressor an ``nt * L`` vector, and
an update rule a function of them that leaves its inputs alone and may
write its result into a given array. See the ``sparsemimo`` command-line
tool for batch runs.
"""

__version__ = "0.1.0"

from .estimator import ALGORITHMS, HyperParams, update
from .experiment import (
    GENERATOR_KINDS,
    CellKey,
    ExperimentConfig,
    GridResult,
    draw_run,
    first_iteration_below,
    run_grid,
    run_single,
    snr_to_variance,
    steady_state_mse,
)

__all__ = [
    "__version__",
    "ALGORITHMS",
    "GENERATOR_KINDS",
    "snr_to_variance",
    "HyperParams",
    "update",
    "CellKey",
    "ExperimentConfig",
    "GridResult",
    "draw_run",
    "first_iteration_below",
    "run_grid",
    "run_single",
    "steady_state_mse",
]
