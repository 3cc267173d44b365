"""Adaptive sparse channel estimation simulator for MIMO system identification.

The library identifies sparse multipath MIMO channels with a family of
normalized LMS adaptive filters (plain NLMS plus fractional-norm and
zero-attracting sparse variants) and reproduces their Monte-Carlo MSE
learning curves over a seeded parameter grid. Its data are plain arrays: a
channel is an ``(nr, nt * L)`` array, a regressor an ``nt * L`` vector, and
an update rule a pure function of them. See the ``sparsemimo`` command-line
tool for batch runs.
"""

__version__ = "0.1.0"

from .channel import assemble_mimo_channel
from .signal import GENERATOR_KINDS, ofdm_time_samples, snr_to_variance
from .estimator import (
    ALGORITHMS,
    HyperParams,
    l0_nlms_update,
    lms_update,
    lp_nlms_update,
    nlms_update,
    update,
)
from .experiment import (
    CellKey,
    ExperimentConfig,
    GridResult,
    draw_run,
    first_iteration_below,
    run_grid,
    run_single,
    steady_state_mse,
)

__all__ = [
    "__version__",
    "ALGORITHMS",
    "GENERATOR_KINDS",
    "assemble_mimo_channel",
    "ofdm_time_samples",
    "snr_to_variance",
    "HyperParams",
    "l0_nlms_update",
    "lms_update",
    "lp_nlms_update",
    "nlms_update",
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
