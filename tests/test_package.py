"""Tests for the package's public surface."""

import sparsemimo

PUBLIC = {
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
}


def test_public_names_are_pinned():
    # a name added to or dropped from the API must be added or dropped here
    assert len(sparsemimo.__all__) == len(set(sparsemimo.__all__))
    assert set(sparsemimo.__all__) == PUBLIC
    assert len(PUBLIC) == 20


def test_every_public_name_resolves():
    for name in sparsemimo.__all__:
        assert getattr(sparsemimo, name) is not None, name
