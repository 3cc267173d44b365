"""Tests for the package's public surface."""

import pkgutil

import sparsemimo
import sparsemimo.cli

PUBLIC = {
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
}

CLI_PUBLIC = {
    "CSV_HEADER",
    "RunManifest",
    "emit_csv",
    "emit_summary",
    "main",
    "parse_config",
    "replay_manifest",
}


def test_public_names_are_pinned():
    # a name added to or dropped from the API must be added or dropped here
    assert len(sparsemimo.__all__) == len(set(sparsemimo.__all__))
    assert set(sparsemimo.__all__) == PUBLIC
    assert len(PUBLIC) == 14


def test_cli_public_names_are_pinned():
    assert len(sparsemimo.cli.__all__) == len(set(sparsemimo.cli.__all__))
    assert set(sparsemimo.cli.__all__) == CLI_PUBLIC
    assert len(CLI_PUBLIC) == 7


def test_every_public_name_resolves():
    for name in sparsemimo.__all__:
        assert getattr(sparsemimo, name) is not None, name


def test_submodules_are_pinned():
    # one module per layer: the sparse channel, training kinds, OFDM format
    # and SNR convention live in experiment, next to the draws that use them
    names = {module.name for module in pkgutil.iter_modules(sparsemimo.__path__)}
    assert names == {"cli", "estimator", "experiment"}
