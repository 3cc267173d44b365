"""Tests for the Monte-Carlo experiment harness."""

import math

import numpy as np
import pytest

from sparsemimo import experiment
from sparsemimo.channel import assemble_mimo_channel
from sparsemimo.experiment import (
    LAMBDA_L0_NOISE_RATIO,
    LAMBDA_LP_NOISE_RATIO,
    CellKey,
    DivergenceError,
    ExperimentConfig,
    first_iteration_below,
    run_grid,
    run_single,
    steady_state_mse,
)
from sparsemimo.signal import snr_to_variance


def _tiny_config(**overrides):
    base = dict(
        nt=2, nr=2, length=8, sparsity=(1,), snr_db=(10.0,), mu=(0.5,),
        algorithms=("nlms",), runs=2, iterations=50, seed=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _mean_of(monkeypatch, *runs):
    """The curve of a one-cell grid whose runs return ``runs`` in order."""
    outputs = iter(runs)
    monkeypatch.setattr(experiment, "run_single", lambda rows, cell, algorithm, rng: np.array(next(outputs)))
    return run_grid(_tiny_config(runs=len(runs), iterations=len(runs[0])))[CellKey("nlms", 10.0, 0.5, 1, 2, 2)]


class TestRunSingle:
    def test_cold_start_error_is_total_channel_energy(self):
        config = _tiny_config()
        rows = assemble_mimo_channel(2, 2, 8, 1, np.random.default_rng(0))
        out = run_single(rows, config.cell(10.0, 0.5, 1), "nlms", np.random.default_rng(1))
        assert out.shape == (50,)
        assert out[0] == pytest.approx(4.0, abs=1e-9)

    def test_noiseless_identification_converges(self):
        config = _tiny_config(length=16, snr_db=(math.inf,), mu=(1.0,), iterations=2000)
        rows = assemble_mimo_channel(2, 2, 16, 1, np.random.default_rng(5))
        out = run_single(rows, config.cell(math.inf, 1.0, 1), "nlms", np.random.default_rng(6))
        assert out[-1] < 1e-6

    def test_receive_antennas_do_not_interact(self):
        # noiseless: swapping the channel rows leaves the summed error
        # trace identical because each antenna's estimator is independent
        config = _tiny_config(snr_db=(math.inf,), iterations=300)
        cell = config.cell(math.inf, 0.5, 1)
        rows = assemble_mimo_channel(2, 2, 8, 1, np.random.default_rng(9))
        swapped = rows[[1, 0]]
        a = run_single(rows, cell, "nlms", np.random.default_rng(2))
        b = run_single(swapped, cell, "nlms", np.random.default_rng(2))
        assert a.tobytes() == b.tobytes()

    def test_fading_redraws_channel(self):
        config = _tiny_config(iterations=400, fading_period=100)
        cell = config.cell(10.0, 0.5, 1)
        rows = assemble_mimo_channel(2, 2, 8, 1, np.random.default_rng(4))
        faded = run_single(rows, cell, "nlms", np.random.default_rng(8))
        static = run_single(
            rows, _tiny_config(iterations=400).cell(10.0, 0.5, 1), "nlms", np.random.default_rng(8)
        )
        assert np.isfinite(faded).all()
        # the redraw at iteration 100 bumps the error of the faded run
        assert faded[100] > static[100]


class TestAverageMse:
    def test_single_run_is_identity(self, monkeypatch):
        trace = _mean_of(monkeypatch, [4.0, 2.0, 1.0])
        assert np.array_equal(trace, [4.0, 2.0, 1.0])

    def test_pointwise_mean(self, monkeypatch):
        trace = _mean_of(monkeypatch, np.full(5, 2.0), np.full(5, 4.0))
        assert np.array_equal(trace, np.full(5, 3.0))

    def test_perfect_estimates_average_to_zero(self, monkeypatch):
        trace = _mean_of(monkeypatch, np.zeros(4), np.zeros(4))
        assert not trace.any()


class TestTraceSummaries:
    def test_steady_state_of_constant_trace(self):
        assert steady_state_mse(np.full(10, 0.25)) == 0.25

    def test_decaying_trace_tail_below_whole_mean(self):
        values = np.geomspace(8.0, 0.01, 100)
        assert steady_state_mse(values) < values.mean()

    def test_first_iteration_below(self):
        trace = np.array([4.0, 2.0, 1.0, 0.5])
        assert first_iteration_below(trace, 2.0) == 1
        assert first_iteration_below(trace, 0.1) == 4

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_trace_rejects_bad_values(self, monkeypatch):
        # run_grid refuses impossible means; two finite runs can still
        # overflow their sum
        for runs in ([[1.0, -0.5]], [[1.0, math.nan]], [np.full(3, 1e308), np.full(3, 1e308)]):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                _mean_of(monkeypatch, *runs)


class TestConfigValidation:
    def test_defaults_match_reference_grid(self):
        config = ExperimentConfig()
        assert config.length == 16
        assert config.sparsity == (1, 4)
        assert config.snr_db == (5.0, 10.0, 15.0)
        assert config.mu == (0.5, 1.0)
        assert config.runs == 1000
        assert config.iterations == 2000

    def test_lists_are_normalized_to_tuples(self):
        config = ExperimentConfig(sparsity=[1], snr_db=[10.0], mu=[0.5], algorithms=["nlms"])
        assert config.sparsity == (1,)
        assert config.algorithms == ("nlms",)

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"nt": 0}, "nt"),
            ({"length": 0}, "length"),
            ({"sparsity": (0,)}, "k"),
            ({"sparsity": (17,)}, "k"),
            ({"mu": (0.0,)}, "mu"),
            ({"mu": (2.0,)}, "mu"),
            ({"algorithms": ("rls",)}, "algorithms"),
            ({"runs": 0}, "runs"),
            ({"iterations": 0}, "iterations"),
            ({"seed": -1}, "seed"),
            ({"generator": "qam"}, "generator"),
            ({"lambda_lp": -1.0}, "lambda_lp"),
            ({"p": 1.5}, "p"),
            ({"epsilon": 0.0}, "epsilon"),
            ({"beta": 0.0}, "beta"),
            ({"fading_period": 0}, "fading_period"),
            ({"lambda_l0": -1.0}, "lambda_l0"),
        ],
    )
    def test_invalid_values_name_the_key(self, overrides, key):
        with pytest.raises(ValueError, match=key):
            ExperimentConfig(**overrides)

    def test_lambda_defaults_scale_with_noise_power(self):
        config = ExperimentConfig()
        hyper = config.hyper_for(10.0, 0.5)
        variance = snr_to_variance(10.0)
        assert hyper.lambda_lp == pytest.approx(LAMBDA_LP_NOISE_RATIO * variance)
        assert hyper.lambda_l0 == pytest.approx(LAMBDA_L0_NOISE_RATIO * variance)

    def test_explicit_lambda_overrides_rule(self):
        config = ExperimentConfig(lambda_lp=1e-7, lambda_l0=2e-7)
        hyper = config.hyper_for(5.0, 0.5)
        assert hyper.lambda_lp == 1e-7
        assert hyper.lambda_l0 == 2e-7


class TestRunGrid:
    def test_single_cell_single_run(self):
        config = _tiny_config(runs=1)
        result = run_grid(config)
        assert len(result) == 1
        key = next(iter(result))
        assert key == CellKey("nlms", 10.0, 0.5, 1, 2, 2)
        assert len(result[key]) == 50

    def test_same_seed_is_bit_identical(self):
        config = _tiny_config(algorithms=("nlms", "l0_nlms"))
        a, b = run_grid(config), run_grid(config)
        for key in a:
            assert a[key].tobytes() == b[key].tobytes()

    def test_worker_count_does_not_change_results(self):
        config = _tiny_config(algorithms=("nlms", "lp_nlms"), runs=4)
        serial = run_grid(config, workers=1)
        parallel = run_grid(config, workers=4)
        assert list(serial) == list(parallel)
        for key in serial:
            assert serial[key].tobytes() == parallel[key].tobytes()

    def test_algorithms_share_realizations_within_a_run(self):
        # paired common random numbers: with both penalties disabled the
        # sparse variants must reproduce plain NLMS bit for bit
        config = _tiny_config(
            algorithms=("nlms", "lp_nlms", "l0_nlms"), lambda_lp=0.0, lambda_l0=0.0, runs=3
        )
        result = run_grid(config)
        reference = result[CellKey("nlms", 10.0, 0.5, 1, 2, 2)]
        for algorithm in ("lp_nlms", "l0_nlms"):
            values = result[CellKey(algorithm, 10.0, 0.5, 1, 2, 2)]
            assert values.tobytes() == reference.tobytes()

    def test_snr_cells_share_noise_realizations(self):
        # one tap, bpsk and a unit NLMS step: each estimate lands on the
        # channel plus the noise sample, so every squared error after the
        # cold start is sigma^2 * u^2 with u the unit-scale noise draw. Only
        # cells that share u give the exact variance ratio 10 at 5 vs 15 dB.
        config = ExperimentConfig(
            nt=1, nr=1, length=1, sparsity=(1,), snr_db=(5.0, 15.0), mu=(1.0,),
            algorithms=("nlms",), runs=3, iterations=200, seed=1, generator="bpsk",
        )
        result = run_grid(config)
        low = result[CellKey("nlms", 5.0, 1.0, 1, 1, 1)]
        high = result[CellKey("nlms", 15.0, 1.0, 1, 1, 1)]
        np.testing.assert_allclose(low[1:] / high[1:], 10.0, rtol=1e-9)

    def test_diverged_lists_every_cell(self):
        # lms drops both runs and so has no curve, nlms none; both are listed
        config = _tiny_config(algorithms=("lms", "nlms"), iterations=800, runs=2)
        result = run_grid(config)
        assert result.diverged == {
            CellKey("lms", 10.0, 0.5, 1, 2, 2): [0, 1],
            CellKey("nlms", 10.0, 0.5, 1, 2, 2): [],
        }
        assert list(result) == [CellKey("nlms", 10.0, 0.5, 1, 2, 2)]

    def test_diverging_cell_is_reported_not_fatal(self):
        # plain LMS at mu=0.5 with unit-power training and 16 unknowns is
        # far beyond its stability bound and blows up; NLMS survives
        config = _tiny_config(algorithms=("lms", "nlms"), iterations=800, runs=2)
        result = run_grid(config)
        lms_key = CellKey("lms", 10.0, 0.5, 1, 2, 2)
        nlms_key = CellKey("nlms", 10.0, 0.5, 1, 2, 2)
        assert result.diverged[lms_key] == [0, 1]
        assert lms_key not in result
        assert nlms_key in result
        assert len(result) == 1

    def test_partially_diverged_runs_are_excluded_from_mean(self):
        # at this horizon only run 0 has overflowed yet (seed-pinned)
        config = _tiny_config(algorithms=("lms",), iterations=700, runs=4, seed=3)
        result = run_grid(config)
        key = CellKey("lms", 10.0, 0.5, 1, 2, 2)
        assert result.diverged[key] == [0]
        assert np.isfinite(result[key]).all()

    def test_curve_is_mean_of_surviving_runs(self):
        # rebuild every run from its seeds; lms drops run 0 (seed-pinned),
        # so its curve is the mean of three runs, not their sum over four
        config = _tiny_config(algorithms=("lms", "nlms"), iterations=700, runs=4, seed=3)
        result = run_grid(config)
        for key in config.cell_keys():
            cell = config.cell(key.snr_db, key.mu, key.k)
            survivors = []
            for run in range(config.runs):
                rows = experiment._make_channel(config, key.k, run)
                seed = experiment._realization_seed(config, key.k, run, experiment._STREAM_LOOP)
                try:
                    survivors.append(run_single(rows, cell, key.algorithm, np.random.default_rng(seed)))
                except DivergenceError:
                    continue
            expected = np.mean(np.stack(survivors), axis=0)
            assert result[key].tobytes() == expected.tobytes(), key
        assert result.diverged[CellKey("lms", 10.0, 0.5, 1, 2, 2)] == [0]

    def test_grid_covers_full_cartesian_product(self):
        config = _tiny_config(
            algorithms=("nlms", "l0_nlms"), snr_db=(5.0, 10.0), mu=(0.5, 1.0), sparsity=(1, 4), runs=1, iterations=5
        )
        result = run_grid(config)
        assert len(result) == 2 * 2 * 2 * 2

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError):
            run_grid(_tiny_config(), workers=0)

    @pytest.mark.parametrize("generator", ["bpsk", "ofdm"])
    def test_alternative_training_generators_run_end_to_end(self, generator):
        config = _tiny_config(generator=generator, iterations=120)
        a, b = run_grid(config), run_grid(config)
        key = CellKey("nlms", 10.0, 0.5, 1, 2, 2)
        assert np.isfinite(a[key]).all()
        assert a[key][-1] < a[key][0]  # it is actually learning
        assert a[key].tobytes() == b[key].tobytes()


class TestTheory:
    @pytest.mark.parametrize("mu, floor_db", [(0.5, -11.48), (1.0, -6.71)])
    def test_nlms_floor_matches_steady_state_theory(self, mu, floor_db):
        # White Gaussian input, NLMS steady-state MSD summed over the nr rows:
        # nr * mu * sigma^2 / (2 - mu) * N / (N - 2), N = nt * L (Sayed,
        # Adaptive Filters, 2008). sigma^2 = 1/SNR per receive antenna is the
        # SNR convention; a change to it, to the noise draw or to the update
        # moves the floor.
        runs, nt, nr, length = 20, 2, 2, 16
        config = ExperimentConfig(
            nt=nt, nr=nr, length=length, sparsity=(1,), snr_db=(10.0,), mu=(mu,),
            algorithms=("nlms",), runs=runs, iterations=2000, seed=1,
        )
        n = nt * length
        theory = nr * mu * snr_to_variance(10.0) / (2.0 - mu) * n / (n - 2)
        assert 10.0 * math.log10(theory) == pytest.approx(floor_db, abs=0.005)
        trace = run_grid(config)[CellKey("nlms", 10.0, mu, 1, nt, nr)]
        simulated_db = 10.0 * math.log10(steady_state_mse(trace))
        assert simulated_db == pytest.approx(floor_db, abs=3.0 / math.sqrt(runs))
