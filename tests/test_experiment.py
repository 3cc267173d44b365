"""Tests for the Monte-Carlo experiment harness."""

import concurrent.futures
import functools
import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sparsemimo import experiment
from sparsemimo.experiment import (
    LAMBDA_L0_NOISE_RATIO,
    LAMBDA_LP_NOISE_RATIO,
    CellKey,
    ExperimentConfig,
    draw_run,
    first_iteration_below,
    run_grid,
    run_single,
    snr_to_variance,
    steady_state_mse,
)

from oracles import reference_squared_errors


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
    monkeypatch.setattr(experiment, "run_single",
                        lambda draws, config, algorithm: (np.array([[next(outputs)]]), np.array([[True]])))
    return run_grid(_tiny_config(runs=len(runs), iterations=len(runs[0])))[CellKey("nlms", 10.0, 0.5, 1, 2, 2)]


def _lone_curve(draws, config, algorithm="nlms"):
    """The squared-error curve of one realization in one cell, which must survive."""
    squared, finite = run_single([draws], config, algorithm)
    assert squared.shape == (1, 1, config.iterations) and finite.tolist() == [[True]]
    return squared[0, 0]


# the config fields of a CellKey's first four entries, the grid's axes
_AXES = ("algorithms", "snr_db", "mu", "sparsity")
# a grid of one value per split axis, built once however many cases compare against it
_grid_alone = functools.cache(run_grid)
# the largest float whose 2 * beta**2 is finite, the largest beta a config accepts
_LARGEST_BETA = math.sqrt(sys.float_info.max / 2)


def _knobs_seen(monkeypatch, config, realizations=1):
    """The knobs ``run_single`` hands the rule, one per update, for l0_nlms runs of K=1."""
    seen, rule = [], experiment.update

    def recording(hyper, *args):
        seen.append(hyper)
        return rule(hyper, *args)

    monkeypatch.setattr(experiment, "update", recording)
    run_single([draw_run(config, 1, run) for run in range(realizations)], config, "l0_nlms")
    return seen


class TestRunSingle:
    def test_cold_start_error_is_total_channel_energy(self):
        config = _tiny_config()
        out = _lone_curve(draw_run(config, 1, 0), config)
        assert out.shape == (50,)
        assert out[0] == pytest.approx(4.0, abs=1e-9)

    def test_noiseless_identification_converges(self):
        config = _tiny_config(length=16, snr_db=(math.inf,), mu=(1.0,), iterations=2000)
        out = _lone_curve(draw_run(config, 1, 0), config)
        assert out[-1] < 1e-6

    def test_receive_antennas_do_not_interact(self):
        # noiseless: swapping the channel rows leaves the summed error
        # trace identical because each antenna's estimator is independent
        config = _tiny_config(snr_db=(math.inf,), iterations=300)
        channels, training, noise = draw_run(config, 1, 0)
        swapped = (channels[:, [1, 0]], training, noise)
        a = _lone_curve((channels, training, noise), config)
        b = _lone_curve(swapped, config)
        assert a.tobytes() == b.tobytes()

    def test_fading_redraws_channel(self):
        # the static run keeps the first channel and the same training and noise
        config = _tiny_config(iterations=400, fading_period=100)
        channels, training, noise = draw_run(config, 1, 0)
        faded = _lone_curve((channels, training, noise), config)
        static = _lone_curve((channels[:1], training, noise), replace(config, fading_period=None))
        assert np.isfinite(faded).all()
        # the redraw at iteration 100 bumps the error of the faded run
        assert faded[100] > static[100]

    @pytest.mark.parametrize("overrides", [dict(nr=2), dict(iterations=40)])
    def test_draws_that_do_not_fit_the_config_rejected(self, overrides):
        # both would broadcast: one receive antenna's draws over two, or
        # 50 iterations' draws cut to 40
        config = _tiny_config(nr=1)
        with pytest.raises(ValueError, match="shapes"):
            run_single([draw_run(config, 1, 0)], replace(config, **overrides), "nlms")

    @pytest.mark.parametrize("overrides", [
        dict(algorithms=("lms",)), dict(snr_db=(0.0, 20.0)), dict(mu=(1.5,)), dict(lambda_lp=0.1),
        dict(lambda_l0=0.2), dict(p=0.9), dict(epsilon=0.5), dict(beta=3.0), dict(runs=7),
        dict(sparsity=(1, 4)),
    ])
    def test_draws_ignore_what_is_not_their_data_key(self, overrides):
        config = _tiny_config(sparsity=(1, 2), iterations=120, fading_period=50)
        same = draw_run(replace(config, **overrides), 1, 1)
        assert [a.tobytes() for a in same] == [a.tobytes() for a in draw_run(config, 1, 1)]

    @pytest.mark.parametrize("overrides, k, run", [
        (dict(seed=4), 1, 1), ({}, 2, 1), ({}, 1, 0), (dict(generator="bpsk"), 1, 1),
        (dict(fading_period=40), 1, 1), (dict(fading_period=None), 1, 1),
    ])
    def test_draws_follow_their_data_key(self, overrides, k, run):
        config = _tiny_config(sparsity=(1, 2), iterations=120, fading_period=50)
        other = draw_run(replace(config, **overrides), k, run)
        for a, b in zip(draw_run(config, 1, 1), other):
            assert a.tobytes() != b.tobytes()

    def test_output_does_not_depend_on_the_block_length(self, monkeypatch):
        # every rule; fading epochs of 50 iterations straddle the blocks;
        # lms drops runs 2 and 3 at 10 dB, mu=0.5 and every run at inf dB,
        # mu=1 (seed-pinned)
        config = _tiny_config(
            algorithms=("lms", "nlms", "lp_nlms", "l0_nlms"), snr_db=(10.0, math.inf),
            mu=(0.5, 1.0), runs=4, iterations=700, fading_period=50,
        )
        results = []
        for block in (1, 7, experiment.BLOCK, 1000):
            monkeypatch.setattr(experiment, "BLOCK", block)
            results.append(run_grid(config))
        reference = results[0]
        assert reference.diverged[CellKey("lms", 10.0, 0.5, 1, 2, 2)] == [2, 3]
        assert reference.diverged[CellKey("lms", math.inf, 1.0, 1, 2, 2)] == [0, 1, 2, 3]
        for result in results[1:]:
            assert result.diverged == reference.diverged
            assert result.keys() == reference.keys()
            for key in reference:
                assert result[key].tobytes() == reference[key].tobytes(), key

    def test_memory_stays_within_a_block_of_the_draws(self):
        # a (iterations, nt * L) regressor matrix for this run alone would
        # take 41 MB; the draws, the curve and one block take a few
        config = ExperimentConfig(
            nt=4, nr=4, length=64, sparsity=(4,), snr_db=(10.0,), mu=(0.5,),
            algorithms=("nlms",), runs=1, iterations=20_000,
        )
        tracemalloc.start()
        try:
            result = run_grid(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result) == 1
        assert peak < 8 * 2**20

    def test_each_cell_gets_its_knobs(self, monkeypatch):
        # per cell, SNR outer: the step size, and each regularizer weight as
        # set or else its noise ratio times the cell's noise variance. The
        # rule sees one row per (antenna, realization, cell), antenna-major,
        # and every knob is a (rows, 1) column whose every row carries its
        # own cell's value, a knob shared by all cells too
        snrs, mus, realizations = (5.0, 10.0, 15.0), (0.5, 1.0), 2
        cells = len(snrs) * len(mus)
        variances = [snr_to_variance(snr) for snr in snrs for _ in mus]
        default = ([LAMBDA_LP_NOISE_RATIO * v for v in variances], [LAMBDA_L0_NOISE_RATIO * v for v in variances])
        for overrides, (lam_lp, lam_l0) in (({}, default),
                                            ({"lambda_lp": 1e-7, "lambda_l0": 2e-7}, ([1e-7] * cells, [2e-7] * cells))):
            config = _tiny_config(nr=3, snr_db=snrs, mu=mus, iterations=5, p=0.3, epsilon=0.05, beta=9.0,
                                  **overrides)
            seen = _knobs_seen(monkeypatch, config, realizations)
            assert len(seen) == config.iterations - 1
            expected = {"mu": [m for _ in snrs for m in mus], "lambda_lp": lam_lp, "lambda_l0": lam_l0}
            for hyper in seen:
                assert (hyper.algorithm, hyper.p, hyper.epsilon, hyper.beta) == ("l0_nlms", 0.3, 0.05, 9.0)
                for name, values in expected.items():
                    got = getattr(hyper, name)
                    assert type(got) is np.ndarray and got.shape == (config.nr * realizations * cells, 1), \
                        (overrides, name)
                    # row (antenna, realization, cell) holds its cell's value, bit for bit
                    for antenna in got.reshape(config.nr, realizations, cells):
                        for row in antenna:
                            assert row.tobytes() == np.array(values).tobytes(), (overrides, name)
        # a lone pair, one cell of one realization, takes its knobs as floats
        config = _tiny_config(nr=3, snr_db=(5.0,), mu=(1.0,), iterations=5)
        seen = _knobs_seen(monkeypatch, config)
        assert len(seen) == config.nr * (config.iterations - 1)
        variance = snr_to_variance(5.0)
        for hyper in seen:
            knobs = (hyper.mu, hyper.lambda_lp, hyper.lambda_l0)
            assert [type(knob) for knob in knobs] == [float] * 3
            assert knobs == (1.0, LAMBDA_LP_NOISE_RATIO * variance, LAMBDA_L0_NOISE_RATIO * variance)

    # relative tolerance against the Python-float reference: the two sum in
    # different orders, so they may differ in the last bits, and the runs
    # carry those differences along (to at most 2.5e-14 in these cases). A
    # strong penalty amplifies them. At p = 0.45, epsilon = 0.05 and
    # lambda_lp = 5e-4, the reference summed by math.fsum differs from
    # itself by 26 %, so case 12 keeps lambda_lp at 5e-5. At lambda_l0 = 1e-2
    # in case 13's shape, the L0 attractor jumps by 4 beta mu lambda_l0 = 0.3
    # as an off-support tap crosses zero, so last bits pick the taps' signs:
    # engine and reference agree to 1.2e-12 over 30 iterations, part by
    # 1e-9 at iteration 42 and by up to 137 % within 200 (fsum against sum:
    # 105 %). So case 13 stops at 30 iterations
    REFERENCE_RTOL = 1e-9

    @pytest.mark.parametrize("seed, algorithm, overrides", [
        (1, "nlms", dict(sparsity=(1, 4))),
        (2, "lp_nlms", dict(nt=1, nr=3, snr_db=(5.0, 20.0), mu=(0.5, 1.0))),
        (3, "l0_nlms", dict(nt=3, nr=1, sparsity=(1, 3), generator="bpsk")),
        (4, "lms", dict(nr=3, sparsity=(2,), mu=(0.02, 0.05), generator="ofdm")),
        (5, "lp_nlms", dict(nt=3, sparsity=(1, 2), fading_period=20, p=1.0, lambda_lp=1e-3)),
        (6, "l0_nlms", dict(nt=1, nr=1, fading_period=50, generator="bpsk", lambda_l0=2e-3)),
        (7, "nlms", dict(nt=1, mu=(1.5,), fading_period=64, generator="ofdm")),
        (8, "lms", dict(nt=1, nr=2, sparsity=(1, 2), mu=(0.05,), fading_period=30)),
        (9, "lp_nlms", dict(nt=1, nr=1, generator="bpsk", p=1.0)),
        (10, "l0_nlms", dict(nt=3, nr=3, sparsity=(3,), generator="ofdm", beta=5.0)),
        (11, "nlms", dict(nt=3, nr=3, sparsity=(1, 2), snr_db=(0.0, 15.0), generator="bpsk", fading_period=40)),
        (12, "lp_nlms", dict(nt=2, nr=3, sparsity=(2,), generator="ofdm", lambda_lp=5e-5, epsilon=0.05)),
        (13, "l0_nlms", dict(length=4, sparsity=(2,), iterations=30, lambda_l0=1e-2)),
    ])
    def test_runs_match_the_reference_run(self, seed, algorithm, overrides):
        # every cell of every K against a Python-float restatement that
        # shares only draw_run's draws with the simulator
        config = _tiny_config(**{"seed": seed, "length": 6, "iterations": 200, "algorithms": (algorithm,),
                                 **overrides})
        draws = [draw_run(config, k, 0) for k in config.sparsity]
        squared, finite = run_single(draws, config, algorithm)
        assert finite.all()
        cells = [(snr, mu) for snr in config.snr_db for mu in config.mu]
        for realization, draw in enumerate(draws):
            for cell, (snr, mu) in enumerate(cells):
                reference = reference_squared_errors(draw, config, algorithm, snr, mu)
                np.testing.assert_allclose(squared[realization, cell], reference, rtol=self.REFERENCE_RTOL, atol=0)


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
        assert ExperimentConfig(mu=(m for m in (0.5, 1.0))).mu == (0.5, 1.0)

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
            ({"sparsity": (1, 1)}, "k"),
            ({"mu": (0.5, 1.0, 0.5)}, "mu"),
            ({"mu": (m for m in (0.5, 1.0, 0.5))}, "mu"),
            ({"sparsity": ()}, "k"),
            ({"snr_db": ()}, "snr_db"),
            ({"mu": ()}, "mu"),
            ({"algorithms": ()}, "algorithms"),
            ({"snr_db": (math.nan,)}, "snr_db"),
            ({"snr_db": (-math.inf,)}, "snr_db"),
            *[({key: value}, key) for key in ("lambda_lp", "lambda_l0", "epsilon", "beta")
              for value in (math.nan, math.inf)],
            ({"snr_db": (10.0, 3083.0)}, "snr_db"),
            ({"snr_db": (-3100.0,)}, "snr_db"),
            ({"nt": 2.0}, "nt"),
            ({"length": 16.0}, "length"),
            ({"runs": 1.5}, "runs"),
            ({"iterations": 5.5}, "iterations"),
            ({"seed": 1.5}, "seed"),
            ({"fading_period": 2.5}, "fading_period"),
            ({"sparsity": (1.0,)}, "k"),
            ({"mu": ("0.5",)}, "mu"),
            ({"snr_db": (None,)}, "snr_db"),
            ({"p": None}, "p"),
            ({"lambda_lp": "1e-4"}, "lambda_lp"),
            ({"mu": 0.5}, "mu"),
            ({"sparsity": 4}, "k"),
            ({"snr_db": 10.0}, "snr_db"),
            ({"algorithms": "nlms"}, "algorithms"),
            ({"nt": True}, "nt"),
            ({"runs": True}, "runs"),
            ({"seed": False}, "seed"),
            ({"sparsity": (True,)}, "k"),
            ({"mu": (True,)}, "mu"),
            ({"p": True}, "p"),
            ({"beta": 9.6e153}, "beta"),
            ({"beta": 1.35e154}, "beta"),
        ],
    )
    def test_invalid_values_name_the_key(self, overrides, key):
        with pytest.raises(ValueError, match=f"^{key}: "):
            ExperimentConfig(**overrides)

    def test_beta_bound_is_the_last_float_with_two_beta_squared_finite(self):
        assert 2.0 * _LARGEST_BETA * _LARGEST_BETA < math.inf
        assert ExperimentConfig(beta=_LARGEST_BETA).beta == _LARGEST_BETA
        above = math.nextafter(_LARGEST_BETA, math.inf)
        assert 2.0 * above * above == math.inf
        with pytest.raises(ValueError, match="^beta: "):
            ExperimentConfig(beta=above)

    def test_a_str_axis_is_refused_whole(self):
        # iterating a str would split it into letters, each then refused as an unknown algorithm
        with pytest.raises(ValueError, match="^algorithms: must be a non-empty sequence of values, got 'nlms'$"):
            ExperimentConfig(algorithms="nlms")

    @pytest.mark.parametrize("key, value", [
        (key, value) for key in ("nt", "nr", "length", "runs", "iterations", "seed", "fading_period", "k")
        for value in (-1, 2.0, None) if (key, value) != ("fading_period", None)  # None keeps it static
    ])
    def test_count_errors_name_their_key_alone(self, key, value):
        # every count fails under one rule whose message starts with its key
        overrides = {"sparsity": (value,)} if key == "k" else {key: value}
        with pytest.raises(ValueError) as exc:
            ExperimentConfig(**overrides)
        assert str(exc.value).startswith(f"{key}: must be ")

    def test_numpy_integer_counts_are_stored_as_int(self):
        config = ExperimentConfig(nt=np.int64(2), runs=np.int32(3), sparsity=tuple(np.arange(1, 3)),
                                  fading_period=np.uint8(20))
        counts = (config.nt, config.runs, config.fading_period, *config.sparsity)
        assert [type(count) for count in counts] == [int] * 5
        assert counts == (2, 3, 20, 1, 2)

    @pytest.mark.parametrize("real", [np.float32, np.float64])
    def test_numpy_float_knobs_are_stored_as_float(self, real):
        # every value is exact in float32, so the numpy knobs must give the
        # float config's bits
        knobs = dict(snr_db=(10.0, 20.0), mu=(0.5, 1.0), p=0.5, epsilon=0.25, beta=8.0,
                     lambda_lp=2.0**-20, lambda_l0=2.0**-18)
        shape = dict(algorithms=("lp_nlms", "l0_nlms"), runs=1, iterations=40)
        plain = _tiny_config(**knobs, **shape)
        config = _tiny_config(**{name: tuple(map(real, value)) if isinstance(value, tuple) else real(value)
                                 for name, value in knobs.items()}, **shape)
        stored = (*config.snr_db, *config.mu, config.p, config.epsilon, config.beta, config.lambda_lp,
                  config.lambda_l0)
        assert [type(value) for value in stored] == [float] * 9
        assert config == plain
        result, expected = run_grid(config), run_grid(plain)
        assert result.keys() == expected.keys()
        for key in expected:
            assert result[key].tobytes() == expected[key].tobytes(), key

    def test_snr_range_edges_accepted(self):
        # finite SNRs at the edges of the range whose noise variance is a finite positive double
        config = ExperimentConfig(snr_db=(-3082.5, 3082.5, math.inf))
        assert [0 < snr_to_variance(snr) < math.inf for snr in config.snr_db[:2]] == [True, True]

    def test_lambda_defaults_scale_with_noise_power(self, monkeypatch):
        hyper = _knobs_seen(monkeypatch, _tiny_config(iterations=2))[0]
        variance = snr_to_variance(10.0)
        assert hyper.lambda_lp == pytest.approx(LAMBDA_LP_NOISE_RATIO * variance)
        assert hyper.lambda_l0 == pytest.approx(LAMBDA_L0_NOISE_RATIO * variance)

    def test_explicit_lambda_overrides_rule(self, monkeypatch):
        config = _tiny_config(snr_db=(5.0,), iterations=2, lambda_lp=1e-7, lambda_l0=2e-7)
        hyper = _knobs_seen(monkeypatch, config)[0]
        # whatever shape the rule gets its knobs in, every value is the explicit one
        assert np.all(np.asarray(hyper.lambda_lp) == 1e-7)
        assert np.all(np.asarray(hyper.lambda_l0) == 2e-7)


class TestRunGrid:
    def test_single_cell_single_run(self):
        config = _tiny_config(runs=1)
        result = run_grid(config)
        assert len(result) == 1
        key = next(iter(result))
        assert key == CellKey("nlms", 10.0, 0.5, 1, 2, 2)
        assert len(result[key]) == 50

    def test_result_is_a_dict(self):
        result = run_grid(_tiny_config(algorithms=("nlms", "l0_nlms")))
        assert isinstance(result, dict)
        assert list(result) == [CellKey(a, 10.0, 0.5, 1, 2, 2) for a in ("nlms", "l0_nlms")]

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

    def test_l0_at_the_largest_beta_is_plain_nlms(self):
        # a band |h| <= 1/beta of about 1e-154 holds only the cold start's
        # zero taps, where the attractor is 0: no run is dropped, and l0_nlms
        # reproduces nlms bit for bit
        config = _tiny_config(algorithms=("nlms", "l0_nlms"), beta=_LARGEST_BETA)
        result = run_grid(config)
        nlms, l0 = CellKey("nlms", 10.0, 0.5, 1, 2, 2), CellKey("l0_nlms", 10.0, 0.5, 1, 2, 2)
        assert result.diverged == {nlms: [], l0: []}
        assert result[l0].tobytes() == result[nlms].tobytes()

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
            cell = replace(config, snr_db=(key.snr_db,), mu=(key.mu,))
            survivors = []
            for run in range(config.runs):
                squared, finite = run_single([draw_run(config, key.k, run)], cell, key.algorithm)
                if finite[0, 0]:
                    survivors.append(squared[0, 0])
            expected = np.mean(np.stack(survivors), axis=0)
            assert result[key].tobytes() == expected.tobytes(), key
        assert result.diverged[CellKey("lms", 10.0, 0.5, 1, 2, 2)] == [0]

    @pytest.mark.parametrize("shape, workers, split, dropped", [
        pytest.param(dict(snr_db=(10.0, math.inf), mu=(0.5, 1.0), iterations=700), 1, _AXES,
                     {CellKey("lms", 10.0, 0.5, 1, 2, 2): [2, 3], CellKey("lms", math.inf, 1.0, 1, 2, 2): [0, 1, 2, 3]},
                     id="cells_of_a_group"),
        *[pytest.param(dict(sparsity=(1, 2, 4), snr_db=(10.0, math.inf), mu=(0.5, 1.0), iterations=700), workers,
                       ("sparsity",),
                       {CellKey("lms", 10.0, 0.5, 1, 2, 2): [2, 3], CellKey("lms", 10.0, 0.5, 4, 2, 2): [0, 1, 2]},
                       id=f"sparsity_values-workers{workers}") for workers in (1, 2)],
        pytest.param(dict(nr=3, seed=2, iterations=380, snr_db=(10.0, math.inf), mu=(0.5, 1.0), sparsity=(1, 3)), 1,
                     _AXES,
                     {CellKey("lms", 10.0, 1.0, 3, 2, 3): [0, 2, 3], CellKey("lms", 10.0, 1.0, 1, 2, 3): [0, 1, 2, 3],
                      CellKey("lms", 10.0, 0.5, 3, 2, 3): []},
                     id="batched_antennas"),
        pytest.param(dict(nr=3, seed=2, iterations=380, mu=(0.5, 1.0), sparsity=(1, 3)), 1, _AXES,
                     {CellKey("lms", 10.0, 1.0, 3, 2, 3): [0, 2, 3], CellKey("lms", 10.0, 1.0, 1, 2, 3): [0, 1, 2, 3]},
                     id="mixed_knobs"),
        pytest.param(dict(nr=3, seed=2, iterations=380, mu=(0.5,), sparsity=(1, 3)), 1, _AXES, {},
                     id="mixed_knobs-shared"),
    ])
    def test_every_cell_matches_its_grid_alone(self, shape, workers, split, dropped):
        # every rule over fading epochs of 50 iterations. A grid advances its
        # cells, K values and receive antennas in one rule call per iteration,
        # each knob a (rows, 1) column (shared by every cell in the last
        # case); a grid of one cell updates its antennas one row at a time.
        # Every cell must come out as in a grid of one value of each axis in
        # ``split``. lms drops the seed-pinned runs in ``dropped``, so a stack
        # mixes diverged and surviving pairs
        config = _tiny_config(algorithms=("lms", "nlms", "lp_nlms", "l0_nlms"), runs=4, fading_period=50, **shape)
        result = run_grid(config, workers=workers)
        for key in config.cell_keys():
            alone = _grid_alone(replace(config, **{axis: (value,) for axis, value in zip(_AXES, key) if axis in split}))
            assert result.diverged[key] == alone.diverged[key], key
            assert (key in result) == (key in alone), key
            if key in alone:
                assert result[key].tobytes() == alone[key].tobytes(), key
        for key, runs in dropped.items():
            assert result.diverged[key] == runs, key

    def test_grid_covers_full_cartesian_product(self):
        config = _tiny_config(
            algorithms=("nlms", "l0_nlms"), snr_db=(5.0, 10.0), mu=(0.5, 1.0), sparsity=(1, 4), runs=1, iterations=5
        )
        result = run_grid(config)
        assert len(result) == 2 * 2 * 2 * 2

    def test_pool_gets_no_more_workers_than_tasks(self, monkeypatch):
        # a stub pool records its size and maps in process: no process starts
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        config = _tiny_config(runs=3)
        serial, pooled = run_grid(config), run_grid(config, workers=500)
        assert sizes == [3]
        assert [a.tobytes() for a in serial.values()] == [a.tobytes() for a in pooled.values()]
        run_grid(_tiny_config(runs=1), workers=500)  # one task runs without a pool
        assert sizes == [3]

    def test_bad_worker_count_rejected(self):
        # True is an int to Python, but no worker count
        for workers in (0, True):
            with pytest.raises(ValueError, match="^workers: "):
                run_grid(_tiny_config(), workers=workers)

    def test_fractional_worker_count_rejected_before_any_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the grid started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(experiment, "draw_run", refuse)
        with pytest.raises(ValueError, match="^workers: "):
            run_grid(_tiny_config(runs=3), workers=1.5)

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
