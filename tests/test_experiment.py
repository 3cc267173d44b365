"""Tests for the Monte-Carlo experiment harness."""

import concurrent.futures
import functools
import math
import os
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sparsemimo import experiment
from sparsemimo.estimator import ALGORITHMS
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

from oracles import reference_squared_errors, support_oracle_squared_errors


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
                        lambda draws, config, algorithm: np.array([[next(outputs)]]))
    return run_grid(_tiny_config(runs=len(runs), iterations=len(runs[0])))[CellKey("nlms", 10.0, 0.5, 1, 2, 2)]


def _lone_curve(draws, config, algorithm="nlms"):
    """The squared-error curve of one realization in one cell, which must survive."""
    squared = run_single([draws], config, algorithm)
    assert squared.shape == (1, 1, config.iterations) and np.isfinite(squared).all()
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

    def test_same_draws_give_the_same_bytes(self):
        # the diverging lms run of test_diverging_run_is_masked, whose first
        # non-finite entry is 197 (seed-pinned): the call stops after the block
        # holding it, and every later entry is NaN, not what its memory last
        # held, such as the ones of a buffer freed between the two calls
        config = ExperimentConfig(nt=4, nr=1, length=32, sparsity=(1,), snr_db=(10.0,), mu=(1.0,),
                                  iterations=400)
        draws = [draw_run(config, 1, 0)]
        first = run_single(draws, config, "lms")
        freed = np.full_like(first, 1.0)
        del freed
        second = run_single(draws, config, "lms")
        assert first.tobytes() == second.tobytes()
        curve = first[0, 0]
        assert np.flatnonzero(~np.isfinite(curve))[0] == 197
        # blocks start at iteration 1, so the one holding 197 ends before this
        end = 1 + ((197 - 1) // experiment.BLOCK + 1) * experiment.BLOCK
        assert end < curve.size and np.isnan(curve[end:]).all()

    @pytest.mark.parametrize("overrides, channels", [(dict(nr=2), None), (dict(iterations=40), None),
                                                     ({}, (1, 1, 2 * 4)), ({}, (1, 3, 2 * 8))])
    def test_draws_that_do_not_fit_the_config_rejected(self, overrides, channels):
        # the first two would broadcast: one receive antenna's draws over
        # two, or 50 iterations' draws cut to 40; then a channel of half the
        # taps, and one of three receive antennas
        config = _tiny_config(nr=1)
        draws = draw_run(config, 1, 0)
        if channels:
            draws = (np.zeros(channels), *draws[1:])
        with pytest.raises(ValueError, match="^draws must be channels, training and noise of shapes "):
            run_single([draws], replace(config, **overrides), "nlms")

    def test_ragged_draws_rejected_by_their_shapes(self):
        # the second realization one iteration longer: named by the shapes
        # run_single expects, not by the stack that cannot be made
        config = _tiny_config()
        draws = [draw_run(config, 1, 0), draw_run(replace(config, iterations=51), 1, 0)]
        with pytest.raises(ValueError, match="^draws must be channels, training and noise of shapes "):
            run_single(draws, config, "nlms")

    def test_no_draws_rejected_by_their_shapes(self):
        # named as a ragged list is, not by the unpacking of an empty zip
        with pytest.raises(ValueError, match="^draws must be channels, training and noise of shapes "):
            run_single([], _tiny_config(), "nlms")

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

    def test_stacked_runs_match_runs_alone(self):
        # one call on several runs, each at several K and cells, against a
        # call of its own per (realization, cell), which for one cell at one
        # K takes the per-antenna float path: the reference grid's shape
        # with fading, and two runs of the fading bpsk benchmark's shape.
        # lms drops 2 of the first stack's 24 pairs and 1 of the second's 2
        # (seed-pinned), so its stacks mix diverged and surviving pairs
        grid = _tiny_config(sparsity=(1, 3), snr_db=(10.0, math.inf), mu=(0.5, 1.0), iterations=300,
                            fading_period=50, seed=4)
        bpsk = _tiny_config(nt=4, nr=4, length=16, sparsity=(4,), generator="bpsk", fading_period=20,
                            iterations=300)
        stacks = [(grid, [draw_run(grid, k, run) for run in range(3) for k in grid.sparsity]),
                  (bpsk, [draw_run(bpsk, 4, run) for run in range(2)])]
        for algorithm in ALGORITHMS:
            for config, draws in stacks:
                squared = run_single(draws, config, algorithm)
                finite = np.isfinite(squared).all(axis=-1)
                assert finite.all() != (algorithm == "lms"), (algorithm, config.nt)
                cells = [(snr, mu) for snr in config.snr_db for mu in config.mu]
                for realization, draw in enumerate(draws):
                    for cell, (snr, mu) in enumerate(cells):
                        alone = run_single([draw], replace(config, snr_db=(snr,), mu=(mu,)), algorithm)
                        alive = np.isfinite(alone).all(axis=-1)
                        where = (algorithm, config.nt, realization, cell)
                        assert finite[realization, cell] == alive[0, 0], where
                        if alive[0, 0]:
                            assert squared[realization, cell].tobytes() == alone[0, 0].tobytes(), where

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
        # rule sees one row per (realization, antenna, cell), realization-major,
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
                    # row (realization, antenna, cell) holds its cell's value, bit for bit
                    for realization in got.reshape(realizations, config.nr, cells):
                        for row in realization:
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
    # carry those differences along (to at most 5.3e-14 in these cases, and
    # 1.2e-12 in case 13). A noiseless run takes them further: as its error
    # falls towards 1e-15, h - hhat loses digits to cancellation (case 16 at
    # 200 iterations: 1.3e-9), so cases 16 and 21 stop at 60. A strong
    # penalty amplifies them too. At p = 0.45, epsilon = 0.05 and
    # lambda_lp = 5e-4, the reference summed by math.fsum differs from
    # itself by 26 %, so case 12 keeps lambda_lp at 5e-5; in case 19's
    # shape 5e-5 already gives 2.3e-10, so it takes 2e-5. At lambda_l0 = 1e-2
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
        (14, "lms", dict(nr=1, sparsity=(1, 2), mu=(0.02,), generator="bpsk")),
        (15, "lms", dict(nt=3, nr=1, mu=(0.01,), fading_period=25, generator="ofdm")),
        (16, "nlms", dict(nt=1, nr=1, sparsity=(1, 6), snr_db=(10.0, math.inf), iterations=60)),
        (17, "nlms", dict(nr=3, sparsity=(2, 5), mu=(0.5, 1.0), generator="ofdm")),
        (18, "lp_nlms", dict(fading_period=32, generator="ofdm")),
        (19, "lp_nlms", dict(nt=3, nr=1, fading_period=45, generator="bpsk", lambda_lp=2e-5)),
        (20, "lp_nlms", dict(sparsity=(1, 3), snr_db=(5.0, 15.0), mu=(0.5, 1.0), p=1.0, lambda_lp=2e-3)),
        (21, "lp_nlms", dict(nt=1, sparsity=(2,), snr_db=(20.0, math.inf), iterations=60)),
        (22, "l0_nlms", dict(nr=3, sparsity=(1, 3), fading_period=40)),
        (23, "l0_nlms", dict(nt=1, nr=3, fading_period=50, generator="ofdm", lambda_l0=5e-4)),
        (24, "l0_nlms", dict(sparsity=(2, 4), snr_db=(5.0, 20.0), mu=(0.5, 1.0), generator="bpsk", beta=10.0)),
        (25, "nlms", dict(nr=1, sparsity=(3,), fading_period=1)),
        (26, "lms", dict(nt=3, nr=3, mu=(0.01, 0.03))),
        (27, "lp_nlms", dict(nt=3, nr=3, sparsity=(2,), generator="ofdm", p=1.0, epsilon=0.1)),
        (28, "l0_nlms", dict(nt=3, snr_db=(math.inf,), lambda_l0=1e-4)),
        (29, "lp_nlms", dict(sparsity=(1, 3), mu=(0.5, 1.5), fading_period=64, lambda_lp=5e-5, epsilon=0.05)),
        (30, "l0_nlms", dict(nt=1, sparsity=(1, 4), snr_db=(0.0,), generator="bpsk", fading_period=33)),
    ])
    def test_runs_match_the_reference_run(self, seed, algorithm, overrides):
        # every cell of every K against a Python-float restatement that
        # shares only draw_run's draws with the simulator
        config = _tiny_config(**{"seed": seed, "length": 6, "iterations": 200, "algorithms": (algorithm,),
                                 **overrides})
        draws = [draw_run(config, k, 0) for k in config.sparsity]
        squared = run_single(draws, config, algorithm)
        assert np.isfinite(squared).all()
        cells = [(snr, mu) for snr in config.snr_db for mu in config.mu]
        for realization, draw in enumerate(draws):
            for cell, (snr, mu) in enumerate(cells):
                reference = reference_squared_errors(draw, config, algorithm, snr, mu)
                np.testing.assert_allclose(squared[realization, cell], reference, rtol=self.REFERENCE_RTOL, atol=0)


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

    @pytest.mark.parametrize("runs, mean", [([[1.0, -0.5]], None), ([[1.0, math.nan], [1.0, 0.5]], [1.0, 0.5]),
                                            ([np.full(3, 1e308), np.full(3, 1e308)], None)],
                             ids=["negative", "nan", "overflowing-sum"])
    def test_trace_rejects_bad_values(self, monkeypatch, runs, mean):
        # run_grid refuses impossible means; two finite runs can still overflow
        # their sum, which it refuses without a warning. A run with a NaN entry is dropped, as its curve is its whole outcome
        if mean is None:
            with pytest.raises(ValueError, match="finite and nonnegative"):
                _mean_of(monkeypatch, *runs)
        else:
            assert _mean_of(monkeypatch, *runs).tolist() == mean

    def test_perfect_estimates_average_to_zero(self, monkeypatch):
        assert not _mean_of(monkeypatch, np.zeros(4), np.zeros(4)).any()


class TestConfigValidation:
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
            # an unhashable value fails its key's rule, not the repeat check
            ({"sparsity": ([1],)}, "k"),
            ({"algorithms": (["nlms"],)}, "algorithms"),
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
            # HyperParams does not validate: every knob reaches it through
            # this config, which must refuse each value no rule can take
            ({"p": 0.0}, "p"),
            ({"mu": (-0.1,)}, "mu"),
            ({"epsilon": -0.01}, "epsilon"),
            ({"lambda_lp": -1e-9}, "lambda_lp"),
            ({"lambda_l0": -1e-9}, "lambda_l0"),
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

    @pytest.mark.parametrize("snr, variance", [
        (math.nan, None), (-math.inf, None), (3083.0, None), (-3100.0, None), (-3300.0, None),
        (3082.5, 5.62341325190349e-309), (-3082.5, 1.7782794100389222e308), (math.inf, 0.0),
    ])
    def test_snr_to_variance_refuses_a_power_that_is_not_finite_and_positive(self, snr, variance):
        # the config refuses an SNR by this one rule: 10 ** (snr / 10) overflows
        # at 3083 dB and is 0 at -3300 dB and -inf; 1 / 10 ** (snr / 10) is inf
        # at -3100 dB and nan at NaN. Only inf may give the noiseless 0
        if variance is None:
            with pytest.raises(ValueError, match="^snr_db: "):
                snr_to_variance(snr)
        else:
            assert snr_to_variance(snr) == variance


class TestRunGrid:
    def test_result_is_a_dict(self):
        result = run_grid(_tiny_config(algorithms=("nlms", "l0_nlms")))
        assert isinstance(result, dict)
        assert list(result) == [CellKey(a, 10.0, 0.5, 1, 2, 2) for a in ("nlms", "l0_nlms")]

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
                squared = run_single([draw_run(config, key.k, run)], cell, key.algorithm)[0, 0]
                if np.isfinite(squared).all():
                    survivors.append(squared)
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
        # in cell_keys() order, whatever the worker count
        assert list(result) == [key for key in config.cell_keys() if key in result]
        for key in config.cell_keys():
            alone = _grid_alone(replace(config, **{axis: (value,) for axis, value in zip(_AXES, key) if axis in split}))
            assert result.diverged[key] == alone.diverged[key], key
            assert (key in result) == (key in alone), key
            if key in alone:
                assert result[key].tobytes() == alone[key].tobytes(), key
        for key, runs in dropped.items():
            assert result.diverged[key] == runs, key

    def test_cells_come_in_cell_keys_order_with_k_outside_snr(self):
        # the order run_single's outcomes are stacked in: algorithm, K, SNR, step size
        algorithms, ks, snrs, mus = ("nlms", "l0_nlms"), (1, 4), (10.0, 20.0), (0.5, 1.0)
        config = _tiny_config(algorithms=algorithms, sparsity=ks, snr_db=snrs, mu=mus, runs=3)
        result = run_grid(config)
        assert list(result) == list(result.diverged) == config.cell_keys()
        assert config.cell_keys() == [CellKey(a, s, m, k, 2, 2) for a in algorithms for k in ks for s in snrs
                                      for m in mus]

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
        serial = run_grid(config)
        # the pool gets no more workers than tasks or CPUs; one of either runs without a pool
        for cpus, expected in ((1, []), (2, [2]), (64, [3])):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)), raising=False)
            sizes.clear()
            pooled = run_grid(config, workers=500)
            assert sizes == expected, cpus
            assert [a.tobytes() for a in serial.values()] == [a.tobytes() for a in pooled.values()]
        run_grid(_tiny_config(runs=1), workers=500)  # one task runs without a pool, at 64 CPUs too
        assert sizes == [3]
        # without sched_getaffinity (macOS, Windows) the CPUs are os.cpu_count(), 1 when it is unknown
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for cpus, expected in ((None, []), (2, [2])):
            monkeypatch.setattr(os, "cpu_count", lambda n=cpus: n)
            sizes.clear()
            pooled = run_grid(config, workers=500)
            assert sizes == expected, cpus
            assert [a.tobytes() for a in serial.values()] == [a.tobytes() for a in pooled.values()]

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

    @pytest.mark.parametrize("generator", experiment.GENERATOR_KINDS)
    def test_one_iteration_is_the_cold_start_alone(self, generator):
        # nothing is drawn past the cold start, whose error is the energy of nt * nr unit-energy links
        config = _tiny_config(generator=generator, iterations=1, algorithms=ALGORITHMS)
        result = run_grid(config)
        assert list(result) == config.cell_keys()
        for trace in result.values():
            assert trace.shape == (1,) and trace[0] == pytest.approx(4.0, abs=1e-12)


# the paired grid of the sparse-rule theory tests: 2x2, L 16, 10 dB, mu 0.5, 20 runs of 2000 iterations
_THEORY = ExperimentConfig(nt=2, nr=2, length=16, sparsity=(1, 4, 8, 16), snr_db=(10.0,), mu=(0.5,), runs=20,
                           iterations=2000, seed=3)


@functools.cache
def _tails(algorithm, ks=_THEORY.sparsity, scale=1.0):
    """Each run's steady-state MSE on ``_THEORY`` at each K in ``ks``, ``(len(ks), runs)``, with both weights at
    ``scale`` times their default. One call per rule advances every (K, run); run_grid would sum their tails away."""
    variance = snr_to_variance(10.0)
    config = replace(_THEORY, lambda_lp=scale * LAMBDA_LP_NOISE_RATIO * variance,
                     lambda_l0=scale * LAMBDA_L0_NOISE_RATIO * variance)
    squared = run_single([draw_run(config, k, run) for k in ks for run in range(config.runs)], config, algorithm)
    assert np.isfinite(squared).all()
    return np.array([steady_state_mse(curve) for curve in squared[:, 0]]).reshape(len(ks), config.runs)


def _gain_interval(x, y):
    """The paired 95 % interval of the gain in dB of tail MSEs ``y`` over ``x``, run by run:
    the gain plus or minus 1.96 sd(10 / ln 10 (x_r / mean x - y_r / mean y)) / sqrt(runs)."""
    gain = 10.0 * math.log10(x.mean() / y.mean())
    half = 1.96 * np.std(10.0 / math.log(10.0) * (x / x.mean() - y / y.mean()), ddof=1) / math.sqrt(x.size)
    return gain - half, gain + half


# the K at which the sparse rules also run at 3x their default weights
_STRONG = (1, 4, 8)


def _weight_gains(algorithm, k):
    """The paired intervals of ``algorithm``'s gain over NLMS on ``_THEORY`` at K 1 or 8, weights at 1x and 3x."""
    nlms, default = (_tails(name)[_THEORY.sparsity.index(k)] for name in ("nlms", algorithm))
    return _gain_interval(nlms, default), _gain_interval(nlms, _tails(algorithm, _STRONG, 3.0)[_STRONG.index(k)])


@functools.cache
def _oracle_tails():
    """Each run's steady-state MSE under the support oracle on ``_THEORY``'s draws at each K in ``_STRONG``."""
    draws = [draw_run(_THEORY, k, run) for k in _STRONG for run in range(_THEORY.runs)]
    squared = support_oracle_squared_errors(draws, _THEORY, _THEORY.snr_db[0], _THEORY.mu[0])
    return np.array([steady_state_mse(curve) for curve in squared]).reshape(len(_STRONG), _THEORY.runs)


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

    @pytest.mark.parametrize("algorithm, falls_from", [("lp_nlms", 4), ("l0_nlms", 1)])
    def test_sparse_rules_stop_paying_as_the_channel_fills(self, algorithm, falls_from):
        # The Lp and L0 zero attractors pull every tap towards zero: that
        # helps the off-support taps and biases the support, so the sparse
        # rules gain over NLMS on a sparse channel and lose once K = L (Chen,
        # Gu & Hero, ICASSP 2009; Gu, Jin & Mei, IEEE SPL 2009). A claim is
        # made only where the paired intervals clear it. At K 1 / 4 / 8 / 16
        # this reads lp_nlms +2.39 +- 0.09 / +2.25 +- 0.10 / +1.29 +- 0.16 /
        # -1.60 +- 0.14 dB and l0_nlms +5.40 +- 0.20 / +3.60 +- 0.20 /
        # +2.02 +- 0.19 / -0.39 +- 0.11 dB; lp_nlms's K 1 and K 4 intervals
        # overlap, so its fall is claimed from K 4 on
        ks = _THEORY.sparsity
        intervals = {k: _gain_interval(x, y) for k, x, y in zip(ks, _tails("nlms"), _tails(algorithm))}
        assert intervals[1][0] > 0 and intervals[16][1] < 0, intervals
        falling = ks[ks.index(falls_from):]
        for k, next_k in zip(falling, falling[1:]):
            assert intervals[k][0] > intervals[next_k][1], (k, next_k, intervals)

    @pytest.mark.parametrize("algorithm", ["lp_nlms", "l0_nlms"])
    @pytest.mark.parametrize("k, stronger_pays", [(1, True), (8, False)])
    def test_the_best_penalty_weight_falls_as_the_channel_fills(self, algorithm, k, stronger_pays):
        # Chen, Gu & Hero's shape: the useful attractor weight shrinks as the
        # support grows. With both weights at 1x / 3x their default, the gain
        # over NLMS at K 1 reads lp_nlms +2.39 +- 0.09 / +5.44 +- 0.16 dB and
        # l0_nlms +5.40 +- 0.20 / +9.47 +- 0.32 dB; at K 8 lp_nlms
        # +1.29 +- 0.16 / -0.93 +- 0.19 dB and l0_nlms +2.02 +- 0.19 /
        # +1.10 +- 0.48 dB. Statistics only: a strong penalty amplifies
        # last-bit differences, so no bits are pinned
        one, three = _weight_gains(algorithm, k)
        better, worse = (three, one) if stronger_pays else (one, three)
        assert better[0] > worse[1], (one, three)

    def test_the_support_oracle_at_a_full_support_is_nlms(self):
        # at K = L every tap is on the support, so the oracle is plain NLMS, which the float reference runs
        config = _tiny_config(length=4, sparsity=(4,), iterations=100, fading_period=30)
        draws = [draw_run(config, 4, run) for run in range(2)]
        expected = [reference_squared_errors(draw, config, "nlms", 10.0, 0.5) for draw in draws]
        np.testing.assert_allclose(support_oracle_squared_errors(draws, config, 10.0, 0.5), expected, rtol=1e-9)

    @pytest.mark.parametrize("k", _STRONG)
    def test_no_rule_floor_crosses_the_support_oracle(self, k):
        # NLMS that updates only the true support is the floor a sparse rule
        # aims at (the oracle estimator of Candes & Tao, Ann. Stat. 2007). Each
        # rule, at its default and 3x weights, stays above it on the same
        # draws: the oracle reads -24.52 / -18.44 / -15.37 dB at K 1 / 4 / 8,
        # and the smallest gap, the best rule's, +3.56 +- 0.25 / +2.64 +- 0.50 /
        # +1.75 +- 0.17 dB (l0_nlms at 3x, 3x and 1x). Statistics only, no bits pinned
        oracle = _oracle_tails()[_STRONG.index(k)]
        floors = {name: _tails(name)[_THEORY.sparsity.index(k)] for name in ("nlms", "lp_nlms", "l0_nlms")}
        floors |= {f"{name} 3x": _tails(name, _STRONG, 3.0)[_STRONG.index(k)] for name in ("lp_nlms", "l0_nlms")}
        gaps = {name: _gain_interval(floor, oracle) for name, floor in floors.items()}
        assert all(low > 0 for low, _ in gaps.values()), gaps

    @pytest.mark.parametrize("k", [1, 8])
    def test_l0_beats_lp_at_each_rules_better_weight(self, k):
        # each rule's better weight is the one whose gain interval lies higher
        lp, l0 = (max(_weight_gains(algorithm, k), key=sum) for algorithm in ("lp_nlms", "l0_nlms"))
        assert l0[0] > lp[1], (lp, l0)
