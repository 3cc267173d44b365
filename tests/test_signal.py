"""Tests for training generation, SNR conversion, and the received signal."""

import math

import numpy as np
import pytest

from sparsemimo import experiment
from sparsemimo.channel import assemble_mimo_channel
from sparsemimo.estimator import HyperParams, update
from sparsemimo.experiment import (
    GENERATOR_KINDS,
    SUBCARRIERS,
    ExperimentConfig,
    draw_run,
    ofdm_time_samples,
    run_single,
    snr_to_variance,
)


def _training(kind, nt, samples, seed):
    """``samples`` training draws per transmit antenna; row 0, the cold start's, is left out."""
    config = ExperimentConfig(nt=nt, nr=1, length=1, sparsity=(1,), generator=kind,
                              iterations=samples + 1, seed=seed)
    return draw_run(config, 1, 0)[1][1:]


def _reference_draws(config, k, run):
    """Every draw of a run from raw calls on its two streams, one iteration at a time.

    The first channel comes from the channel stream. Per iteration on the
    loop stream: the fading channel when a period starts, the training
    sample of each transmit antenna, then the unit noise of each receive
    antenna. ofdm draws the bits of a whole block when its last one is
    used up.
    """
    nt, nr, length = config.nt, config.nr, config.length
    seed = experiment._realization_seed(config, k, run, experiment._STREAM_CHANNEL)
    rows = assemble_mimo_channel(nt, nr, length, k, np.random.default_rng(seed))
    rng = np.random.default_rng(experiment._realization_seed(config, k, run, experiment._STREAM_LOOP))
    channels, training, noise = [rows], [np.zeros(nt)], [np.zeros(nr)]
    block, cursor = None, SUBCARRIERS
    for n in range(1, config.iterations):
        if config.fading_period and n % config.fading_period == 0:
            channels.append(assemble_mimo_channel(nt, nr, length, k, rng))
        if config.generator == "gaussian":
            sample = rng.standard_normal(nt)
        elif config.generator == "bpsk":
            sample = rng.integers(0, 2, nt) * 2.0 - 1.0
        else:
            if cursor == SUBCARRIERS:
                re = rng.integers(0, 2, (nt, SUBCARRIERS)) * 2.0 - 1.0
                im = rng.integers(0, 2, (nt, SUBCARRIERS)) * 2.0 - 1.0
                symbols = (re + 1j * im) / math.sqrt(2.0)
                block = np.stack([ofdm_time_samples(symbols[t]) for t in range(nt)]).real * math.sqrt(2.0)
                cursor = 0
            sample = block[:, cursor]
            cursor += 1
        training.append(sample)
        noise.append(rng.standard_normal(nr))
    return np.stack(channels), np.array(training), np.array(noise)


class TestTrainingGenerator:
    """The training stream that ``draw_run`` draws for each generator kind."""

    def test_bpsk_is_constant_modulus(self):
        draws = _training("bpsk", 2, 500, seed=0)
        assert set(np.unique(draws)) == {-1.0, 1.0}
        assert np.mean(draws**2) == 1.0

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_unit_power(self, kind):
        draws = _training(kind, 1, 100_000, seed=1)[:, 0]
        assert np.mean(draws**2) == pytest.approx(1.0, rel=0.02)

    def test_ofdm_consumes_blocks_deterministically(self):
        sa = _training("ofdm", 2, 150, seed=5)  # spans three 64-sample blocks
        sb = _training("ofdm", 2, 150, seed=5)
        assert np.array_equal(sa, sb)
        assert np.isfinite(sa).all()

    @pytest.mark.parametrize("fading_period", [None, 43])
    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_stream_layout_is_the_per_iteration_order(self, kind, fading_period):
        # 200 iterations span four ofdm blocks; with a period of 43 the
        # fading redraw at 129 and the ofdm block at 129 fall together
        config = ExperimentConfig(nt=2, nr=3, length=4, sparsity=(2,), generator=kind,
                                  iterations=200, fading_period=fading_period)
        got = draw_run(config, 2, 5)
        expected = _reference_draws(config, 2, 5)
        assert [a.shape for a in got] == [a.shape for a in expected]
        assert len(got[0]) == (5 if fading_period else 1)  # redraws at 43, 86, 129, 172
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()


class TestOfdmTimeSamples:
    def test_all_ones_is_scaled_impulse(self):
        time = ofdm_time_samples(np.ones(4))
        assert np.allclose(time, [2.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_single_tone_is_shifted_impulse(self):
        c, q = 8, 3
        tone = np.exp(2j * np.pi * q * np.arange(c) / c)
        time = ofdm_time_samples(tone)
        expected = np.zeros(c, dtype=complex)
        expected[(c - q) % c] = math.sqrt(c)
        assert np.allclose(time, expected, atol=1e-12)

    def test_parseval_power_preserved(self):
        rng = np.random.default_rng(13)
        # unit-modulus QPSK symbols: total power is the block length exactly
        symbols = np.exp(1j * (np.pi / 4 + np.pi / 2 * rng.integers(0, 4, 64)))
        time = ofdm_time_samples(symbols)
        assert np.sum(np.abs(time) ** 2) == pytest.approx(np.sum(np.abs(symbols) ** 2), abs=1e-9)
        assert np.mean(np.abs(time) ** 2) == pytest.approx(1.0, abs=1e-9)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            ofdm_time_samples(np.array([]))


class TestNoise:
    def test_infinite_snr_is_noiseless(self):
        assert snr_to_variance(math.inf) == 0.0

    def test_empirical_variance(self):
        # one bpsk tap, zero channel: an NLMS step with mu=1 sets the
        # estimate to z * x, so each squared error is the noise sample z^2
        # and their mean is the noise variance 1/SNR of the SNR convention
        squared = _noise_only_run(10.0, 3)
        assert np.mean(squared[1:]) == pytest.approx(snr_to_variance(10.0), rel=0.03)

    def test_distinct_streams_are_independent(self):
        a = _noise_only_run(10.0, 1)
        b = _noise_only_run(10.0, 2)
        assert not np.array_equal(a, b)


def _noise_only_run(snr_db, seed, iterations=20_000):
    config = ExperimentConfig(nt=1, nr=1, length=1, sparsity=(1,), snr_db=(snr_db,), mu=(1.0,),
                              generator="bpsk", iterations=iterations, seed=seed)
    _, training, noise = draw_run(config, 1, 0)
    squared, finite = run_single([(np.zeros((1, 1, 1)), training, noise)], config, "nlms")
    assert finite.all()
    return squared[0, 0]


def _naive_run(rows, nt, length, snr_db, iterations, hyper, seed):
    """Plain-python reference run with its own sample history.

    The received sample is the convolution
    ``y_r(n) = sum_t sum_l h[r][t][l] * s(n - l)[t] + z_r(n)``, computed from
    the raw history, independent of any delay-line layout. The regressor
    handed to the rule is rebuilt from the same history: per transmit
    antenna its last ``length`` samples, newest first, zero before the
    start. The draw order is the documented one: training, then noise.
    """
    rng = np.random.default_rng(seed)
    std = math.sqrt(snr_to_variance(snr_db))
    nr = rows.shape[0]
    estimates = [np.zeros(nt * length) for _ in range(nr)]
    history = []
    squared = [float(np.sum(rows * rows))]
    for n in range(iterations - 1):
        history.append(rng.standard_normal(nt))
        noise = rng.normal(0.0, std, nr)
        x = np.array([
            history[n - l][t] if n - l >= 0 else 0.0 for t in range(nt) for l in range(length)
        ])
        total = 0.0
        for r in range(nr):
            y = noise[r]
            for t in range(nt):
                for l in range(min(length, n + 1)):
                    y += rows[r, t * length + l] * history[n - l][t]
            h = estimates[r]
            estimates[r] = update(hyper, h, x, y - float(h @ x))
            total += float(np.sum((rows[r] - estimates[r]) ** 2))
        squared.append(total)
    return np.array(squared)


class TestSystemOutput:
    def test_matches_naive_convolution_oracle(self):
        nt, nr, length, iterations = 2, 2, 4, 30
        config = ExperimentConfig(nt=nt, nr=nr, length=length, sparsity=(2,), snr_db=(10.0,), mu=(0.5,),
                                  iterations=iterations, lambda_l0=1e-2)
        draws = draw_run(config, 2, 0)
        seed = experiment._realization_seed(config, 2, 0, experiment._STREAM_LOOP)
        for algorithm in ("nlms", "l0_nlms"):
            squared, finite = run_single([draws], config, algorithm)
            assert finite.all()
            got = squared[0, 0]
            hyper = HyperParams(algorithm, mu=0.5, lambda_l0=1e-2)
            expected = _naive_run(draws[0][0], nt, length, 10.0, iterations, hyper, seed=seed)
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_identity_channel_passes_sample_through(self):
        # noiseless y(1) = s(1): a single NLMS step with mu=1 from the
        # all-zero cold start then recovers the channel up to NLMS_DELTA
        config = ExperimentConfig(nt=1, nr=1, length=3, sparsity=(1,), snr_db=(math.inf,), mu=(1.0,),
                                  iterations=5)
        _, training, noise = draw_run(config, 1, 0)
        squared, finite = run_single([(np.array([[[1.0, 0.0, 0.0]]]), training, noise)], config, "nlms")
        assert finite.all()
        assert squared[0, 0, 0] == 1.0
        assert np.all(squared[0, 0, 1:] < 1e-20)

    def test_dimension_mismatch_rejected(self):
        config = ExperimentConfig(nt=2, nr=2, length=8, sparsity=(1,), snr_db=(10.0,), mu=(0.5,), iterations=5)
        _, training, noise = draw_run(config, 1, 0)
        with pytest.raises(ValueError):
            run_single([(np.zeros((1, 2, 2 * 4)), training, noise)], config, "nlms")
        with pytest.raises(ValueError):
            run_single([(np.zeros((1, 3, 2 * 8)), training, noise)], config, "nlms")
