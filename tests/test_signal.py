"""Tests for training generation, SNR conversion, and the received signal."""

import math

import numpy as np
import pytest

from sparsemimo.channel import assemble_mimo_channel
from sparsemimo.estimator import HyperParams, update
from sparsemimo.experiment import ExperimentConfig, run_single
from sparsemimo.signal import (
    GENERATOR_KINDS,
    TrainingGenerator,
    ofdm_time_samples,
    snr_to_variance,
)


class TestTrainingGenerator:
    def test_bpsk_is_constant_modulus(self):
        gen = TrainingGenerator("bpsk", 2, np.random.default_rng(0))
        draws = np.array([gen.next() for _ in range(500)])
        assert set(np.unique(draws)) == {-1.0, 1.0}
        assert np.mean(draws**2) == 1.0

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_unit_power(self, kind):
        gen = TrainingGenerator(kind, 1, np.random.default_rng(1))
        draws = np.array([gen.next()[0] for _ in range(100_000)])
        assert np.mean(draws**2) == pytest.approx(1.0, rel=0.02)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TrainingGenerator("qam", 1, np.random.default_rng(0))

    def test_ofdm_consumes_blocks_deterministically(self):
        a = TrainingGenerator("ofdm", 2, np.random.default_rng(5))
        b = TrainingGenerator("ofdm", 2, np.random.default_rng(5))
        sa = np.array([a.next() for _ in range(150)])  # spans three 64-sample blocks
        sb = np.array([b.next() for _ in range(150)])
        assert np.array_equal(sa, sb)
        assert np.isfinite(sa).all()


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
        squared = _noise_only_run(10.0, np.random.default_rng(3))
        assert np.mean(squared[1:]) == pytest.approx(snr_to_variance(10.0), rel=0.03)

    def test_distinct_streams_are_independent(self):
        a = _noise_only_run(10.0, np.random.default_rng(1))
        b = _noise_only_run(10.0, np.random.default_rng(2))
        assert not np.array_equal(a, b)


def _noise_only_run(snr_db, rng, iterations=20_000):
    config = ExperimentConfig(nt=1, nr=1, length=1, sparsity=(1,), generator="bpsk",
                              iterations=iterations)
    return run_single(np.zeros((1, 1)), [config.cell(snr_db, 1.0, 1)], "nlms", rng)[0]


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
    generator = TrainingGenerator("gaussian", nt, rng)
    std = math.sqrt(snr_to_variance(snr_db))
    nr = rows.shape[0]
    estimates = [np.zeros(nt * length) for _ in range(nr)]
    history = []
    squared = [float(np.sum(rows * rows))]
    for n in range(iterations - 1):
        history.append(generator.next())
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
        config = ExperimentConfig(nt=nt, nr=nr, length=length, sparsity=(2,), iterations=iterations,
                                  lambda_l0=1e-2)
        cell = config.cell(10.0, 0.5, 2)
        rows = assemble_mimo_channel(nt, nr, length, 2, np.random.default_rng(21))
        for algorithm in ("nlms", "l0_nlms"):
            got = run_single(rows, [cell], algorithm, np.random.default_rng(4))[0]
            hyper = HyperParams(algorithm, mu=0.5, lambda_l0=1e-2)
            expected = _naive_run(rows, nt, length, 10.0, iterations, hyper, seed=4)
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_identity_channel_passes_sample_through(self):
        # noiseless y(1) = s(1): a single NLMS step with mu=1 from the
        # all-zero cold start then recovers the channel up to NLMS_DELTA
        config = ExperimentConfig(nt=1, nr=1, length=3, sparsity=(1,), iterations=5)
        rows = np.array([[1.0, 0.0, 0.0]])
        squared = run_single(rows, [config.cell(math.inf, 1.0, 1)], "nlms", np.random.default_rng(0))[0]
        assert squared[0] == 1.0
        assert np.all(squared[1:] < 1e-20)

    def test_dimension_mismatch_rejected(self):
        cell = ExperimentConfig(nt=2, nr=2, length=8, sparsity=(1,), iterations=5).cell(10.0, 0.5, 1)
        with pytest.raises(ValueError):
            run_single(np.zeros((2, 2 * 4)), [cell], "nlms", np.random.default_rng(0))
        with pytest.raises(ValueError):
            run_single(np.zeros((3, 2 * 8)), [cell], "nlms", np.random.default_rng(0))
