"""Tests for a run's draws: the sparse channel, the training stream, SNR conversion and the received signal."""

import math

import numpy as np
import pytest

from sparsemimo import experiment
from sparsemimo.experiment import (
    GENERATOR_KINDS,
    SUBCARRIERS,
    ExperimentConfig,
    draw_run,
    run_single,
    snr_to_variance,
)

from oracles import raw_rows

L = 16


def _channel(nt, nr, length, sparsity, rng):
    """One ``(nr, nt * L)`` channel epoch from the per-link draw ``draw_run`` uses."""
    taps = np.zeros((nr * nt, length))
    experiment._draw_links(taps, sparsity, rng)
    return taps.reshape(nr, nt * length)


class _ZeroAtRng:
    """Stub rng whose Gaussian draw number ``zero_call`` is all zeros.

    Every other Gaussian draw number ``c`` is ``c, c + 1, ...``, so a link's
    values name the draw they came from; ``log`` lists every call in order.
    """

    def __init__(self, zero_call):
        self.zero_call = zero_call
        self.gaussian_calls = 0
        self.log = []

    def choice(self, n, size, replace):
        assert not replace
        self.log.append("choice")
        return np.arange(size)

    def standard_normal(self, size=None, out=None):
        size = size if out is None else out.size
        self.gaussian_calls += 1
        self.log.append(("normal", size))
        zero = self.gaussian_calls == self.zero_call
        draw = np.zeros(size) if zero else self.gaussian_calls + np.arange(size, dtype=float)
        if out is None:
            return draw
        out[:] = draw
        return out


class TestChannel:
    """The sparse channel that ``draw_run`` draws, one epoch at a time."""

    @pytest.mark.parametrize("sparsity", [1, 4, 16])
    def test_unit_norm_and_support(self, sparsity):
        taps = _channel(1, 1, L, sparsity, np.random.default_rng(3))[0]
        assert taps.shape == (L,)
        assert taps.dtype == np.float64
        assert np.flatnonzero(taps).size == sparsity
        assert np.sum(taps**2) == pytest.approx(1.0, abs=1e-12)

    def test_support_positions_cover_all_indices(self):
        # over many draws every tap index should occur in some support
        rng = np.random.default_rng(5)
        seen = set()
        for _ in range(300):
            seen.update(np.flatnonzero(_channel(1, 1, L, 2, rng)).tolist())
        assert seen == set(range(L))

    def test_exact_zero_draws_are_redrawn(self):
        rng = _ZeroAtRng(zero_call=1)
        taps = _channel(1, 1, 8, 3, rng)[0]
        assert rng.gaussian_calls == 2
        assert np.count_nonzero(taps) == 3
        assert np.sum(taps**2) == pytest.approx(1.0, abs=1e-12)

    def test_zero_draw_in_a_middle_link_redraws_only_that_link(self):
        # 3x3 links, K=2: link 4 is the middle one and takes Gaussian draw 5
        rng = _ZeroAtRng(zero_call=5)
        rows = _channel(3, 3, 4, 2, rng)
        link = ["choice", ("normal", 2)]
        assert rng.log == link * 4 + link + [("normal", 2)] + link * 4
        # links 0..3 take draws 1..4, link 4 its redraw 6, links 5..8 draws 7..10
        for index, draw in enumerate([1, 2, 3, 4, 6, 7, 8, 9, 10]):
            rx, tx = divmod(index, 3)
            expected = np.zeros(4)
            expected[:2] = [draw, draw + 1]
            expected /= math.sqrt(expected @ expected)
            assert rows[rx, tx * 4:(tx + 1) * 4].tobytes() == expected.tobytes(), index

    @pytest.mark.parametrize(
        "nt,nr,length,sparsity",
        [(1, 1, 16, 4), (1, 1, 16, 16), (2, 3, 1, 1), (3, 2, 5, 5), (4, 4, 64, 4), (4, 4, 64, 64)],
    )
    def test_matches_raw_draws(self, nt, nr, length, sparsity):
        for seed in range(60):
            rng, raw_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            rows = _channel(nt, nr, length, sparsity, rng)
            assert rows.tobytes() == raw_rows(nt, nr, length, sparsity, raw_rng).tobytes(), seed
            # both consumed the same stretch of the stream
            assert rng.bit_generator.state == raw_rng.bit_generator.state

    @pytest.mark.parametrize("nt,nr", [(2, 2), (2, 4), (1, 1)])
    def test_every_fading_epoch_has_k_sparse_unit_energy_links(self, nt, nr):
        config = ExperimentConfig(nt=nt, nr=nr, length=L, sparsity=(4,), iterations=200, fading_period=20)
        channels = draw_run(config, 4, 0)[0]
        assert channels.shape == (10, nr, nt * L)
        assert channels.dtype == np.float64
        links = channels.reshape(10, nr, nt, L)
        assert (np.count_nonzero(links, axis=-1) == 4).all()
        np.testing.assert_allclose(np.sum(links**2, axis=-1), 1.0, rtol=0, atol=1e-12)
        assert len({epoch.tobytes() for epoch in channels}) == 10  # every epoch a fresh draw

    @pytest.mark.parametrize("k", [0, L + 1, -1, 1.0, True])
    def test_draw_run_refuses_k_outside_its_range(self, k):
        config = ExperimentConfig(length=L, iterations=5)
        with pytest.raises(ValueError, match=r"^k: "):
            draw_run(config, k, 0)


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
    rows = raw_rows(nt, nr, length, k, np.random.default_rng(seed))
    rng = np.random.default_rng(experiment._realization_seed(config, k, run, experiment._STREAM_LOOP))
    channels, training, noise = [rows], [np.zeros(nt)], [np.zeros(nr)]
    block, cursor = None, SUBCARRIERS
    for n in range(1, config.iterations):
        if config.fading_period and n % config.fading_period == 0:
            channels.append(raw_rows(nt, nr, length, k, rng))
        if config.generator == "gaussian":
            sample = rng.standard_normal(nt)
        elif config.generator == "bpsk":
            sample = rng.integers(0, 2, nt) * 2.0 - 1.0
        else:
            if cursor == SUBCARRIERS:
                re = rng.integers(0, 2, (nt, SUBCARRIERS)) * 2.0 - 1.0
                im = rng.integers(0, 2, (nt, SUBCARRIERS)) * 2.0 - 1.0
                symbols = (re + 1j * im) / math.sqrt(2.0)
                # each antenna's unitary inverse DFT, one block at a time
                time = [np.fft.ifft(symbols[t]) * math.sqrt(SUBCARRIERS) for t in range(nt)]
                block = np.stack(time).real * math.sqrt(2.0)
                cursor = 0
            sample = block[:, cursor]
            cursor += 1
        training.append(sample)
        noise.append(rng.standard_normal(nr))
    return np.stack(channels), np.array(training), np.array(noise)


class TestTrainingStream:
    """The training stream that ``draw_run`` draws for each generator kind."""

    def test_bpsk_is_constant_modulus(self):
        draws = _training("bpsk", 2, 500, seed=0)
        assert set(np.unique(draws)) == {-1.0, 1.0}
        assert np.mean(draws**2) == 1.0

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_unit_power(self, kind):
        draws = _training(kind, 1, 100_000, seed=1)[:, 0]
        assert np.mean(draws**2) == pytest.approx(1.0, rel=0.02)

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


class TestSystemOutput:
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
