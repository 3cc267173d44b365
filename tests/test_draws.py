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
    """One ``(nr, nt * L)`` channel epoch from the link draw ``draw_run`` uses: emulated up to
    ``EMULATED_K``, past it or after a rejected word by ``rng.choice``."""
    start = rng.bit_generator.state
    for exact in (sparsity > experiment.EMULATED_K, True):
        rng.bit_generator.state = start  # a redraw starts where the first draw did
        taps = np.zeros((nr * nt, length))
        links = experiment._Links(taps, sparsity, exact)
        links.draw(rng, nr * nt)
        if links.place():
            return taps.reshape(nr, nt * length)


def _spy_on_place(monkeypatch):
    """The list that each later ``_Links.place`` call appends its result and its links' ``exact`` to."""
    place, placed = experiment._Links.place, []
    monkeypatch.setattr(experiment._Links, "place",
                        lambda links: placed.append((place(links), links.exact)) or placed[-1][0])
    return placed


class _LoggedPCG64(np.random.PCG64):
    """A real PCG64 that notes each run of 64-bit outputs in ``log`` as one ``"words"`` entry."""

    log = None

    def random_raw(self, size=None, output=True):
        if self.log[-1:] != ["words"]:
            self.log.append("words")
        return super().random_raw(size, output)


class _ZeroAtRng:
    """Stub rng: the supports' words come from a real PCG64 seeded ``seed``,
    and only the Gaussian draws are fake, draw number ``zero_call`` all zeros.

    Every other Gaussian draw number ``c`` is ``c, c + 1, ...``, so a link's
    values name the draw they came from; ``log`` lists every call in order.
    The fake draws leave the words alone, so the supports are those of
    ``rng.choice`` calls alone on a generator of the same seed.
    """

    def __init__(self, zero_call, seed):
        self.zero_call = zero_call
        self.gaussian_calls = 0
        self.log = []
        self.bit_generator = _LoggedPCG64(seed)
        self.bit_generator.log = self.log

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


def _stub_link(positions, draw, length):
    """A link as ``_ZeroAtRng`` makes it: draw number ``draw``'s values at ``positions``, at unit energy."""
    values = draw + np.arange(len(positions), dtype=float)
    values /= math.sqrt(values @ values)
    link = np.zeros(length)
    link[positions] = values
    return link


def _word_state(rng):
    """Where ``rng``'s PCG64 stands, its spare 32-bit word included, whatever its class name."""
    state = rng.bit_generator.state
    return state["state"], state["has_uint32"], state["uinteger"]


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
        rng = _ZeroAtRng(zero_call=1, seed=2)
        taps = _channel(1, 1, 8, 3, rng)[0]
        assert rng.gaussian_calls == 2
        assert np.count_nonzero(taps) == 3
        assert np.sum(taps**2) == pytest.approx(1.0, abs=1e-12)
        # the redraw, draw 2, at the support of the seed's first rng.choice
        real = np.random.default_rng(2)
        assert taps.tobytes() == _stub_link(real.choice(8, 3, replace=False), 2, 8).tobytes()
        assert _word_state(rng) == _word_state(real)

    def test_zero_draw_in_a_middle_link_redraws_only_that_link(self):
        # 3x3 links, K=2: link 4 is the middle one and takes Gaussian draw 5
        rng = _ZeroAtRng(zero_call=5, seed=0)
        rows = _channel(3, 3, 4, 2, rng)
        link = ["words", ("normal", 2)]
        assert rng.log == link * 4 + link + [("normal", 2)] + link * 4
        # links 0..3 take draws 1..4, link 4 its redraw 6, links 5..8 draws
        # 7..10, each at the support of the seed's next rng.choice
        real = np.random.default_rng(0)
        for index, draw in enumerate([1, 2, 3, 4, 6, 7, 8, 9, 10]):
            rx, tx = divmod(index, 3)
            expected = _stub_link(real.choice(4, 2, replace=False), draw, 4)
            assert rows[rx, tx * 4:(tx + 1) * 4].tobytes() == expected.tobytes(), index
        assert _word_state(rng) == _word_state(real)

    @pytest.mark.parametrize(
        "nt,nr,length,sparsity",
        # K 64 and 250 are past EMULATED_K, so rng.choice's own
        [(1, 1, 16, 4), (1, 1, 16, 16), (2, 3, 1, 1), (3, 2, 5, 5), (4, 4, 64, 4), (4, 4, 64, 64),
         (4, 4, 10_050, 250)],
    )
    def test_matches_raw_draws(self, nt, nr, length, sparsity):
        for seed in range(60):
            rng, raw_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            rows = _channel(nt, nr, length, sparsity, rng)
            assert rows.tobytes() == raw_rows(nt, nr, length, sparsity, raw_rng).tobytes(), seed
            # both consumed the same stretch of the stream
            assert rng.bit_generator.state == raw_rng.bit_generator.state

    @pytest.mark.parametrize(
        "length,sparsity,seed,spare",
        [
            # one float32 drawn first leaves the epoch a spare word to start on
            pytest.param(16, 4, 7, True, id="spare-word"),
            pytest.param(16, 16, 7, True, id="k-equals-length"),
            # one word of each seed's epoch is rejected (Lemire's method): of its
            # first link, of its second, and of its first after a spare word
            pytest.param(100_000, 48, 1822, False, id="rejection-1822"),
            pytest.param(100_000, 48, 1875, False, id="rejection-1875"),
            pytest.param(100_000, 48, 1659, True, id="rejection-1659-spare"),
            # the largest K emulated, and the smallest that rng.choice draws
            pytest.param(64, 48, 3, False, id="emulated-k-48"),
            pytest.param(64, 48, 3, True, id="emulated-k-48-spare"),
            pytest.param(64, 49, 3, False, id="choice-k-49"),
            pytest.param(64, 49, 3, True, id="choice-k-49-spare"),
            # rng.choice's own supports: numpy's tail shuffle (L > 10000 and
            # K > L // 50), then its Floyd sampling at K in the thousands
            pytest.param(10_050, 250, 3, False, id="tail"),
            pytest.param(12_000, 5_000, 3, True, id="tail-wide"),
            pytest.param(10_050, 10_050, 3, False, id="tail-k-equals-length"),
            pytest.param(10_000, 2_000, 3, False, id="k-2000-of-10000"),
            pytest.param(10_000, 10_000, 3, False, id="k-equals-length-10000"),
        ],
    )
    def test_supports_are_choice_draws(self, length, sparsity, seed, spare):
        rng, raw_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if spare:
            rng.random(dtype=np.float32)
            raw_rng.random(dtype=np.float32)
        # two links, so the second starts where the first left the words
        rows = _channel(2, 1, length, sparsity, rng)
        assert rows.tobytes() == raw_rows(2, 1, length, sparsity, raw_rng).tobytes()
        assert rng.bit_generator.state == raw_rng.bit_generator.state

    @pytest.mark.parametrize("seed,spare", [(1822, False), (1875, False), (1659, True)])
    def test_rejection_seeds_reject(self, seed, spare, monkeypatch):
        # the rejection-* epochs above: judged in bulk, their words hold a
        # rejected one, so they are drawn again, by rng.choice
        placed = _spy_on_place(monkeypatch)
        rng = np.random.default_rng(seed)
        if spare:
            rng.random(dtype=np.float32)
        _channel(2, 1, 100_000, 48, rng)
        assert placed == [(False, False), (True, True)]

    def test_a_rejected_word_after_the_first_epoch_redraws_the_run(self, monkeypatch):
        # Found by drawing runs 0-999 of this config with a spy on _Links.place:
        # only run 383 draws again, for word 26 of link 7, the second link of
        # epoch 2, on the loop stream
        config = ExperimentConfig(nt=3, nr=1, length=100_000, sparsity=(32,), generator="bpsk",
                                  iterations=5, fading_period=2)
        placed = _spy_on_place(monkeypatch)
        got = draw_run(config, 32, 383)
        assert placed == [(False, False), (True, True)]
        for a, b in zip(got, _reference_draws(config, 32, 383)):
            assert a.tobytes() == b.tobytes()
        # a run with no rejected word is drawn once: emulated up to EMULATED_K, past it by rng.choice
        for k, exact in ((32, False), (experiment.EMULATED_K, False), (experiment.EMULATED_K + 1, True)):
            placed.clear()
            draw_run(config, k, 0)
            assert placed == [(True, exact)], k

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

    @pytest.mark.parametrize("run", [-1, 1.5, True])
    def test_draw_run_refuses_a_run_that_is_not_a_count(self, run):
        # a run index is a count, by the rule k follows: no bool, float or negative
        config = ExperimentConfig(length=L, iterations=5)
        with pytest.raises(ValueError, match=r"^run: "):
            draw_run(config, 1, run)


def _training(kind, samples, seed):
    """``samples`` training draws of one transmit antenna; the cold start's zero is left out."""
    config = ExperimentConfig(nt=1, nr=1, length=1, sparsity=(1,), generator=kind,
                              iterations=samples + 1, seed=seed)
    return draw_run(config, 1, 0)[1][1:, 0]


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

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_unit_power(self, kind):
        draws = _training(kind, 100_000, seed=1)
        assert np.mean(draws**2) == pytest.approx(1.0, rel=0.02)

    @pytest.mark.parametrize(
        "kind,fading_period,nt",
        [pytest.param(kind, period, 2, id=f"{kind}-{period}") for kind in GENERATOR_KINDS for period in (None, 43)]
        # 3 bpsk words an iteration: every loop-stream epoch starts on a spare word
        + [pytest.param("bpsk", 20, 3, id="bpsk-20-nt3")]
        # 4 an iteration, the benchmark's fading shape: no training word is left
        # over at an epoch start, so each spare comes from the link words
        + [pytest.param("bpsk", 20, 4, id="bpsk-20-nt4")],
    )
    def test_stream_layout_is_the_per_iteration_order(self, kind, fading_period, nt):
        # 200 iterations span four ofdm blocks; with a period of 43 the
        # fading redraw at 129 and the ofdm block at 129 fall together
        config = ExperimentConfig(nt=nt, nr=3, length=4, sparsity=(2,), generator=kind,
                                  iterations=200, fading_period=fading_period)
        got = draw_run(config, 2, 5)
        expected = _reference_draws(config, 2, 5)
        assert [a.shape for a in got] == [a.shape for a in expected]
        # redraws at 43, 86, 129, 172, or every 20
        assert len(got[0]) == {None: 1, 43: 5, 20: 10}[fading_period]
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


def _noise_only_run(snr_db, seed, iterations=20_000):
    config = ExperimentConfig(nt=1, nr=1, length=1, sparsity=(1,), snr_db=(snr_db,), mu=(1.0,),
                              generator="bpsk", iterations=iterations, seed=seed)
    _, training, noise = draw_run(config, 1, 0)
    squared = run_single([(np.zeros((1, 1, 1)), training, noise)], config, "nlms")
    assert np.isfinite(squared).all()
    return squared[0, 0]


class TestSystemOutput:
    def test_identity_channel_passes_sample_through(self):
        # noiseless y(1) = s(1): a single NLMS step with mu=1 from the
        # all-zero cold start then recovers the channel up to NLMS_DELTA
        config = ExperimentConfig(nt=1, nr=1, length=3, sparsity=(1,), snr_db=(math.inf,), mu=(1.0,),
                                  iterations=5)
        _, training, noise = draw_run(config, 1, 0)
        squared = run_single([(np.array([[[1.0, 0.0, 0.0]]]), training, noise)], config, "nlms")
        assert np.isfinite(squared).all()
        assert squared[0, 0, 0] == 1.0
        assert np.all(squared[0, 0, 1:] < 1e-20)
