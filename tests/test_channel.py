"""Tests for sparse channel generation and MIMO assembly."""

import math

import numpy as np
import pytest

from sparsemimo.channel import assemble_mimo_channel

L = 16


def generate_sparse_channel(length, sparsity, rng):
    """One link's ``length`` taps: the channel of one antenna pair."""
    return assemble_mimo_channel(1, 1, length, sparsity, rng)[0]


@pytest.mark.parametrize("sparsity", [1, 4, 16])
def test_unit_norm_and_support(sparsity):
    rng = np.random.default_rng(3)
    taps = generate_sparse_channel(L, sparsity, rng)
    assert taps.shape == (L,)
    assert taps.dtype == np.float64
    assert np.flatnonzero(taps).size == sparsity
    assert np.sum(taps**2) == pytest.approx(1.0, abs=1e-12)


def test_support_positions_cover_all_indices():
    # over many draws every tap index should occur in some support
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(300):
        seen.update(np.flatnonzero(generate_sparse_channel(L, 2, rng)).tolist())
    assert seen == set(range(L))


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

    def standard_normal(self, size):
        self.gaussian_calls += 1
        self.log.append(("normal", size))
        if self.gaussian_calls == self.zero_call:
            return np.zeros(size)
        return self.gaussian_calls + np.arange(size, dtype=float)


def test_exact_zero_draws_are_redrawn():
    rng = _ZeroAtRng(zero_call=1)
    taps = generate_sparse_channel(8, 3, rng)
    assert rng.gaussian_calls == 2
    assert np.count_nonzero(taps) == 3
    assert np.sum(taps**2) == pytest.approx(1.0, abs=1e-12)


def test_zero_draw_in_a_middle_link_redraws_only_that_link():
    # 3x3 links, K=2: link 4 is the middle one and takes Gaussian draw 5
    rng = _ZeroAtRng(zero_call=5)
    rows = assemble_mimo_channel(3, 3, 4, 2, rng)
    link = ["choice", ("normal", 2)]
    assert rng.log == link * 4 + link + [("normal", 2)] + link * 4
    # links 0..3 take draws 1..4, link 4 its redraw 6, links 5..8 draws 7..10
    for index, draw in enumerate([1, 2, 3, 4, 6, 7, 8, 9, 10]):
        rx, tx = divmod(index, 3)
        expected = np.zeros(4)
        expected[:2] = [draw, draw + 1]
        expected /= math.sqrt(expected @ expected)
        assert rows[rx, tx * 4:(tx + 1) * 4].tobytes() == expected.tobytes(), index


@pytest.mark.parametrize("sparsity", [0, 17, -1])
def test_sparsity_out_of_range_rejected(sparsity):
    with pytest.raises(ValueError):
        generate_sparse_channel(L, sparsity, np.random.default_rng(0))


def _raw_rows(nt, nr, length, sparsity, rng):
    """The channel from raw rng calls in a plain loop, rx outer and tx inner."""
    rows = np.zeros((nr, nt * length))
    for rx in range(nr):
        for tx in range(nt):
            positions = rng.choice(length, size=sparsity, replace=False)
            values = rng.standard_normal(sparsity)
            assert values.all()  # no exact-zero draw at these seeds
            scale = math.sqrt(values @ values)
            for position, value in zip(positions.tolist(), values.tolist()):
                rows[rx, tx * length + position] = value / scale
    return rows


@pytest.mark.parametrize(
    "nt,nr,length,sparsity",
    [(1, 1, 16, 4), (1, 1, 16, 16), (2, 3, 1, 1), (3, 2, 5, 5), (4, 4, 64, 4), (4, 4, 64, 64)],
)
def test_assemble_matches_raw_draws(nt, nr, length, sparsity):
    for seed in range(60):
        rng, raw_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = assemble_mimo_channel(nt, nr, length, sparsity, rng)
        assert rows.tobytes() == _raw_rows(nt, nr, length, sparsity, raw_rng).tobytes(), seed
        # both consumed the same stretch of the stream
        assert rng.bit_generator.state == raw_rng.bit_generator.state


@pytest.mark.parametrize("nt,nr", [(2, 2), (2, 4), (1, 1)])
def test_assemble_grid_shape_and_energy(nt, nr):
    rows = assemble_mimo_channel(nt, nr, L, 4, np.random.default_rng(9))
    assert rows.shape == (nr, nt * L)
    assert rows.dtype == np.float64
    assert np.sum(rows**2) == pytest.approx(nr * nt, abs=1e-9)


def test_assemble_rejects_bad_antenna_counts():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        assemble_mimo_channel(0, 2, L, 1, rng)
    with pytest.raises(ValueError):
        assemble_mimo_channel(2, 0, L, 1, rng)

