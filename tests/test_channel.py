"""Tests for sparse channel generation and MIMO assembly."""

import numpy as np
import pytest

from sparsemimo.channel import assemble_mimo_channel, generate_sparse_channel

L = 16


@pytest.mark.parametrize("sparsity", [1, 4, 16])
def test_unit_norm_and_support(sparsity):
    rng = np.random.default_rng(3)
    taps = generate_sparse_channel(L, sparsity, rng)
    assert taps.shape == (L,)
    assert taps.dtype == np.float64
    assert np.flatnonzero(taps).size == sparsity
    assert np.sum(taps**2) == pytest.approx(1.0, abs=1e-12)


def test_one_sparse_tap_has_unit_magnitude():
    rng = np.random.default_rng(11)
    taps = generate_sparse_channel(L, 1, rng)
    assert abs(taps[np.flatnonzero(taps)[0]]) == pytest.approx(1.0, abs=1e-12)


def test_generation_is_bit_reproducible():
    a = generate_sparse_channel(L, 4, np.random.default_rng(42))
    b = generate_sparse_channel(L, 4, np.random.default_rng(42))
    assert a.tobytes() == b.tobytes()


def test_support_positions_cover_all_indices():
    # over many draws every tap index should occur in some support
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(300):
        seen.update(np.flatnonzero(generate_sparse_channel(L, 2, rng)).tolist())
    assert seen == set(range(L))


class _ZeroFirstRng:
    """Stub rng whose first Gaussian draw is all zeros, forcing a redraw."""

    def __init__(self):
        self.gaussian_calls = 0

    def choice(self, n, size, replace):
        assert not replace
        return np.arange(size)

    def standard_normal(self, size):
        self.gaussian_calls += 1
        if self.gaussian_calls == 1:
            return np.zeros(size)
        return np.ones(size)


def test_exact_zero_draws_are_redrawn():
    rng = _ZeroFirstRng()
    taps = generate_sparse_channel(8, 3, rng)
    assert rng.gaussian_calls == 2
    assert np.count_nonzero(taps) == 3
    assert np.sum(taps**2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("sparsity", [0, 17, -1])
def test_sparsity_out_of_range_rejected(sparsity):
    with pytest.raises(ValueError):
        generate_sparse_channel(L, sparsity, np.random.default_rng(0))


def _links(nt, nr, length, sparsity, seed):
    """The links drawn one by one from the same seed, ``links[rx][tx]``."""
    rng = np.random.default_rng(seed)
    return [[generate_sparse_channel(length, sparsity, rng) for _ in range(nt)] for _ in range(nr)]


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


def test_miso_row_is_transmit_major_concatenation():
    rows = assemble_mimo_channel(2, 4, L, 3, np.random.default_rng(17))
    # independent construction: the links drawn rx outer, tx inner, then
    # concatenated per receive antenna in plain python
    links = _links(2, 4, L, 3, 17)
    for rx in range(4):
        expected = np.concatenate([links[rx][tx] for tx in range(2)])
        assert rows[rx].shape == (2 * L,)
        assert np.array_equal(rows[rx], expected)


def test_miso_row_index_formula():
    rows = assemble_mimo_channel(3, 2, 5, 2, np.random.default_rng(23))
    links = _links(3, 2, 5, 2, 23)
    for rx in range(2):
        for tx in range(3):
            for l in range(5):
                assert rows[rx, tx * 5 + l] == links[rx][tx][l]


def test_miso_row_single_antenna_is_the_link():
    rows = assemble_mimo_channel(1, 1, L, 2, np.random.default_rng(2))
    assert np.array_equal(rows[0], generate_sparse_channel(L, 2, np.random.default_rng(2)))
