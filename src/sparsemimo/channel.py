"""Sparse multipath channel generation for MIMO system identification.

Every transmit/receive antenna pair is linked by an ``L``-tap impulse
response carrying exactly ``K`` nonzero (dominant) taps at random positions.
Each link is rescaled to unit energy so the received SNR is governed solely
by the configured noise variance.

A MIMO channel is one ``(nr, nt * L)`` float64 array. Row ``r`` is the MISO
row that receive antenna ``r`` identifies: its links concatenated in
transmit-antenna order, so ``rows[r, t * L + l]`` is tap ``l`` of the link
from transmit antenna ``t``. The support of a link is
``np.flatnonzero(taps)``.
"""
from __future__ import annotations

import numpy as np

__all__ = ["assemble_mimo_channel"]


def assemble_mimo_channel(
    nt: int, nr: int, length: int, sparsity: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw all nr*nt links independently (rx outer, tx inner); ``(nr, nt * L)`` rows.

    A link's K positions are uniform without replacement and its values
    standard Gaussian. Only the draws run link by link, in stream order,
    into preallocated ``(links, K)`` arrays; every link is then normalised
    and placed in one array step.
    """
    if nt < 1 or nr < 1:
        raise ValueError("antenna counts must be at least 1")
    if not 1 <= sparsity <= length:
        raise ValueError(f"sparsity must be in [1, {length}], got {sparsity}")
    links = nr * nt
    positions = np.empty((links, sparsity), dtype=np.intp)
    values = np.empty((links, sparsity))
    for i in range(links):
        positions[i] = rng.choice(length, size=sparsity, replace=False)
        link = values[i]
        link[:] = rng.standard_normal(sparsity)
        # an exact-zero draw would silently shrink the support; redraw it
        # (a list's all() tests the same truth as link.all(), for less)
        while not all(link.tolist()):
            zero = link == 0.0
            link[zero] = rng.standard_normal(int(zero.sum()))
    # np.vecdot gives each row the bits of the 1-D ``link @ link``
    values /= np.sqrt(np.vecdot(values, values))[:, None]
    taps = np.zeros((links, length))
    taps[np.arange(links)[:, None], positions] = values
    return taps.reshape(nr, nt * length)
