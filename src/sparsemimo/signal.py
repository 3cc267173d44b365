"""Training signals and the SNR convention.

A run draws one real training sample per transmit antenna per iteration,
of one of the ``GENERATOR_KINDS``:

* ``gaussian`` -- zero-mean unit-power normal samples (default).
* ``bpsk``     -- equiprobable +/-1.
* ``ofdm``     -- real parts of unitary-IDFT time samples of random
  unit-modulus QPSK symbols on ``SUBCARRIERS`` subcarriers, one block per
  ``SUBCARRIERS`` iterations, consumed in time order. The real part
  carries half of the complex power, so it is scaled by sqrt(2) to unit
  power like the other kinds.

:func:`sparsemimo.experiment.draw_run` draws a run's whole training stream
up front, as an ``(iterations, nt)`` array. The regressor of iteration
``n`` is a window onto it: the ``(nt, L)`` samples ``n, n-1, ..., n-L+1``
of each antenna, newest first and zero before the start, read as one
``nt * L`` vector in transmit order. The received sample of antenna ``r``
is ``rows[r] @ x`` plus white Gaussian noise of variance ``1 / SNR``.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "GENERATOR_KINDS",
    "ofdm_time_samples",
    "snr_to_variance",
]

GENERATOR_KINDS = ("gaussian", "bpsk", "ofdm")
SUBCARRIERS = 64


def ofdm_time_samples(freq_symbols) -> np.ndarray:
    """Unitary inverse DFT of blocks of frequency-domain symbols, along the last axis.

    The 1/sqrt(C) scaling preserves total power (Parseval), so unit-power
    frequency symbols yield unit average power in the time domain.
    """
    symbols = np.asarray(freq_symbols, dtype=np.complex128)
    if symbols.ndim == 0 or symbols.shape[-1] == 0:
        raise ValueError("freq_symbols must hold non-empty blocks along its last axis")
    return np.fft.ifft(symbols, axis=-1) * math.sqrt(symbols.shape[-1])


def snr_to_variance(snr_db: float) -> float:
    """Noise power for a given SNR in dB at unit signal power; ``inf`` maps to the noiseless 0."""
    return 1.0 / 10.0 ** (snr_db / 10.0)
