"""Training signals and the SNR convention.

A run draws one real training sample per transmit antenna per iteration.
The regressor is the ``(nt, L)`` window of each antenna's last ``L``
samples, newest first, read as one ``nt * L`` vector in transmit order;
the received sample of antenna ``r`` is ``rows[r] @ x`` plus white Gaussian
noise of variance ``1 / SNR``.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "GENERATOR_KINDS",
    "TrainingGenerator",
    "ofdm_time_samples",
    "snr_to_variance",
]

GENERATOR_KINDS = ("gaussian", "bpsk", "ofdm")
SUBCARRIERS = 64


def ofdm_time_samples(freq_symbols) -> np.ndarray:
    """Unitary inverse DFT of one block of frequency-domain symbols.

    The 1/sqrt(C) scaling preserves total power (Parseval), so unit-power
    frequency symbols yield unit average power in the time domain.
    """
    symbols = np.asarray(freq_symbols, dtype=np.complex128)
    if symbols.ndim != 1 or symbols.size == 0:
        raise ValueError("freq_symbols must be a non-empty 1-D vector")
    return np.fft.ifft(symbols) * math.sqrt(symbols.size)


class TrainingGenerator:
    """Draws one real training sample per transmit antenna per call.

    Kinds:

    * ``gaussian`` -- zero-mean unit-power normal samples (default).
    * ``bpsk``     -- equiprobable +/-1.
    * ``ofdm``     -- real parts of unitary-IDFT time samples of random
      unit-modulus QPSK symbols on ``SUBCARRIERS`` subcarriers, consumed
      sequentially one block at a time. The real part carries half of the
      complex power, so it is scaled by sqrt(2) to unit power like the
      other kinds.
    """

    def __init__(self, kind: str, nt_count: int, rng: np.random.Generator):
        if kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown training generator {kind!r}; expected one of {GENERATOR_KINDS}")
        if nt_count < 1:
            raise ValueError("nt_count must be at least 1")
        self.kind = kind
        self.nt_count = nt_count
        self._rng = rng
        self._block = None
        self._cursor = 0

    def next(self) -> np.ndarray:
        """One new sample per transmit antenna, shape ``(nt_count,)``."""
        rng = self._rng
        if self.kind == "gaussian":
            return rng.standard_normal(self.nt_count)
        if self.kind == "bpsk":
            return rng.integers(0, 2, self.nt_count) * 2.0 - 1.0
        if self._block is None or self._cursor >= SUBCARRIERS:
            self._refill()
        column = self._block[:, self._cursor]
        self._cursor += 1
        return column

    def _refill(self):
        re = self._rng.integers(0, 2, (self.nt_count, SUBCARRIERS)) * 2.0 - 1.0
        im = self._rng.integers(0, 2, (self.nt_count, SUBCARRIERS)) * 2.0 - 1.0
        symbols = (re + 1j * im) / math.sqrt(2.0)
        block = np.stack([ofdm_time_samples(symbols[i]) for i in range(self.nt_count)])
        self._block = block.real * math.sqrt(2.0)
        self._cursor = 0


def snr_to_variance(snr_db: float, signal_power: float = 1.0) -> float:
    """Noise power for a given SNR in dB; ``inf`` maps to the noiseless 0."""
    return signal_power / 10.0 ** (snr_db / 10.0)
