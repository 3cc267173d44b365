"""Reference formulas the tests check the update rules against, written once."""

import numpy as np


def l0_approx_norm(h, beta):
    """Smooth nonzero-count surrogate ``sum(1 - exp(-beta * |h_i|))``."""
    return float(np.sum(1.0 - np.exp(-beta * np.abs(np.asarray(h, dtype=float)))))


def l0_exponential_attractor(h, beta):
    """Exact gradient of :func:`l0_approx_norm`: ``beta * sgn(h) * exp(-beta |h|)``."""
    h = np.asarray(h, dtype=float)
    return beta * np.sign(h) * np.exp(-beta * np.abs(h))
