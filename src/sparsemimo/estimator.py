"""Adaptive update rules for identifying one MISO channel row.

The rules are one pure array function, ``update(hyper, h, x, e, energy) -> h``:
it takes the current estimate ``h``, the regressor ``x``, the a-priori
error ``e = y - h @ x`` and the regressor energy ``energy = x @ x``, and
returns the next estimate. ``hyper.algorithm`` picks the rule, one branch
each; ``lms`` ignores ``energy``. A run holds the energies of a whole block
of regressors at once, so the caller always hands one in. The rule
broadcasts over leading batch axes: ``h`` may be a ``(..., N)`` stack of
estimates with ``e`` shaped ``(..., 1)``, ``x`` and ``energy`` broadcasting
against ``h`` and ``e``, and ``mu``/``lambda_lp``/``lambda_l0`` arrays that
broadcast against ``e``; each row then gets the bits it gets alone.

* ``lms``      plain stochastic gradient,   h += mu * e * x
* ``nlms``     step normalized by the regressor energy,
               h += mu * e * x / (NLMS_DELTA + x.x)
* ``lp_nlms``  NLMS minus a fractional-norm zero attractor scaled by
               rho_lp = mu * lambda_lp
* ``l0_nlms``  NLMS minus a piecewise-linear attractor acting only on taps
               inside the band |h| <= 1/beta, scaled by rho_l0

The sparse variants subtract the gradient of their sparsity penalty,
evaluated at the pre-update estimate, so small taps are dragged toward
zero while dominant taps are left to the normalized gradient step. The
smooth exponential attractor (the exact penalty gradient that the
piecewise rule approximates), its penalty and the one-row Lp norm live in
the tests, as oracles.

Neither :class:`HyperParams`, :func:`update` nor the attractors it calls
validate the knobs or check the result for finiteness: ``ExperimentConfig``
validates the knobs once, and a run checks its squared errors once per
block of iterations.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ALGORITHMS",
    "NLMS_DELTA",
    "HyperParams",
    "update",
]

ALGORITHMS = ("lms", "nlms", "lp_nlms", "l0_nlms")

# Keeps the all-zero cold-start regressor from dividing by zero.
NLMS_DELTA = 1e-12


@dataclass(frozen=True)
class HyperParams:
    """Full description of one update rule: its name and its knobs.

    ``lambda_lp``/``lambda_l0`` weigh the sparsity penalties; the effective
    attractor strengths are ``rho_lp = mu * lambda_lp`` and
    ``rho_l0 = mu * lambda_l0``. ``p`` is the fractional norm exponent,
    ``epsilon`` guards the attractor denominator near zero taps, and
    ``1/beta`` is the half-width of the piecewise attractor's active band.
    """

    algorithm: str = "nlms"
    mu: float = 0.5
    lambda_lp: float = 0.0
    lambda_l0: float = 0.0
    p: float = 0.45
    epsilon: float = 0.02
    beta: float = 15.0

    @cached_property
    def rho_lp(self) -> float:
        return self.mu * self.lambda_lp

    @cached_property
    def rho_l0(self) -> float:
        return self.mu * self.lambda_l0


def lp_attractor(h, p: float, epsilon: float) -> np.ndarray:
    """Zero-attractor of the fractional-norm penalty, evaluated elementwise.

    Component i is ``||h||_p^(1-p) * sgn(h_i) / (epsilon + |h_i|^(1-p))``
    with sgn(0) = 0; ``epsilon > 0`` removes the singularity of vanishing
    taps.
    """
    magnitude = np.abs(h)
    sums = np.add.reduce(magnitude ** p, axis=-1, keepdims=True)
    # both norm powers per row as np.float_power, which gives the bits of
    # Python's scalar float ** float; numpy's array ** rounds some values
    # differently, and the goldens pin these bits
    scale = np.float_power(np.float_power(sums, 1.0 / p), 1.0 - p)
    return scale * np.sign(h) / (epsilon + magnitude ** (1.0 - p))


def j_attractor(h, beta: float) -> np.ndarray:
    """First-order approximation of twice the exponential attractor.

    ``2*beta*sgn(h_i) - 2*beta**2*h_i`` inside the band ``|h_i| <= 1/beta``
    and zero outside; continuous at the band edge. Subtracting a small
    positive multiple of this vector shrinks in-band taps toward zero
    without flipping their sign and leaves out-of-band taps untouched.
    """
    inside = np.abs(h) <= 1.0 / beta
    return np.where(inside, 2.0 * beta * np.sign(h) - 2.0 * beta**2 * h, 0.0)


def update(hyper: HyperParams, h: np.ndarray, x: np.ndarray, e: float,
           energy: float | np.ndarray) -> np.ndarray:
    """The next estimate under the rule ``hyper.algorithm`` names; ``ValueError`` for another name."""
    algorithm = hyper.algorithm
    if algorithm == "lms":
        return h + hyper.mu * e * x
    # the grouping is part of the pinned output: regrouping moves CSV bits
    step = h + (hyper.mu * e / (NLMS_DELTA + energy)) * x
    if algorithm == "nlms":
        return step
    if algorithm == "lp_nlms":
        return step - hyper.rho_lp * lp_attractor(h, hyper.p, hyper.epsilon)
    if algorithm == "l0_nlms":
        return step - hyper.rho_l0 * j_attractor(h, hyper.beta)
    raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
