"""Reference formulas the tests check the channel draws, the update rules and the runs against, written once."""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def raw_rows(nt, nr, length, sparsity, rng):
    """The ``(nr, nt * L)`` channel from raw rng calls in a plain loop, rx outer and tx inner."""
    rows = np.zeros((nr, nt * length))
    for rx in range(nr):
        for tx in range(nt):
            positions = rng.choice(length, size=sparsity, replace=False)
            values = rng.standard_normal(sparsity)
            assert values.all()  # no exact-zero draw at the seeds the tests use
            scale = math.sqrt(values @ values)
            for position, value in zip(positions.tolist(), values.tolist()):
                rows[rx, tx * length + position] = value / scale
    return rows


def l0_approx_norm(h, beta):
    """Smooth nonzero-count surrogate ``sum(1 - exp(-beta * |h_i|))``."""
    return float(np.sum(1.0 - np.exp(-beta * np.abs(np.asarray(h, dtype=float)))))


def l0_exponential_attractor(h, beta):
    """Exact gradient of :func:`l0_approx_norm`: ``beta * sgn(h) * exp(-beta |h|)``."""
    h = np.asarray(h, dtype=float)
    return beta * np.sign(h) * np.exp(-beta * np.abs(h))


def _sign(value):
    return (value > 0.0) - (value < 0.0)


def reference_step(algorithm, h, x, e, energy, mu, lambda_lp, lambda_l0, p, epsilon, beta):
    """One rule's next estimate, tap by tap on Python floats, from the pre-update ``h``.

    NLMS scales ``mu * e`` by ``1 / (1e-12 + energy)``, LMS not at all; Lp-NLMS
    then subtracts ``mu * lambda_lp`` times ``||h||_p^(1-p) sgn(h_i) / (epsilon + |h_i|^(1-p))``,
    and L0-NLMS ``mu * lambda_l0`` times ``2 beta sgn(h_i) - 2 beta^2 h_i`` inside
    ``|h_i| <= 1/beta`` and nothing outside it.
    """
    gain = mu * e if algorithm == "lms" else mu * e / (1e-12 + energy)
    out = [hi + gain * xi for hi, xi in zip(h, x)]
    if algorithm == "lp_nlms":
        scale = (sum(abs(hi) ** p for hi in h) ** (1.0 / p)) ** (1.0 - p)
        out = [o - mu * lambda_lp * scale * _sign(hi) / (epsilon + abs(hi) ** (1.0 - p))
               for o, hi in zip(out, h)]
    elif algorithm == "l0_nlms":
        out = [o - mu * lambda_l0 * (2.0 * beta * _sign(hi) - 2.0 * beta**2 * hi if abs(hi) <= 1.0 / beta else 0.0)
               for o, hi in zip(out, h)]
    return out


def reference_squared_errors(draws, config, algorithm, snr_db, mu):
    """One run of one cell on Python floats: its squared error per iteration.

    Takes only the draws of ``draw_run`` and recomputes the rest: the
    regressor of iteration n, tap ``t * L + l`` antenna t's training sample
    n - l (zero before the start); each received sample as the convolution of
    the training history with the link taps, plus ``0.0 + std * z``; each
    rule's step by :func:`reference_step`, with an unset regularizer weight
    ``1e-4`` (Lp) or ``1e-3`` (L0) times the noise power ``10^(-snr/10)``.
    Entry n sums ``||h_r - hhat_r||^2`` over the receive antennas r after
    iteration n's update, against the channel epoch in force; entry 0 is the
    all-zero cold start.
    """
    channels, training, noise = (array.tolist() for array in draws)
    nt, nr, length = config.nt, config.nr, config.length
    period = config.fading_period or config.iterations
    variance = 10.0 ** (-snr_db / 10.0)
    std = math.sqrt(variance)
    knobs = dict(
        lambda_lp=1e-4 * variance if config.lambda_lp is None else config.lambda_lp,
        lambda_l0=1e-3 * variance if config.lambda_l0 is None else config.lambda_l0,
        p=config.p, epsilon=config.epsilon, beta=config.beta,
    )
    estimates = [[0.0] * (nt * length) for _ in range(nr)]
    squared = [sum(tap * tap for row in channels[0] for tap in row)]
    for n in range(1, config.iterations):
        rows = channels[n // period]
        x = [training[n - l][t] if l <= n else 0.0 for t in range(nt) for l in range(length)]
        energy = sum(v * v for v in x)
        for r in range(nr):
            clean = sum(rows[r][t * length + l] * training[n - l][t]
                        for t in range(nt) for l in range(min(n + 1, length)))
            e = clean + (0.0 + std * noise[n][r]) - sum(hi * xi for hi, xi in zip(estimates[r], x))
            estimates[r] = reference_step(algorithm, estimates[r], x, e, energy, mu, **knobs)
        squared.append(sum((a - b) ** 2 for row, estimate in zip(rows, estimates) for a, b in zip(row, estimate)))
    return squared


def support_oracle_squared_errors(draws, config, snr_db, mu):
    """Each realization's squared error per iteration under the support oracle, ``(realizations, iterations)``.

    The oracle is NLMS that knows each link's support: a step updates only the
    taps where the channel epoch in force is nonzero, scaled by
    ``mu * e / (1e-12 + energy)`` of the whole regressor's energy (the support
    part's alone has an infinite mean at nt * K = 2 taps). Regressors, noise
    and entries are those of :func:`reference_squared_errors`, on arrays
    stacked over the realizations of ``draws``; the a-priori error is
    ``(h - hhat) @ x`` plus the noise, equal to it up to rounding.
    """
    channels, training, noise = (np.stack(arrays) for arrays in zip(*draws))
    count, iterations, nt = training.shape
    length, period = config.length, config.fading_period or config.iterations
    std = math.sqrt(10.0 ** (-snr_db / 10.0))
    # regressor n: tap t * L + l is antenna t's sample n - l, zero before the start
    padded = np.concatenate([np.zeros((count, length - 1, nt)), training], axis=1)
    xs = sliding_window_view(padded, length, axis=1)[..., ::-1].reshape(count, iterations, nt * length)
    estimates = np.zeros_like(channels[:, 0])
    squared = np.empty((count, iterations))
    squared[:, 0] = np.sum(channels[:, 0] ** 2, axis=(1, 2))
    for n in range(1, iterations):
        h, x = channels[:, n // period], xs[:, n, None, :]
        e = np.sum((h - estimates) * x, axis=2) + std * noise[:, n]
        estimates += (h != 0.0) * (mu * e / (1e-12 + np.sum(x * x, axis=2)))[:, :, None] * x
        squared[:, n] = np.sum((h - estimates) ** 2, axis=(1, 2))
    return squared
