"""Seeded Monte-Carlo learning-curve experiments over a parameter grid.

A grid cell is one (algorithm, snr, mu, K) combination at fixed antenna
counts. Channel, training, and noise realizations for run ``r`` are derived
from the master seed and the data-relevant cell parameters only, so every
algorithm, step size, and SNR sees the same realizations within a run
index (paired common random numbers) and any cell can be re-run in
isolation, bit-identically, regardless of scheduling or worker count.
The module also defines what a run draws: the sparse channel and training
``GENERATOR_KINDS`` of :func:`draw_run`, and the SNR convention of
:func:`snr_to_variance`. A channel is an ``(nr, nt * L)`` array, row ``r``
receive antenna ``r``'s MISO row: ``rows[r, t * L + l]`` is tap ``l`` from
transmit antenna ``t``. Each link has K nonzero taps (``np.flatnonzero``),
uniform positions, Gaussian values, no exact zero, and unit energy.

The module's map: :class:`ExperimentConfig` validates a grid once and
names its cells; :func:`draw_run` draws one run's channel, training and
noise; :func:`run_single` advances one rule over several realizations and
cells; :func:`run_grid` runs every run index and folds each cell's
surviving runs into a :class:`GridResult` of learning curves.
"""
from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .estimator import ALGORITHMS, HyperParams, update

__all__ = [
    "GENERATOR_KINDS",
    "LAMBDA_LP_NOISE_RATIO",
    "LAMBDA_L0_NOISE_RATIO",
    "CellKey",
    "ExperimentConfig",
    "GridResult",
    "draw_run",
    "first_iteration_below",
    "run_grid",
    "run_single",
    "snr_to_variance",
    "steady_state_mse",
]

# Default regularizer-to-noise-power ratios used when no explicit weight is given.
LAMBDA_LP_NOISE_RATIO = 1e-4
LAMBDA_L0_NOISE_RATIO = 1e-3
TAIL_FRACTION = 0.2  # final share of a trace that steady_state_mse averages
BLOCK = 64  # iterations run_single advances per array block
EMULATED_K = 48  # largest K whose supports draw_run takes from raw words; rng.choice is as fast past it
GENERATOR_KINDS = ("gaussian", "bpsk", "ofdm")
SUBCARRIERS = 64

_STREAM_CHANNEL = 0
_STREAM_LOOP = 1


class CellKey(NamedTuple):
    """Identity of one grid cell."""

    algorithm: str
    snr_db: float
    mu: float
    k: int
    nt: int
    nr: int


def _count(key: str, value, floor: int = 1, ceiling: float = math.inf) -> int:
    """``value``, an integer of any type (numpy's too), as an ``int`` in ``[floor, ceiling]``.

    A float fails, even a whole one, and so does a bool; each failure raises
    a ``ValueError`` that names ``key``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{key}: must be an integer, got {value!r}")
    count = int(value)
    if not floor <= count <= ceiling:
        bounds = f"at least {floor}" if ceiling == math.inf else f"in [{floor}, {ceiling}]"
        raise ValueError(f"{key}: must be {bounds}, got {count}")
    return count


def _real(key: str, value) -> float:
    """``value``, a real number of any type (numpy's too) but a bool, as a ``float``; else a ``ValueError`` naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{key}: must be a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid definition plus shared simulation parameters.

    This is the one place the parameters are validated, every count by one
    rule that stores it as an ``int`` and every real knob by one that
    stores it as a ``float``; the update rules and :class:`HyperParams`
    trust what it resolves.

    SNR convention: ``snr_db`` sets the noise variance ``1 / SNR`` on each
    receive antenna. Training has unit power per transmit antenna and every
    link unit energy, so the clean received power per antenna is ``nt``;
    the per-antenna received SNR is therefore ``nt * SNR``.

    ``lambda_lp``/``lambda_l0`` of ``None`` select the default rule of
    scaling the regularizers with the per-cell noise power; explicit
    values are used verbatim in every cell. ``fading_period`` of ``None``
    keeps the channel static within a run; a positive value redraws it
    every that many iterations.
    """

    nt: int = 2
    nr: int = 2
    length: int = 16
    sparsity: tuple[int, ...] = (1, 4)
    snr_db: tuple[float, ...] = (5.0, 10.0, 15.0)
    mu: tuple[float, ...] = (0.5, 1.0)
    algorithms: tuple[str, ...] = ("nlms", "lp_nlms", "l0_nlms")
    runs: int = 1000
    iterations: int = 2000
    seed: int = 1
    generator: str = "gaussian"
    lambda_lp: float | None = None
    lambda_l0: float | None = None
    p: float = HyperParams.p
    epsilon: float = HyperParams.epsilon
    beta: float = HyperParams.beta
    fading_period: int | None = None

    def __post_init__(self):
        for name in ("sparsity", "snr_db", "mu", "algorithms"):
            given, key = getattr(self, name), "k" if name == "sparsity" else name
            try:
                value = () if isinstance(given, str) else tuple(given)  # a str would split into letters
            except TypeError:
                value = ()
            if not value:
                raise ValueError(f"{key}: must be a non-empty sequence of values, got {given!r}")
            if name in ("snr_db", "mu"):
                value = tuple(_real(name, v) for v in value)
            object.__setattr__(self, name, value)
        # one rule for every real knob: a float, so the manifest's JSON holds
        # numpy's floats too; only a regularizer weight may be None
        for name in ("p", "epsilon", "beta", "lambda_lp", "lambda_l0"):
            if getattr(self, name) is not None or not name.startswith("lambda_"):
                object.__setattr__(self, name, _real(name, getattr(self, name)))
        # one rule for every count; only the seed may be 0, and only the fading period None
        for name in ("nt", "nr", "length", "runs", "iterations", "seed", "fading_period"):
            value = getattr(self, name)
            if value is not None or name != "fading_period":
                object.__setattr__(self, name, _count(name, value, 0 if name == "seed" else 1))
        object.__setattr__(self, "sparsity", tuple(_count("k", k, 1, self.length) for k in self.sparsity))
        for snr in self.snr_db:
            snr_to_variance(snr)
        for m in self.mu:
            if not 0 < m < 2:
                raise ValueError(f"mu: step sizes must lie in (0, 2), got {m}")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ValueError(f"algorithms: unknown algorithm {a!r}; expected one of {ALGORITHMS}")
        if self.generator not in GENERATOR_KINDS:
            raise ValueError(f"generator: unknown kind {self.generator!r}; expected one of {GENERATOR_KINDS}")
        for name in ("lambda_lp", "lambda_l0"):
            lam = getattr(self, name)
            if lam is not None and not 0 <= lam < math.inf:
                raise ValueError(f"{name}: must be finite and nonnegative, got {lam}")
        if not 0 < self.p <= 1:
            raise ValueError(f"p: must lie in (0, 1], got {self.p}")
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon: must be finite and positive, got {self.epsilon}")
        if not (0 < self.beta and 2.0 * self.beta * self.beta < math.inf):  # beta * beta: inf, where ** raises
            raise ValueError(f"beta: must be positive with 2 * beta**2 finite (up to about 9.48e153), got {self.beta}")
        # a repeated value would add the same cell's runs twice; checked last, as only a valid value is sure to hash
        for name, value in (("k", self.sparsity), ("snr_db", self.snr_db), ("mu", self.mu), ("algorithms", self.algorithms)):
            if len(set(value)) != len(value):
                raise ValueError(f"{name}: duplicate values in {value}")

    def cell_keys(self) -> list[CellKey]:
        """Every cell, algorithm outer, then K, SNR and step size: the order :func:`run_grid` makes them in."""
        return [CellKey(a, s, m, k, self.nt, self.nr)
                for a in self.algorithms for k in self.sparsity for s in self.snr_db for m in self.mu]


def _realization_seed(config: ExperimentConfig, k: int, run: int, stream: int) -> np.random.SeedSequence:
    # Only data-relevant parameters enter the key: algorithm, mu, and snr
    # are excluded so those axes share realizations (paired comparison).
    return np.random.SeedSequence(
        (
            config.seed,
            config.nt,
            config.nr,
            config.length,
            k,
            GENERATOR_KINDS.index(config.generator),
            config.fading_period or 0,
            run,
            stream,
        )
    )


def snr_to_variance(snr_db: float) -> float:
    """Noise power for a given SNR in dB at unit signal power; ``inf`` maps to the noiseless 0, and any other SNR
    whose power is not finite and positive (NaN, -inf, past about +-3082.5 dB) raises a ``ValueError``."""
    try:
        variance = 1.0 / 10.0 ** (snr_db / 10.0)
    except (OverflowError, ZeroDivisionError):
        variance = math.nan
    if not 0 < variance < math.inf and snr_db != math.inf:
        raise ValueError(f"snr_db: {snr_db} dB has no finite positive noise variance "
                         "(finite SNRs must lie within about +-3082.5 dB; use inf for noiseless)")
    return variance


class _Links:
    """A run's links, drawn into ``taps``, zeroed ``(links, L)``, one row per link in draw order.

    A link's positions are bit for bit ``rng.choice(L, k, replace=False)``'s and
    leave its generator where that call does: ``exact`` links make that call, the
    others emulate numpy's Floyd sampling and shuffle, each draw by Lemire's
    method from a 32-bit word, the low then the high half of a PCG64 output. A
    rejected word (odds below span / 2**32) makes :meth:`place` place nothing.
    """

    def __init__(self, taps: np.ndarray, k: int, exact: bool):
        length = taps.shape[1]
        # each word's span: Floyd's draws in [0, j], j from L - k (j 0 takes none), then its swaps
        self.spans = np.array([*range(max(length - k, 1) + 1, length + 1), *range(k, 1, -1)], dtype=np.uint64)
        self.taps, self.k, self.exact, self.values = taps, k, exact, np.empty((len(taps), k))
        # outputs drawn; each link's rng.choice if exact, else its first word among the outputs' halves
        self.raws, self.outputs, self.supports = [], 0, []

    def draw(self, rng: np.random.Generator, links: int) -> None:
        """The next ``links`` links from ``rng``: each one's support, by ``rng.choice`` if exact, else
        its words in one call as if none is rejected, for :meth:`place` to judge; then its values."""
        bits, count, first, raws = rng.bit_generator, len(self.spans), len(self.supports), self.raws
        if not self.exact:
            spare, has_spare = (state := bits.state)["uinteger"], state["has_uint32"]
            mark, outputs = len(raws), self.outputs + has_spare
            raws.append(np.array([spare << 32] * has_spare, dtype=np.uint64))  # a spare, as an output's high half
        for link in self.values[first:first + links]:
            if self.exact:
                self.supports.append(rng.choice(self.taps.shape[1], self.k, replace=False))
            else:
                self.supports.append(2 * outputs - has_spare)
                raws.append(bits.random_raw(size := (count - has_spare + 1) // 2))
                outputs, has_spare = outputs + size, has_spare + 2 * size - count
            rng.standard_normal(out=link)
            # an exact zero would shrink the support; redraw it (a list's all() is link.all(), for less)
            while not all(link.tolist()):
                zero = link == 0.0
                link[zero] = rng.standard_normal(int(zero.sum()))
        if not self.exact:
            self.outputs = outputs
            # the spare is the high half of the last output drawn, the spare read above if none was
            spare = next((int(drawn[-1] >> 32) for drawn in reversed(raws[mark:]) if drawn.size), spare)
            bits.state = {**bits.state, "uinteger": spare, "has_uint32": has_spare}  # the normal draws moved it

    def place(self) -> bool:
        """Place every link, judging the run's words at once; False, placing none, if a word is rejected."""
        k, length, spans, rows = self.k, self.taps.shape[1], self.spans, np.arange(len(self.taps))
        picks = np.array(self.supports)  # exact links' own; else where each link's words start
        if not self.exact:
            raws = np.concatenate(self.raws)
            words = np.stack([raws & 0xFFFFFFFF, raws >> 32], axis=1).ravel()
            m = words[picks[:, None] + np.arange(len(spans))] * spans
            if ((m & 0xFFFFFFFF) < (1 << 32) % spans).any():
                return False
            draws, drawn = (m >> 32).astype(np.int64), min(k, length - 1)
            picks = np.pad(draws[:, :drawn], ((0, 0), (k - drawn, 0)))
            for t in range(1, k):  # Floyd's draw in [0, j] picks j where an earlier step took it
                picks[(picks[:, :t] == picks[:, t, None]).any(axis=1), t] = length - k + t
            for i, j in zip(range(k - 1, 0, -1), draws[:, drawn:].T):  # numpy's shuffle: slot i swaps with j in [0, i]
                picks[rows, i], picks[rows, j] = picks[rows, j], picks[rows, i]
        # np.vecdot gives each row the bits of the 1-D link @ link
        self.values /= np.sqrt(np.vecdot(self.values, self.values))[:, None]
        self.taps[rows[:, None], picks] = self.values
        return True


def draw_run(config: ExperimentConfig, k: int, run: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every draw of run ``run`` at sparsity ``k``, seeded from the config.

    ``k`` must be an integer in ``[1, L]`` and ``run`` one at least 0,
    else a ``ValueError`` names the one that is not.
    A channel draws its links rx outer, tx inner: K uniform positions
    without replacement, bit for bit ``rng.choice(L, K, replace=False)``'s
    (up to ``EMULATED_K`` from a link's words in one call, judged once the
    run is drawn; past it, or in the redraw a rejected word makes, by that
    call), K standard normal values, again for any exact zero, then
    unit-energy scaling. The first channel comes from the run's channel
    stream; every later draw from its loop stream, in this order per
    iteration ``n >= 1``: a new channel when a fading period starts
    (``n % fading_period == 0``), one training sample per transmit antenna
    and one unit-scale noise sample per receive antenna. Only the config's draw
    parameters are read (seed, antenna counts, L, iterations, generator,
    fading period). A training sample is real, of these kinds:

    * ``gaussian`` -- zero-mean unit-power normal samples (default).
    * ``bpsk``     -- equiprobable +/-1.
    * ``ofdm``     -- real parts of unitary-IDFT time samples of random
      unit-modulus QPSK symbols on ``SUBCARRIERS`` subcarriers, one block
      per ``SUBCARRIERS`` iterations, consumed in time order. The real
      part carries half of the complex power, so it is scaled by sqrt(2)
      to unit power like the other kinds.

    Returns ``(channels, training, noise)``: the channel epochs as an
    ``(epochs, nr, nt * L)`` array, epoch ``e`` in force from iteration
    ``e * fading_period``; the ``(iterations, nt)`` training stream and the
    ``(iterations, nr)`` unit noise, whose row ``n`` is iteration ``n``'s
    draw and row 0 zeros, as the cold start draws nothing: the two column
    blocks (views) of one ``(iterations, nt + nr)`` loop-stream array.
    """
    nt, nr, length, iterations = config.nt, config.nr, config.length, config.iterations
    kind, k, run = config.generator, _count("k", k, 1, length), _count("run", run, 0)
    period = config.fading_period or iterations
    # every epoch's links, placed once the run is drawn; reshaped to (nr, nt * L) rows on return
    channels = np.zeros((1 + (iterations - 1) // period, nr * nt, length))
    stream = np.zeros((iterations, nt + nr))
    training, noise = stream[:, :nt], stream[:, nt:]
    uniforms = np.zeros((iterations, nt), dtype=np.float32) if kind == "bpsk" else None
    # each ofdm block's real, then imaginary, bits in one call: a 32-bit word a bit, as two calls draw them
    ofdm_bits = np.zeros(((iterations + SUBCARRIERS - 2) // SUBCARRIERS, 2, nt, SUBCARRIERS)) if kind == "ofdm" else None
    # the draws change pattern only where a fading period or an ofdm block
    # starts; in between they come in one block, or per iteration for bpsk
    step = SUBCARRIERS if kind == "ofdm" else iterations
    bounds = sorted({*range(1, iterations, step), *range(period, iterations, period)}) + [iterations]
    # past EMULATED_K, or once a support word is rejected, from the seeds by rng.choice; a redraw overwrites every row
    for exact in (k > EMULATED_K, True):
        links = _Links(channels.reshape(-1, length), k, exact)
        links.draw(np.random.default_rng(_realization_seed(config, k, run, _STREAM_CHANNEL)), nr * nt)
        rng = np.random.default_rng(_realization_seed(config, k, run, _STREAM_LOOP))
        for start, stop in zip(bounds[:-1], bounds[1:]):
            if start % period == 0:
                links.draw(rng, nr * nt)
            if kind == "gaussian":
                rng.standard_normal(out=stream[start:stop])
            elif kind == "bpsk":
                # rng.integers(0, 2) is the top bit of one 32-bit word (Lemire's
                # method never rejects for a range of 2), and a float32 uniform
                # is that same word >> 8: the uniform is >= 0.5 exactly when the
                # bit is 1, and both take one word from the stream
                for n in range(start, stop):
                    rng.random(out=uniforms[n], dtype=np.float32)
                    rng.standard_normal(out=noise[n])
            else:
                if (start - 1) % SUBCARRIERS == 0:
                    ofdm_bits[start // SUBCARRIERS] = rng.integers(0, 2, (2, nt, SUBCARRIERS))
                noise[start:stop] = rng.standard_normal((stop - start, nr))  # a column block takes no out=
        if links.place():
            break
    if kind == "bpsk":
        training[1:] = np.where(uniforms[1:] >= 0.5, 1.0, -1.0)
    elif kind == "ofdm":
        re, im = ofdm_bits.swapaxes(0, 1) * 2.0 - 1.0
        blocks = (np.fft.ifft((re + 1j * im) / math.sqrt(2.0), axis=-1) * math.sqrt(SUBCARRIERS)).real * math.sqrt(2.0)
        # (blocks, nt, SUBCARRIERS) -> samples in time order, one row each
        training[1:] = blocks.transpose(0, 2, 1).reshape(-1, nt)[:iterations - 1]
    return channels.reshape(-1, nr, nt * length), training, noise


def run_single(draws: list[tuple[np.ndarray, np.ndarray, np.ndarray]], config: ExperimentConfig,
               algorithm: str) -> np.ndarray:
    """Adaptive identification runs of ``algorithm``, one per realization and cell.

    ``draws`` lists realizations, each what :func:`draw_run` returns for one
    run of ``config``, as the draws of one run index at several K are. The
    cells are the config's (SNR, step size) pairs, SNR outer, in
    ``config.cell_keys()`` order; they leave the draws alone, so
    every cell reads every realization: each cell's noise is
    ``0.0 + std * z`` of the unit noise ``z``, bit for bit what
    ``rng.normal(0.0, std, nr)`` gives; ``draws`` empty or not of the config's
    shapes raises ``ValueError``. A cell's rule takes the config's knobs, its step
    size, and for an unset regularizer weight ``LAMBDA_*_NOISE_RATIO``
    times its noise variance. Returns the ``(realizations, cells,
    iterations)`` squared errors, entry 0 the cold-start error of the
    all-zero estimates and each later entry recorded after that iteration's
    update of every receive antenna's estimate. A pair survived exactly
    when every entry of its curve is finite; the call stops after a block
    in which no pair's error stayed finite, and every entry past that block
    is NaN, so the same draws give the same bytes. Every surviving pair
    comes out bit for bit as it does alone. A subset of cells is
    ``dataclasses.replace(config, snr_db=..., mu=...)``.

    Every estimate is one row of a C-contiguous ``(rows, nt * L)`` array,
    row ``(r * nr + i) * cells + c`` realization ``r``'s antenna ``i`` in
    cell ``c``, and each knob reaches the rule as a ``(rows, 1)`` column.
    The draws are stacked iteration first and the runs advance ``BLOCK``
    iterations at a time, each block a slice: its regressors, copied into
    one row each, their energies, received samples, squared errors and
    finiteness check are array operations, and only the write into
    ``squared`` permutes axes. Per iteration run only the
    a-priori error, into one ``(rows,)`` buffer, and one ``update`` of every
    row through its ``out``, or for a lone pair one call per antenna on
    floats. The block length leaves every bit as it is.
    """
    nt, nr, length, iterations = config.nt, config.nr, config.length, config.iterations
    period = config.fading_period or iterations
    pairs = [(snr, mu) for snr in config.snr_db for mu in config.mu]
    count, cells, taps = len(draws), len(pairs), nt * length
    rows = count * nr * cells
    lone = count * cells == 1
    # each cell's knobs on Python floats, as numpy's array ** can round
    # differently; an unset weight scales with the cell's noise power
    variances = [snr_to_variance(snr) for snr, _ in pairs]
    knobs = {"mu": [mu for _, mu in pairs]}
    for name, ratio in (("lambda_lp", LAMBDA_LP_NOISE_RATIO), ("lambda_l0", LAMBDA_L0_NOISE_RATIO)):
        weight = getattr(config, name)
        knobs[name] = [ratio * v if weight is None else weight for v in variances]
    # each knob a (rows, 1) column, each row its cell's value, which the
    # rule broadcasts; a lone pair's rule takes the one value as a float
    knobs = {name: values[0] if lone else np.tile(values, nr * count)[:, None] for name, values in knobs.items()}
    hyper = HyperParams(algorithm, p=config.p, epsilon=config.epsilon, beta=config.beta, **knobs)
    stds = np.array([math.sqrt(v) for v in variances])
    shapes = ((1 + (iterations - 1) // period, nr, taps), (iterations, nt), (iterations, nr))
    if not draws or any(tuple(np.shape(array) for array in draw) != shapes for draw in draws):
        raise ValueError(f"draws must be channels, training and noise of shapes {shapes}")
    channels, training, noise = (np.stack(arrays, axis=1) for arrays in zip(*draws))
    # the regressor of iteration n holds each antenna's samples n, n-1, ...,
    # n-L+1, zero before the start: a reversed window onto the padded stream
    padded = np.concatenate([np.zeros((length - 1, count, nt)), training])
    windows = sliding_window_view(padded, length, axis=0)[..., ::-1]
    # estimates[j] holds every row's estimate after the block's j-th
    # iteration (estimates[0] carried over) and regressors[j] its regressor;
    # their reshapes by grid index the rows by (realization, antenna, cell)
    estimates = np.zeros((min(BLOCK, iterations) + 1, rows, taps))
    regressors = np.empty((min(BLOCK, iterations), rows, taps))
    grid = (count, nr, cells, taps)
    squared = np.full((count, cells, iterations), np.nan)
    squared[:, :, 0] = [[float(np.sum(h * h))] for h in channels[0]]
    # one iteration's a-priori errors, one per row, and the rule's column
    # view of them, written in place every iteration
    e = np.empty(rows)
    e_column = e[:, None]
    # the per-iteration operands as lists of row views, made once, as
    # indexing a list costs less than indexing an array; a lone pair's
    # estimates per antenna, and its one regressor as a 1-D row
    estimate_rows, regressor_rows = list(estimates), [x[0] if lone else x for x in regressors]
    lone_rows = [list(estimate) for estimate in estimates] if lone else None
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(1, iterations, BLOCK):
            size = min(BLOCK, iterations - start)
            xs = windows[start:start + size].reshape(size, count, taps)
            hs = channels[np.arange(start, start + size) // period]
            # a stack of (nr, nt*L) @ (nt*L, 1) products gives the bits of
            # the one-iteration rows @ x (gemv); xs @ rows.T runs as gemm
            # and moves them
            clean = np.matmul(hs, xs[..., None])
            # ys[j] is iteration j's received sample of every row
            ys = list((clean + (0.0 + noise[start:start + size, :, :, None] * stds)).reshape(size, rows))
            np.copyto(regressors[:size].reshape(size, *grid), xs[:, :, None, None])
            # np.vecdot gives the bits of the one-row float(x @ x)
            energies = np.vecdot(regressors[:size], regressors[:size])[..., None]
            energies = energies[:, 0, 0].tolist() if lone else list(energies)
            for j in range(size):
                before, x = estimate_rows[j], regressor_rows[j]
                # np.vecdot, not @: it gives the bits of the one-row h @ x
                np.vecdot(before, x, e)
                np.subtract(ys[j], e, e)
                if lone:
                    # a lone pair: float knobs, error and energy, one call per antenna;
                    # the stacked call below gives the same bits for less, but
                    # the bench tracer's tests pin these calls (ROADMAP items 1-2)
                    for h, out, ei in zip(lone_rows[j], lone_rows[j + 1], e.tolist()):
                        update(hyper, h, x, ei, energies[j], out)
                else:
                    update(hyper, before, x, e_column, energies[j], estimate_rows[j + 1])
            diff = hs[:, :, :, None] - estimates[1:size + 1].reshape(size, *grid)
            per_row = np.vecdot(diff, diff)
            # in antenna order, row 0 + row 1 + ...: for a lone pair the
            # antennas are np.sum's inner loop, which from 8 of them on adds
            # them as 8 partial sums and moves bits
            total = per_row[:, :, 0]
            for i in range(1, nr):
                total = total + per_row[:, :, i]
            squared[:, :, start:start + size] = total.transpose(1, 2, 0)
            # a non-finite estimate makes its squared error non-finite, and a
            # finite one can still overflow it: either way the pair is dropped,
            # and a block in which no pair stayed finite ends the call
            if not np.isfinite(total).all(axis=0).any():
                break
            estimates[0] = estimates[size]
    return squared


def steady_state_mse(trace: np.ndarray) -> float:
    """Mean over the final ``TAIL_FRACTION`` of the trace."""
    tail = max(1, int(round(TAIL_FRACTION * trace.size)))
    return float(trace[-tail:].mean())


def first_iteration_below(trace: np.ndarray, level: float) -> int:
    """First iteration whose MSE is at or below ``level``; trace length if never."""
    hits = np.nonzero(trace <= level)[0]
    return int(hits[0]) if hits.size else trace.size


class GridResult(dict):
    """Mean-MSE arrays keyed by :class:`CellKey`, plus the dropped runs.

    A dict of the cells with a surviving run, in ``cell_keys()`` order.
    ``diverged`` maps every cell to the indices of its dropped runs; a cell
    is missing from the dict exactly when it dropped all of its runs.
    """

    def __init__(self, traces: dict[CellKey, np.ndarray], diverged: dict[CellKey, list[int]]):
        dict.__init__(self, traces)
        self.diverged = diverged


def _grid_task(args):
    config, run = args
    # a cell's K enters only through its draws, so one call serves every K
    draws = [draw_run(config, k, run) for k in config.sparsity]
    return np.stack([run_single(draws, config, algorithm) for algorithm in config.algorithms]).reshape(-1, config.iterations)


def run_grid(config: ExperimentConfig, workers: int = 1) -> GridResult:
    """Run the whole grid; a run is dropped from each cell where its curve is not all finite, not fatal.

    A task is one run index: every cell of that run shares its channel and
    draws at each K, so the task draws every K once with :func:`draw_run`
    and one :func:`run_single` call per algorithm advances all of them,
    each K a realization, and returns the run's squared errors in
    ``cell_keys()`` order. Results are bit-identical for a fixed master
    seed regardless of ``workers``: every task is a pure function of the
    config, and each cell's surviving runs are summed in run order.
    """
    workers = _count("workers", workers)
    keys = config.cell_keys()
    tasks = [(config, run) for run in range(config.runs)]

    # 0.0 + x is x, so each sum holds exactly its runs added in run order
    sums = np.zeros((len(keys), config.iterations))
    masks = []

    def collect(outcomes):
        # map and pool.map both yield the tasks' results in run order
        for squared in outcomes:
            masks.append(alive := np.isfinite(squared).all(axis=1))
            with np.errstate(over="ignore"):  # a sum that overflows is refused below, not warned of
                np.add(sums, squared, out=sums, where=alive[:, None])

    # a pool may start every worker up front, so it gets no more than tasks or the CPUs it may use
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(workers, len(tasks), cpus)
    if workers == 1:
        collect(map(_grid_task, tasks))
    else:
        # imported here, so serial runs and the command line skip its cost
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(tasks) // (8 * workers))
            collect(pool.map(_grid_task, tasks, chunksize=chunk))

    finite = np.array(masks)  # (runs, cells)
    survivors = finite.sum(axis=0)
    live = survivors > 0
    means = sums[live] / survivors[live, None]
    # each run is finite, but their sum can still overflow
    if not np.isfinite(means).all() or (means < 0).any():
        raise ValueError("mean squared error must be finite and nonnegative")
    traces = dict(zip([key for key, ok in zip(keys, live) if ok], means))
    diverged = {key: np.flatnonzero(~alive).tolist() for key, alive in zip(keys, finite.T)}
    return GridResult(traces, diverged)
