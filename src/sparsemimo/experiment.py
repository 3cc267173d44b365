"""Seeded Monte-Carlo learning-curve experiments over a parameter grid.

A grid cell is one (algorithm, snr, mu, K) combination at fixed antenna
counts. Channel, training, and noise realizations for run ``r`` are derived
from the master seed and the data-relevant cell parameters only, so every
algorithm, step size, and SNR sees the same realizations within a run
index (paired common random numbers) and any cell can be re-run in
isolation, bit-identically, regardless of scheduling or worker count.

Because those realizations are shared, one run of one algorithm advances
every step size and SNR of a K together: its channel, training and
unit-scale noise are drawn once per iteration, and one array step per
receive antenna updates the estimates of all those cells, each cell's
noise scaled by its own SNR. A cell whose run diverges is dropped from
that run alone; the other cells are untouched by it and come out bit for
bit as they would alone.

A cell's result is its learning curve: the per-iteration mean squared
error over the runs that did not diverge, one float64 array. Runs are
added to their cell's running sum in run order as they arrive, so the grid
holds one array per cell, not one per run. :class:`GridResult` maps each
:class:`CellKey` to its curve; a cell whose every run diverged has none.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .channel import assemble_mimo_channel
from .estimator import ALGORITHMS, HyperParams, update
from .signal import GENERATOR_KINDS, TrainingGenerator, snr_to_variance

__all__ = [
    "LAMBDA_LP_NOISE_RATIO",
    "LAMBDA_L0_NOISE_RATIO",
    "CellKey",
    "CellConfig",
    "DivergenceError",
    "ExperimentConfig",
    "GridResult",
    "first_iteration_below",
    "run_grid",
    "run_single",
    "steady_state_mse",
]

# Default regularizer-to-noise-power ratios used when no explicit weight is given.
LAMBDA_LP_NOISE_RATIO = 1e-4
LAMBDA_L0_NOISE_RATIO = 1e-3
TAIL_FRACTION = 0.2  # final share of a trace that steady_state_mse averages

_STREAM_CHANNEL = 0
_STREAM_LOOP = 1
_GENERATOR_IDS = {kind: i for i, kind in enumerate(GENERATOR_KINDS)}


class DivergenceError(RuntimeError):
    """A run's squared error left the finite range; the run must be aborted."""


class CellKey(NamedTuple):
    """Identity of one grid cell."""

    algorithm: str
    snr_db: float
    mu: float
    k: int
    nt: int
    nr: int


@dataclass(frozen=True)
class CellConfig:
    """Fully resolved scalar parameters for one grid cell.

    ``hyper`` carries the cell's step size and penalty knobs; the algorithm
    is given to :func:`run_single` separately, which completes it.
    """

    nt: int
    nr: int
    length: int
    sparsity: int
    snr_db: float
    iterations: int
    generator: str
    hyper: HyperParams
    fading_period: int | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid definition plus shared simulation parameters.

    This is the one place the parameters are validated; the update rules
    and :class:`HyperParams` trust what it resolves.

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
    p: float = 0.45
    epsilon: float = 0.02
    beta: float = 15.0
    fading_period: int | None = None

    def __post_init__(self):
        for name in ("sparsity", "snr_db", "mu", "algorithms"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
            if len(set(value)) != len(value):
                # a repeated value would add the same cell's runs twice
                raise ValueError(f"{'k' if name == 'sparsity' else name}: duplicate values in {tuple(value)}")
        if self.nt < 1 or self.nr < 1:
            raise ValueError("nt/nr: antenna counts must be at least 1")
        if self.length < 1:
            raise ValueError("length: tap count must be at least 1")
        if not self.sparsity:
            raise ValueError("k: at least one sparsity value is required")
        for k in self.sparsity:
            if not 1 <= k <= self.length:
                raise ValueError(f"k: sparsity must lie in [1, {self.length}], got {k}")
        if not self.snr_db:
            raise ValueError("snr_db: at least one SNR is required")
        for snr in self.snr_db:
            if math.isnan(snr) or snr == -math.inf:
                raise ValueError(f"snr_db: {snr} is not a valid SNR (use inf for noiseless)")
        if not self.mu:
            raise ValueError("mu: at least one step size is required")
        for m in self.mu:
            if not 0 < m < 2:
                raise ValueError(f"mu: step sizes must lie in (0, 2), got {m}")
        if not self.algorithms:
            raise ValueError("algorithms: at least one algorithm is required")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ValueError(f"algorithms: unknown algorithm {a!r}; expected one of {ALGORITHMS}")
        if self.runs < 1:
            raise ValueError("runs: must be at least 1")
        if self.iterations < 1:
            raise ValueError("iterations: must be at least 1")
        if self.seed < 0:
            raise ValueError("seed: must be nonnegative")
        if self.generator not in GENERATOR_KINDS:
            raise ValueError(f"generator: unknown kind {self.generator!r}; expected one of {GENERATOR_KINDS}")
        for name in ("lambda_lp", "lambda_l0"):
            lam = getattr(self, name)
            if lam is not None and lam < 0:
                raise ValueError(f"{name}: must be nonnegative, got {lam}")
        if not 0 < self.p <= 1:
            raise ValueError(f"p: must lie in (0, 1], got {self.p}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon: must be positive, got {self.epsilon}")
        if self.beta <= 0:
            raise ValueError(f"beta: must be positive, got {self.beta}")
        if self.fading_period is not None and self.fading_period < 1:
            raise ValueError("fading_period: must be at least 1 when set")

    def hyper_for(self, snr_db: float, mu: float) -> HyperParams:
        """Resolve the regularizer weights for one cell's noise power."""
        variance = snr_to_variance(snr_db)
        lam_lp = self.lambda_lp if self.lambda_lp is not None else LAMBDA_LP_NOISE_RATIO * variance
        lam_l0 = self.lambda_l0 if self.lambda_l0 is not None else LAMBDA_L0_NOISE_RATIO * variance
        return HyperParams(
            mu=mu, lambda_lp=lam_lp, lambda_l0=lam_l0,
            p=self.p, epsilon=self.epsilon, beta=self.beta,
        )

    def cell(self, snr_db: float, mu: float, k: int) -> CellConfig:
        return CellConfig(
            nt=self.nt, nr=self.nr, length=self.length, sparsity=k,
            snr_db=snr_db, iterations=self.iterations, generator=self.generator,
            hyper=self.hyper_for(snr_db, mu), fading_period=self.fading_period,
        )

    def cell_keys(self) -> list[CellKey]:
        return [
            CellKey(a, s, m, k, self.nt, self.nr)
            for a in self.algorithms
            for s in self.snr_db
            for m in self.mu
            for k in self.sparsity
        ]


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
            _GENERATOR_IDS[config.generator],
            config.fading_period or 0,
            run,
            stream,
        )
    )


def _make_channel(config: ExperimentConfig, k: int, run: int) -> np.ndarray:
    rng = np.random.default_rng(_realization_seed(config, k, run, _STREAM_CHANNEL))
    return assemble_mimo_channel(config.nt, config.nr, config.length, k, rng)


def run_single(rows: np.ndarray, cells: list[CellConfig], algorithm: str,
               rng: np.random.Generator) -> list[np.ndarray | None]:
    """One adaptive identification run of ``algorithm`` for every cell.

    ``rows`` is the ``(nr, nt * L)`` channel. The cells may differ only in
    SNR and hyperparameters, which leave the draws alone, so they share the
    channel and every draw: per iteration one training sample per transmit
    antenna, then one unit-scale noise sample ``z`` per receive antenna.
    Each cell's noise is ``0.0 + std * z``, bit for bit what
    ``rng.normal(0.0, std, nr)`` gives, so every cell comes out as it does
    alone. Returns each cell's per-iteration squared error: entry 0 is the
    cold-start error of the all-zero estimates; each later entry is
    recorded after that iteration's update of every receive antenna's
    estimate. A cell whose squared error left the finite range gets
    ``None``; once every cell's has, the run raises :class:`DivergenceError`.
    """
    first = cells[0]
    nt, nr, length, iterations = first.nt, first.nr, first.length, first.iterations
    # a knob that differs between cells becomes a (cells, 1) column, which
    # the rule broadcasts; a shared one stays a float, which is cheaper
    knobs = {}
    for name in ("mu", "lambda_lp", "lambda_l0"):
        values = [getattr(cell.hyper, name) for cell in cells]
        knobs[name] = values[0] if len(set(values)) == 1 else np.array(values)[:, None]
    hyper = replace(first.hyper, algorithm=algorithm, **knobs)
    stds = np.array([math.sqrt(snr_to_variance(cell.snr_db)) for cell in cells])
    # antenna i's estimates of every cell form the (cells, nt * L) block i
    estimates = np.zeros((nr, len(cells), nt * length))
    generator = TrainingGenerator(first.generator, nt, rng)
    # each antenna's last L samples, newest first; x is a view of it
    window = np.zeros((nt, length))
    x = window.reshape(-1)
    squared = np.empty((len(cells), iterations))
    squared[:, 0] = float(np.sum(rows * rows))
    finite = np.ones(len(cells), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, iterations):
            if first.fading_period and n % first.fading_period == 0:
                rows = assemble_mimo_channel(nt, nr, length, first.sparsity, rng)
            window[:, 1:] = window[:, :-1]
            window[:, 0] = generator.next()
            y = (rows @ x)[:, None] + (0.0 + np.multiply.outer(rng.standard_normal(nr), stds))
            # np.vecdot, not @: it gives the bits of the one-row h @ x
            e = y - np.vecdot(estimates, x)
            # a lone cell's error goes to the rule as a float, whose scalar
            # arithmetic costs less than a (1, 1) array's
            e = e[..., None] if len(cells) > 1 else e[:, 0].tolist()
            for i in range(nr):
                estimates[i] = update(hyper, estimates[i], x, e[i])
            diff = rows[:, None, :] - estimates
            per_row = np.vecdot(diff, diff)
            # in antenna order, 0.0 + row 0 + row 1 + ...; np.sum may pair
            # the terms differently and move bits
            total = per_row[0]
            for i in range(1, nr):
                total = total + per_row[i]
            squared[:, n] = total
            # a non-finite estimate makes its squared error non-finite too,
            # and a finite one can still overflow it; either way the cell's
            # run is useless for averaging. A Python sum of the errors is the
            # cheap test; only a non-finite sum needs the per-cell one.
            if not math.isfinite(sum(total.tolist())):
                finite &= np.isfinite(total)
                if not finite.any():
                    raise DivergenceError(f"{algorithm} squared error left the finite range")
    return [curve if ok else None for curve, ok in zip(squared, finite)]


def steady_state_mse(trace: np.ndarray) -> float:
    """Mean over the final ``TAIL_FRACTION`` of the trace."""
    tail = max(1, int(round(TAIL_FRACTION * trace.size)))
    return float(trace[-tail:].mean())


def first_iteration_below(trace: np.ndarray, level: float) -> int:
    """First iteration whose MSE is at or below ``level``; trace length if never."""
    hits = np.nonzero(trace <= level)[0]
    return int(hits[0]) if hits.size else trace.size


class GridResult(Mapping):
    """Mean-MSE arrays keyed by :class:`CellKey`, plus the dropped runs.

    Behaves as a read-only mapping of the cells with a surviving run.
    ``diverged`` maps every cell to the indices of its dropped runs; a cell
    is missing from the mapping exactly when it dropped all of its runs.
    """

    def __init__(self, traces: Mapping[CellKey, np.ndarray], diverged: Mapping[CellKey, list[int]]):
        self._traces = dict(traces)
        self.diverged = dict(diverged)

    def __getitem__(self, key: CellKey) -> np.ndarray:
        return self._traces[key]

    def __iter__(self):
        return iter(self._traces)

    def __len__(self) -> int:
        return len(self._traces)

    def __repr__(self) -> str:
        return f"GridResult({len(self._traces)} cells, {len(self.diverged) - len(self._traces)} failed)"


def _grid_task(args):
    config, k, run = args
    rows = _make_channel(config, k, run)
    curves = []
    # cell_keys puts algorithms outermost: each algorithm's cells are adjacent
    keys = (key for key in config.cell_keys() if key.k == k)
    for algorithm, same in itertools.groupby(keys, key=lambda key: key.algorithm):
        same = list(same)
        rng = np.random.default_rng(_realization_seed(config, k, run, _STREAM_LOOP))
        cells = [config.cell(key.snr_db, key.mu, k) for key in same]
        try:
            curves += zip(same, run_single(rows, cells, algorithm, rng))
        except DivergenceError:
            curves += [(key, None) for key in same]
    return run, curves


def run_grid(config: ExperimentConfig, workers: int = 1) -> GridResult:
    """Run the whole grid; diverged runs are dropped per cell, not fatal.

    A task is one ``(K, run)`` pair: the cells that share K share the
    run's channel and draws, so one :func:`run_single` pass per algorithm
    advances them all. Results are bit-identical for a fixed master seed
    regardless of ``workers``: every task is a pure function of the config,
    and each cell's runs are summed in run order.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    keys = config.cell_keys()
    tasks = [(config, k, run) for k in config.sparsity for run in range(config.runs)]

    # 0.0 + x is x, so each sum holds exactly its runs added in run order
    sums = {key: np.zeros(config.iterations) for key in keys}
    diverged: dict[CellKey, list[int]] = {key: [] for key in keys}

    def collect(outcomes):
        for run, curves in outcomes:
            for key, squared in curves:
                if squared is None:
                    diverged[key].append(run)
                else:
                    sums[key] += squared

    if workers == 1 or len(tasks) <= 1:
        collect(map(_grid_task, tasks))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(tasks) // (8 * workers))
            collect(pool.map(_grid_task, tasks, chunksize=chunk))

    traces: dict[CellKey, np.ndarray] = {}
    for key in keys:
        if len(diverged[key]) < config.runs:
            # each run is finite, but their sum can still overflow
            values = sums[key] / (config.runs - len(diverged[key]))
            if not np.isfinite(values).all() or (values < 0).any():
                raise ValueError("mean squared error must be finite and nonnegative")
            traces[key] = values
    return GridResult(traces, diverged)
