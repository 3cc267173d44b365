"""Seeded Monte-Carlo learning-curve experiments over a parameter grid.

A grid cell is one (algorithm, snr, mu, K) combination at fixed antenna
counts. Channel, training, and noise realizations for run ``r`` are derived
from the master seed and the data-relevant cell parameters only, so every
algorithm, step size, and SNR sees the same realizations within a run
index (paired common random numbers) and any cell can be re-run in
isolation, bit-identically, regardless of scheduling or worker count.

A cell's result is its learning curve: one float64 array of the mean
squared error per iteration over the runs that did not diverge.
:class:`GridResult` maps each :class:`CellKey` to that array and lists, per
cell, the runs it dropped.
"""
from __future__ import annotations

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
    "ExperimentError",
    "GridResult",
    "average_mse",
    "first_iteration_below",
    "run_grid",
    "run_single",
    "steady_state_mse",
]

# Default regularizer-to-noise-power ratios used when no explicit weight is given.
LAMBDA_LP_NOISE_RATIO = 1e-4
LAMBDA_L0_NOISE_RATIO = 1e-3

_STREAM_CHANNEL = 0
_STREAM_LOOP = 1
_GENERATOR_IDS = {kind: i for i, kind in enumerate(GENERATOR_KINDS)}


class ExperimentError(RuntimeError):
    """Raised when an experiment produces nothing to average."""


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


def run_single(rows: np.ndarray, cell: CellConfig, algorithm: str, rng: np.random.Generator) -> np.ndarray:
    """One adaptive identification run; returns per-iteration squared error.

    ``rows`` is the ``(nr, nt * L)`` channel. Entry 0 is the cold-start
    error of the all-zero estimates; each later entry is recorded after that
    iteration's update of every receive antenna's estimate. Per iteration
    the draw order is fixed: one training sample per transmit antenna, then
    one noise sample per receive antenna.
    """
    hyper = replace(cell.hyper, algorithm=algorithm)
    estimates = [np.zeros(cell.nt * cell.length) for _ in range(cell.nr)]
    generator = TrainingGenerator(cell.generator, cell.nt, rng)
    std = math.sqrt(snr_to_variance(cell.snr_db))
    # each antenna's last L samples, newest first; x is a view of it
    window = np.zeros((cell.nt, cell.length))
    x = window.reshape(-1)
    squared = np.empty(cell.iterations)
    squared[0] = float(np.sum(rows * rows))
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, cell.iterations):
            if cell.fading_period and n % cell.fading_period == 0:
                rows = assemble_mimo_channel(cell.nt, cell.nr, cell.length, cell.sparsity, rng)
            window[:, 1:] = window[:, :-1]
            window[:, 0] = generator.next()
            y = rows @ x + rng.normal(0.0, std, cell.nr)
            total = 0.0
            for i in range(cell.nr):
                h = estimates[i]
                e = float(y[i]) - float(h @ x)
                h = estimates[i] = update(hyper, h, x, e)
                diff = rows[i] - h
                total += float(diff @ diff)
            if not math.isfinite(total):
                # a non-finite estimate makes its squared error non-finite
                # too, and a finite one can still overflow it; either way
                # the run is useless for averaging
                raise DivergenceError(f"{algorithm} squared error left the finite range")
            squared[n] = total
    return squared


def average_mse(runs) -> np.ndarray:
    """Pointwise mean of the surviving runs' squared-error sequences."""
    sequences = [np.asarray(seq, dtype=np.float64) for seq in runs]
    if not sequences:
        raise ExperimentError("no surviving runs to average")
    length = sequences[0].size
    if any(seq.size != length for seq in sequences):
        raise ValueError("all squared-error sequences must share one length")
    values = np.mean(np.stack(sequences), axis=0)
    if not np.isfinite(values).all() or (values < 0).any():
        raise ValueError("mean squared error must be finite and nonnegative")
    return values


def steady_state_mse(trace: np.ndarray, tail_fraction: float = 0.2) -> float:
    """Mean over the final ``tail_fraction`` of the trace."""
    if not 0 < tail_fraction <= 1:
        raise ValueError(f"tail_fraction must lie in (0, 1], got {tail_fraction}")
    tail = max(1, int(round(tail_fraction * trace.size)))
    return float(trace[-tail:].mean())


def first_iteration_below(trace: np.ndarray, level: float) -> int:
    """First iteration whose MSE is at or below ``level``; trace length if never."""
    hits = np.nonzero(trace <= level)[0]
    return int(hits[0]) if hits.size else trace.size


class GridResult(Mapping):
    """Mean-MSE arrays keyed by :class:`CellKey`, plus the dropped runs.

    Behaves as a read-only mapping of the cells with a surviving run.
    ``diverged`` maps every cell, fully diverged ones included, to the
    indices of its dropped runs; ``failures`` maps fully diverged cells to
    a reason string.
    """

    def __init__(self, traces: Mapping[CellKey, np.ndarray], diverged: Mapping[CellKey, list[int]],
                 failures: Mapping[CellKey, str]):
        self._traces = dict(traces)
        self.diverged = dict(diverged)
        self.failures = dict(failures)

    def __getitem__(self, key: CellKey) -> np.ndarray:
        return self._traces[key]

    def __iter__(self):
        return iter(self._traces)

    def __len__(self) -> int:
        return len(self._traces)

    def __repr__(self) -> str:
        return f"GridResult({len(self._traces)} cells, {len(self.failures)} failed)"


def _grid_task(args):
    config, key, run = args
    rows = _make_channel(config, key.k, run)
    rng = np.random.default_rng(_realization_seed(config, key.k, run, _STREAM_LOOP))
    cell = config.cell(key.snr_db, key.mu, key.k)
    try:
        return key, run, run_single(rows, cell, key.algorithm, rng), None
    except DivergenceError as exc:
        return key, run, None, f"run {run}: {exc}"


def run_grid(config: ExperimentConfig, workers: int = 1) -> GridResult:
    """Run the whole grid; diverged runs are dropped per cell, not fatal.

    Results are bit-identical for a fixed master seed regardless of
    ``workers``: every (cell, run) task is a pure function of the config,
    and aggregation orders runs by index.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    keys = config.cell_keys()
    tasks = [(config, key, run) for key in keys for run in range(config.runs)]

    survivors: dict[CellKey, list[np.ndarray]] = {key: [] for key in keys}
    diverged: dict[CellKey, list[int]] = {key: [] for key in keys}

    def collect(outcomes):
        for key, run, squared, failure in outcomes:
            if failure is None:
                survivors[key].append(squared)
            else:
                diverged[key].append(run)

    if workers == 1 or len(tasks) <= 1:
        collect(map(_grid_task, tasks))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(tasks) // (8 * workers))
            collect(pool.map(_grid_task, tasks, chunksize=chunk))

    traces: dict[CellKey, np.ndarray] = {}
    failures: dict[CellKey, str] = {}
    for key in keys:
        if survivors[key]:
            traces[key] = average_mse(survivors[key])
        else:
            failures[key] = f"all {config.runs} runs diverged"
    return GridResult(traces, diverged, failures)
