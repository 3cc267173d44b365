"""Host-speed calibration: a frozen loop timed while the benchmark measures.

The benchmark runs on shared virtual CPUs whose speed changes within a
second, and drifts by up to half over minutes, as co-tenants come and go;
the same code then reads very differently from one run to the next. A
fixed chunk of small-vector NumPy work, the same kind of work as an NLMS
update (a few 32-element products and element-wise maps per Python-level
step), is timed alongside what is measured. A time is then scaled by
``reference / median chunk time``: the seconds it would have taken on the
reference host at the speed the host had just then. The chunk lives here,
not in ``src/``, so no change to the package changes it.

* ``Sampler`` runs a short chunk from a ``SIGALRM`` handler every
  ``PROBE_INTERVAL_S`` of wall time during a pass, in the benchmark's own
  process; the handler's time is taken out of the pass's time.
* ``block_scale`` runs chunks for a while, right after what it scales (a
  fresh interpreter's set-up, in that interpreter).

Passes are scaled in the benchmark's own process, so a workload with worker
processes is scaled by one CPU's speed only.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Median seconds per chunk step on the reference host, a 2-vCPU Intel Xeon
# VM with CPython 3.11.7 and NumPy 2.4.6, while the host was quiet.
STEP_REFERENCE_S = 22.5e-6
BLOCK_STEPS = 400
PROBE_STEPS = 25
PROBE_INTERVAL_S = 0.025


def chunk(steps: int) -> tuple[float, float]:
    """Wall and CPU seconds of a fixed chunk of small-vector NumPy work."""
    x = np.arange(32, dtype=np.float64) / 32.0
    h = np.zeros(32)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for i in range(steps):
        x = np.roll(x, 1)
        x[0] = 1e-3 * i
        e = 0.5 - float(h @ x)
        h = h + (0.5 * e / (1e-6 + float(x @ x))) * x
        h = h - 1e-4 * np.sign(h) * np.exp(-5.0 * np.abs(h))
    return time.perf_counter() - wall0, time.process_time() - cpu0


def _scales(times: list[tuple[float, float]], steps: int) -> tuple[float, float]:
    """Wall and CPU factors taking seconds at the speed these chunks saw to the reference host's."""
    reference = STEP_REFERENCE_S * steps
    return (reference / statistics.median(wall for wall, _ in times),
            reference / statistics.median(cpu for _, cpu in times))


class Sampler:
    """``with Sampler() as probe: ...`` times a probe chunk every ``PROBE_INTERVAL_S``.

    ``probe.spent_wall`` / ``probe.spent_cpu`` are the seconds the probes
    took so far, to subtract from a time taken inside the block. At least
    one probe is timed, on exit if the block was shorter than an interval.
    """

    def __init__(self):
        self.times: list[tuple[float, float]] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._previous = None

    def _probe(self, signum=None, frame=None) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self.times.append(chunk(PROBE_STEPS))
        self.spent_wall += time.perf_counter() - wall0
        self.spent_cpu += time.process_time() - cpu0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.times:
            self._probe()

    def scales(self) -> tuple[float, float]:
        return _scales(self.times, PROBE_STEPS)


def block_scale(budget_s: float) -> float:
    """Wall factor from chunks run until ``budget_s`` has gone by; at least three."""
    times = []
    start = time.perf_counter()
    while len(times) < 3 or time.perf_counter() - start < budget_s:
        times.append(chunk(BLOCK_STEPS))
    return _scales(times, BLOCK_STEPS)[0]
