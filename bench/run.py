"""sparsemimo benchmark: run one workload through the CLI, check it, print metrics.

    python3 bench/run.py --workload reference_grid --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory. With ``--trace 0`` the workload is run untraced, pass after pass,
for ``--seconds``, while a short fixed calibration loop is timed every
25 ms (``calibrate.py``). Each pass's times, less the loop's, are scaled to
the reference host's speed by the loop's times during that pass, and the
end-to-end timings are the median scaled pass.
With ``--trace 1`` the same passes run with span wrappers on the experiment
and CLI entry points only (a handful of spans per Monte-Carlo run), then one
pass runs with every layer boundary wrapped, then one untraced pass with
two worker processes; the per-layer metrics come from those. Every pass's
CSV and manifest are checked. The last line of standard output is the
result as JSON; the line before it records the environment, the raw timings
and any notes.
Spans and a full record are written under ``bench/.work/``.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import numpy as np

# sibling modules, found through this script's directory on sys.path
from calibrate import Sampler
from checks import Verdict, load_pins, verify
from tracer import FULL_TARGETS, SHALLOW_TARGETS, Tracer, layer_self_ns, matching, span_stats, traced
from workloads import DEFAULT_SEED, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 15
# Calibration in each fresh interpreter, right after its set-up is timed.
SETUP_CALIBRATION_S = 0.1
SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import sparsemimo.cli
sparsemimo.cli.parse_config(sys.argv[4:])
setup = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
from calibrate import block_scale
print(repr(setup), repr(block_scale(float(sys.argv[3]))))
"""
UPDATE_ALGORITHMS = ("nlms", "lp_nlms", "l0_nlms", "lms")
ITER_ALGORITHMS = ("nlms", "lp_nlms", "l0_nlms")


def load_cli():
    """Import ``sparsemimo.cli`` from this checkout's ``src/``, nowhere else."""
    if not (SRC / "sparsemimo" / "__init__.py").is_file():
        raise SystemExit(f"bench: no sparsemimo package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import sparsemimo.cli as cli

    if SRC not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"bench: imported sparsemimo from {cli.__file__}, not from {SRC}")
    return cli


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: Workload, seed: int, trace: int) -> dict:
    return {
        "workload": workload.name, "seed": seed, "trace": trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__, "platform": platform.platform(), "commit": _commit(),
    }


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Pass(NamedTuple):
    wall: float
    cpu: float
    passed: bool
    tracer: Tracer | None
    # wall and CPU factors to the reference host's speed (calibrate.py)
    scales: tuple[float, float] = (1.0, 1.0)


class Bench:
    """One workload at one seed: runs passes and checks what each wrote."""

    def __init__(self, cli, workload: Workload, seed: int, work: Path):
        self.cli, self.workload, self.seed, self.work = cli, workload, seed, work
        self.csv = work / "results.csv"
        self.manifest = work / "results.manifest.json"
        self.pins = load_pins()
        self.attempted = 0
        self.failed = 0
        self.walls: list[float] = []
        self.notes: list[str] = []
        self.problems: list[str] = []
        self.shas: list[str] = []
        self.last: Verdict | None = None
        self.host: dict = {}

    def run_pass(self, workers: int | None = None, targets=None, sampled: bool = False) -> Pass:
        """One CLI invocation in-process, then checked.

        Traced when ``targets`` is given; with ``sampled``, host speed is
        sampled during the invocation and the pass carries its scales.
        """
        for path in (self.csv, self.manifest):
            path.unlink(missing_ok=True)
        argv = self.workload.argv(self.seed, self.csv, workers)
        tracer = Tracer() if targets is not None else None
        sink = io.StringIO()
        self.attempted += 1
        error = None
        with Sampler() if sampled else nullcontext() as probe:
            cpu0, t0 = _cpu_s(), time.perf_counter()
            try:
                with redirect_stdout(sink), redirect_stderr(sink):
                    if tracer is None:
                        code = self.cli.main(argv)
                    else:
                        with traced(tracer, targets):
                            code = self.cli.main(argv)
                if code != 0:
                    error = f"sparsemimo exited {code}: {sink.getvalue()[-400:]}"
            except Exception:
                error = traceback.format_exc(limit=-4)
            wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
            if probe is not None:
                wall, cpu = wall - probe.spent_wall, cpu - probe.spent_cpu
        self.walls.append(wall)
        if error is None:
            try:
                verdict = verify(self.workload, self.seed, self.csv, self.manifest,
                                 self.pins, np.__version__)
            except (OSError, ValueError) as exc:
                error = f"outputs unreadable: {type(exc).__name__}: {exc}"
            else:
                self.last = verdict
                self.shas.append(verdict.sha256)
                self._remember(self.notes, verdict.notes)
                if not verdict.ok:
                    error = "; ".join(verdict.problems[:5])
        if error is not None:
            self.failed += 1
            self._remember(self.problems, [error])
            print(f"bench: pass {self.attempted} failed: {error}", file=sys.stderr)
        return Pass(wall, cpu, error is None, tracer,
                    probe.scales() if probe is not None else (1.0, 1.0))

    @staticmethod
    def _remember(bucket: list, items) -> None:
        for item in items:
            if item not in bucket:
                bucket.append(item)

    def passes_for(self, seconds: float, **kwargs) -> list[Pass]:
        """Pass after pass until ``seconds`` have gone by; at least one."""
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(self.run_pass(**kwargs))
        return passes

    def csv_identical(self) -> bool:
        """Every pass wrote the pinned CSV bytes, or without a pin the first pass's."""
        pinned = self.last.pinned_sha256 if self.last else None
        reference = pinned or (self.shas[0] if self.shas else None)
        return bool(self.shas) and all(sha == reference for sha in self.shas)


def measure_setup(workload: Workload, seed: int, work: Path) -> tuple[float, float]:
    """Median seconds, raw and scaled, in fresh interpreters, to import sparsemimo and parse the flags.

    Each interpreter scales its own time by a calibration block it runs
    right after.
    """
    argv = workload.argv(seed, work / "setup.csv")
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), repr(SETUP_CALIBRATION_S), *argv],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        setup, scale = map(float, done.stdout.strip().splitlines()[-1].split())
        times.append(setup)
        scaled.append(setup * scale)
    return statistics.median(times), statistics.median(scaled)


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _timed(passes: list[Pass]) -> list[Pass]:
    """Passes whose times count: a pass that crashed early is not the fastest."""
    return [p for p in passes if p.passed] or passes



def end_to_end(bench: Bench, seconds: float) -> dict:
    """The end-to-end metrics; raw timings go to ``bench.host``."""
    passes = bench.passes_for(seconds, sampled=True)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_mb = max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux
    setup_raw, setup = measure_setup(bench.workload, bench.seed, bench.work)
    # Median pass, at the reference host's speed: the host's speed changes
    # with co-tenant load, and the probes during a pass follow it.
    timed = _timed(passes)
    wall = statistics.median(p.wall * p.scales[0] for p in timed)
    cpu = statistics.median(p.cpu * p.scales[1] for p in timed)
    bench.host = {
        "raw_median": {"wall_s": statistics.median(p.wall for p in timed),
                       "cpu_s": statistics.median(p.cpu for p in timed), "setup_s": setup_raw},
        "raw_best": {"wall_s": min(p.wall for p in timed), "cpu_s": min(p.cpu for p in timed)},
    }
    updates = bench.workload.nominal_updates()
    return {
        "wall_s": metric(wall, "s"),
        "cpu_s": metric(cpu, "s"),
        "updates_per_s": metric(updates / wall, "1/s"),
        "cpu_us_per_update": metric(cpu / updates * 1e6, "us"),
        "peak_rss_mb": metric(peak_mb, "MB"),
        "setup_s": metric(setup, "s"),
        "passed_frac": metric((bench.attempted - bench.failed) / bench.attempted, "fraction"),
    }


def _run_single_times(passes: list[Pass]) -> tuple[list[float], dict]:
    """Every run_single duration (ms) and, per algorithm, (total ns, calls)."""
    durations_ms, per_algorithm = [], {}
    for p in passes:
        table, names = p.tracer.table(), p.tracer.names
        for nid, name in enumerate(names):
            if name.startswith("experiment.run_single"):
                rows = table[table[:, 0] == nid]
                durations = rows[:, 2] - rows[:, 1]
                durations_ms.extend((durations / 1e6).tolist())
                algorithm = name.rpartition(".")[2]
                ns, calls = per_algorithm.get(algorithm, (0, 0))
                per_algorithm[algorithm] = (ns + int(durations.sum()), calls + len(durations))
    return durations_ms, per_algorithm


def per_layer(bench: Bench, seconds: float) -> dict:
    workload = bench.workload
    # Shallow passes time whole runs and the CLI's outputs, at untraced speed.
    shallow = bench.passes_for(seconds, workers=1, targets=SHALLOW_TARGETS)
    untraced_wall = min(p.wall for p in _timed(shallow))
    shallow_stats = [span_stats(p.tracer.table(), p.tracer.names) for p in shallow]

    def shallow_s(span):
        return statistics.median(matching(s.total_ns, span) / 1e9 for s in shallow_stats)

    durations_ms, per_algorithm = _run_single_times(shallow)
    n = len(durations_ms)
    # highest percentile with at least ten samples beyond it (p50 if none)
    tail_pct = max(50, math.floor(100.0 * (n - 10) / n)) if n else 50

    # One pass with every layer boundary wrapped gives calls and self times.
    full = bench.run_pass(workers=1, targets=FULL_TARGETS)
    full.tracer.save(bench.work / f"spans-seed{bench.seed}.npz")
    stats = span_stats(full.tracer.table(), full.tracer.names)
    root_ns = stats.total_ns.get("cli.main", 0) or 1
    layers = layer_self_ns(stats)

    pool = bench.run_pass(workers=2)

    def calls(span):
        return metric(matching(stats.calls, span), "count")

    def us_per_call(span):
        count = matching(stats.calls, span)
        return metric(matching(stats.total_ns, span) / 1e3 / count if count else 0.0, "us")

    def share(layer):
        return metric(layers.get(layer, 0) / root_ns, "fraction")

    def us_per_iter(algorithm):
        ns, count = per_algorithm.get(algorithm, (0, 0))
        return metric(ns / 1e3 / (count * (workload.iterations - 1)) if count else 0.0, "us")

    divergences = sum(count for (span, kind), count in full.tracer.errors.items()
                      if span.startswith("estimator.") and kind == "DivergenceError")
    rows = bench.last.rows if bench.last else 0
    emit_s = shallow_s("cli.emit_csv")
    return {
        "channel.assemble.calls": calls("channel.assemble"),
        "channel.assemble.us_per_call": us_per_call("channel.assemble"),
        "channel.share": share("channel"),
        "signal.training.calls": calls("signal.training"),
        "signal.training.us_per_call": us_per_call("signal.training"),
        "signal.push_regressor.us_per_call": us_per_call("signal.push_regressor"),
        "signal.system_output.us_per_call": us_per_call("signal.system_output"),
        "signal.share": share("signal"),
        "estimator.predict.us_per_call": us_per_call("estimator.predict"),
        "estimator.update.calls": calls("estimator.update"),
        **{f"estimator.update.{a}.us_per_call": us_per_call(f"estimator.update.{a}")
           for a in UPDATE_ALGORITHMS},
        "estimator.divergences": metric(divergences, "count"),
        "estimator.share": share("estimator"),
        "experiment.run_single.ms_p50": metric(np.percentile(durations_ms, 50) if n else 0.0, "ms"),
        "experiment.run_single.ms_tail": metric(np.percentile(durations_ms, tail_pct) if n else 0.0, "ms"),
        "experiment.run_single.tail_pct": metric(tail_pct, "%"),
        "experiment.run_single.samples": metric(n, "count"),
        **{f"experiment.run_single.{a}.us_per_iter": us_per_iter(a) for a in ITER_ALGORITHMS},
        "experiment.self_share": share("experiment"),
        "experiment.average_mse.s": metric(shallow_s("experiment.average_mse"), "s"),
        "experiment.dropped_runs": metric(bench.last.dropped_runs if bench.last else 0, "count"),
        "experiment.pool.efficiency": metric(untraced_wall / (2.0 * pool.wall), "ratio"),
        "experiment.pool.overhead_s": metric(pool.wall - untraced_wall / 2.0, "s"),
        "cli.emit_csv.s": metric(emit_s, "s"),
        "cli.emit_csv.us_per_row": metric(emit_s / rows * 1e6 if rows else 0.0, "us"),
        "cli.manifest.s": metric(shallow_s("cli.manifest"), "s"),
        "cli.csv_identical": metric(bench.csv_identical(), "flag"),
        "trace.overhead_frac": metric(full.wall / untraced_wall - 1.0, "fraction"),
        "trace.spans": metric(len(full.tracer.spans), "count"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    cli = load_cli()
    workload = WORKLOADS[args.workload]
    work = HERE / ".work" / workload.name
    work.mkdir(parents=True, exist_ok=True)
    env = environment(workload, args.seed, args.trace)
    bench = Bench(cli, workload, args.seed, work)
    metrics = per_layer(bench, args.seconds) if args.trace else end_to_end(bench, args.seconds)

    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    record = {"env": env, "host": bench.host, "notes": bench.notes, "problems": bench.problems}
    (work / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "pass_walls": bench.walls, **result}, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
