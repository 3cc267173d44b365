"""Command-line front end: parse a run configuration, execute the grid,
and emit plot-ready CSV plus manifest and optional text summary."""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .estimator import ALGORITHMS
from .experiment import (
    GENERATOR_KINDS,
    LAMBDA_L0_NOISE_RATIO,
    LAMBDA_LP_NOISE_RATIO,
    CellKey,
    ExperimentConfig,
    GridResult,
    _count,
    first_iteration_below,
    run_grid,
    steady_state_mse,
)

__all__ = [
    "CSV_HEADER",
    "RunManifest",
    "UsageError",
    "emit_csv",
    "emit_summary",
    "main",
    "parse_config",
    "replay_manifest",
    "write_plot_script",
]

CSV_HEADER = "algorithm,snr_db,mu,k,nt,nr,iteration,avg_mse,avg_mse_db"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_ALL_DIVERGED = 3


class UsageError(ValueError):
    """Bad flag, bad value, or violated configuration invariant."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits with status 2 by default
        raise UsageError(message)


def _csv_list(convert):
    def parse(text: str):
        return tuple(convert(part.strip()) for part in text.split(",") if part.strip())

    return parse


# Every ExperimentConfig field, keyed as in a config file: key -> (parse,
# help). The flag is "--" + key with "_" -> "-"; key "k" sets "sparsity".
_FIELDS = {
    "algorithms": (_csv_list(str), f"comma-separated subset of {','.join(ALGORITHMS)}"),
    "nt": (int, "transmit antenna count"),
    "nr": (int, "receive antenna count"),
    "length": (int, "taps per link"),
    "k": (_csv_list(int), "comma-separated dominant-tap counts"),
    "snr_db": (_csv_list(float), "comma-separated SNR values in dB (inf = noiseless)"),
    "mu": (_csv_list(float), "comma-separated step sizes in (0, 2)"),
    "lambda_lp": (float, f"fractional-norm penalty weight (default: {LAMBDA_LP_NOISE_RATIO:g} x noise power)"),
    "lambda_l0": (float, f"zero-attractor penalty weight (default: {LAMBDA_L0_NOISE_RATIO:g} x noise power)"),
    "p": (float, "fractional norm exponent in (0, 1]"),
    "epsilon": (float, "attractor denominator guard"),
    "beta": (float, "attraction band is |h| <= 1/beta"),
    "runs": (int, "Monte-Carlo runs per cell"),
    "iterations": (int, "updates per run"),
    "seed": (int, "master seed"),
    "generator": (str, f"training signal kind: {', '.join(GENERATOR_KINDS)}"),
    "fading_period": (int, "redraw the channel every N iterations (default: static)"),
}


def _config_field(key: str) -> str:
    return "sparsity" if key == "k" else key


def _parse_value(key: str, text: str):
    try:
        return _FIELDS[key][0](text)
    except ValueError:
        raise UsageError(f"{key}: could not parse {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sparsemimo",
        description="Monte-Carlo MSE learning curves for adaptive sparse MIMO channel estimation.",
    )
    parser.add_argument("--config", type=Path, help="flat key=value configuration file")
    for key, (_, text) in _FIELDS.items():
        parser.add_argument("--" + key.replace("_", "-"), help=text)
    parser.add_argument("--out", type=Path, default=Path("results.csv"), help="output CSV path")
    parser.add_argument("--summary", action="store_true", help="print a per-cell text summary")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel worker processes (results identical for any count)")
    parser.add_argument("--plot-script", dest="plot_script", type=Path,
                        help="also write a plotting script template for the CSV")
    return parser


def _load_config_file(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise UsageError(f"config: cannot read {path}: {exc}") from None
    values, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config: {path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise UsageError(f"config: unknown key {key!r} at {path}:{lineno}")
        if key in lines:
            raise UsageError(f"config: key {key!r} repeated at {path}:{lines[key]} and {path}:{lineno}")
        lines[key] = lineno
        values[_config_field(key)] = _parse_value(key, value.strip())
    return values


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    values = _load_config_file(args.config) if args.config else {}
    for key in _FIELDS:
        text = getattr(args, key)
        if text is not None:
            values[_config_field(key)] = _parse_value(key, text)
    try:
        return ExperimentConfig(**values)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def parse_config(argv) -> ExperimentConfig:
    """Resolve flags and optional config file into an ExperimentConfig.

    Precedence: built-in defaults < config file < command-line flags.
    """
    args = build_parser().parse_args(list(argv))
    return _build_config(args)


def _fmt(value: float) -> str:
    return repr(float(value))


def emit_csv(traces, path) -> None:
    """Write all traces as long-format CSV (one row per iteration point).

    Rows are ordered by cell key, then iteration; floats are written in
    shortest round-trip form so parsing the file recovers them exactly.
    """
    items = sorted(traces.items())
    if not items:
        raise ValueError("no traces to emit")
    templates = {}  # trace length -> one bytes template for a whole block
    with open(path, "wb") as handle:
        handle.write(CSV_HEADER.encode() + b"\n")
        # one cell's block at a time, so the whole file is never one buffer
        for key, trace in items:
            with np.errstate(divide="ignore"):
                db = 10.0 * np.log10(trace)
            n = len(trace)
            if n not in templates:
                # a bytes %r writes repr(float); %s inserts the prefix as is
                templates[n] = b"".join(b"%s," + b"%d" % i + b",%r,%r\n" for i in range(n))
            prefix = f"{key.algorithm},{_fmt(key.snr_db)},{_fmt(key.mu)},{key.k},{key.nt},{key.nr}"
            fields = [prefix.encode()] * (3 * n)
            fields[1::3] = trace.tolist()
            fields[2::3] = db.tolist()
            handle.write(templates[n] % tuple(fields))


def _ss_db(trace: np.ndarray) -> float:
    ss = steady_state_mse(trace)
    return 10.0 * math.log10(ss) if ss > 0 else -math.inf


def _tie(a: float, b: float) -> bool:
    return a == b or abs(a - b) < 0.1


def emit_summary(traces) -> str:
    """Per-cell steady-state table with ordering verdicts.

    Algorithms are listed best (lowest steady-state MSE) first; values
    within 0.1 dB are declared a tie. When one algorithm was run at
    several sparsity levels, its spread across them is reported.
    """
    items = [(key, traces[key]) for key in sorted(traces)]
    if not items:
        raise ValueError("no traces to summarize")
    cells: dict[tuple, dict[str, np.ndarray]] = {}
    for key, trace in items:
        cells.setdefault((key.nt, key.nr, key.k, key.snr_db, key.mu), {})[key.algorithm] = trace
    out = []
    for (nt, nr, k, snr, mu), algs in cells.items():
        out.append(f"cell nt={nt} nr={nr} k={k} snr_db={snr:g} mu={mu:g}")
        ranked = sorted(algs.items(), key=lambda item: _ss_db(item[1]))
        for name, trace in ranked:
            ss = _ss_db(trace)
            reach = first_iteration_below(trace, 2.0 * steady_state_mse(trace))
            out.append(f"  {name:<8} steady-state {ss:8.2f} dB   reaches 2x floor @ iter {reach}")
        if len(ranked) > 1:
            parts = [ranked[0][0]]
            for (prev, ptrace), (name, trace) in zip(ranked, ranked[1:]):
                sep = " ~ " if _tie(_ss_db(ptrace), _ss_db(trace)) else " < "
                parts.append(sep + name)
            out.append("  verdict: " + "".join(parts))
    spreads: dict[tuple, dict[int, float]] = {}
    for key, trace in items:
        spreads.setdefault((key.algorithm, key.nt, key.nr, key.snr_db, key.mu), {})[key.k] = _ss_db(trace)
    for (alg, nt, nr, snr, mu), per_k in sorted(spreads.items()):
        if len(per_k) > 1:
            lo, hi = min(per_k.values()), max(per_k.values())
            ks = ",".join(str(k) for k in sorted(per_k))
            out.append(
                f"{alg} sparsity sensitivity at nt={nt} nr={nr} snr_db={snr:g} mu={mu:g}: "
                f"spread over k={{{ks}}} is {hi - lo:.2f} dB"
            )
    return "\n".join(out) + "\n"


@dataclasses.dataclass
class RunManifest:
    """Everything needed to reproduce one results file byte-for-byte."""

    config: dict
    version: str
    seed: int
    started: str
    finished: str
    divergence_counts: dict

    @classmethod
    def collect(cls, config: ExperimentConfig, result: GridResult, started: str, finished: str) -> "RunManifest":
        return cls(
            config=dataclasses.asdict(config),
            version=__version__,
            seed=config.seed,
            started=started,
            finished=finished,
            divergence_counts={_key_string(key): len(runs) for key, runs in result.diverged.items()},
        )

    def write(self, path) -> None:
        """Dump to a sibling temporary file, then move it over ``path``: a failed dump leaves no partial manifest."""
        temporary = Path(f"{path}.tmp")
        try:
            with open(temporary, "w", encoding="utf-8", newline="\n") as handle:
                json.dump(dataclasses.asdict(self), handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(temporary, path)
        finally:
            temporary.unlink(missing_ok=True)

    @classmethod
    def load(cls, path) -> "RunManifest":
        return cls(**json.loads(Path(path).read_text(encoding="utf-8")))

    def experiment_config(self) -> ExperimentConfig:
        return ExperimentConfig(**self.config)


def _key_string(key: CellKey) -> str:
    return f"algorithm={key.algorithm} snr_db={_fmt(key.snr_db)} mu={_fmt(key.mu)} k={key.k} nt={key.nt} nr={key.nr}"


def manifest_path_for(out_path) -> Path:
    out = Path(out_path)
    return out.with_name(out.stem + ".manifest.json")


def replay_manifest(manifest_path, out_path, workers: int = 1) -> GridResult:
    """Re-run the experiment recorded in a manifest and rewrite its CSV."""
    if Path(out_path).resolve() == Path(manifest_path).resolve():
        raise ValueError(f"out_path: {out_path} is the manifest itself")
    manifest = RunManifest.load(manifest_path)
    result = run_grid(manifest.experiment_config(), workers=workers)
    emit_csv(result, out_path)
    return result


PLOT_TEMPLATE = """#!/usr/bin/env python3
# Learning-curve plot template for {csv}
# The CSV is long format with header:
#   {header}
# Each (algorithm, snr_db, mu, k, nt, nr) combination is one curve of
# avg_mse_db against iteration.
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

curves = defaultdict(list)
with open({csv!r}, newline="") as handle:
    for row in csv.DictReader(handle):
        label = "{{algorithm}} snr={{snr_db}} mu={{mu}} k={{k}} {{nt}}x{{nr}}".format(**row)
        curves[label].append((int(row["iteration"]), float(row["avg_mse_db"])))

for label, points in sorted(curves.items()):
    points.sort()
    plt.plot([p[0] for p in points], [p[1] for p in points], label=label)

plt.xlabel("iteration")
plt.ylabel("average MSE (dB)")
plt.legend(fontsize="x-small")
plt.grid(True, alpha=0.3)
plt.tight_layout()
plt.show()
"""


def write_plot_script(path, csv_path) -> None:
    text = PLOT_TEMPLATE.format(csv=str(csv_path), header=CSV_HEADER)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _build_config(args)
        _count("workers", args.workers)
        files = {}  # each file the run reads or writes, the manifest's temporary too -> the flag naming it
        for flag, path in (("config", args.config), ("out", args.out), ("out", manifest_path_for(args.out)),
                           ("out", Path(f"{manifest_path_for(args.out)}.tmp")), ("plot-script", args.plot_script)):
            if path is not None and files.setdefault(path.resolve(), flag) != flag:
                raise UsageError(f"{flag}: {path} is also the {files[path.resolve()]} file")
    except ValueError as exc:  # a UsageError, or a bad worker count
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for path in filter(None, (args.out, args.plot_script)):  # found now, not after the whole grid
        if path.is_dir() or not path.parent.is_dir():
            where = f"{path} is a directory" if path.is_dir() else f"{path.parent} is not a directory"
            print(f"error: cannot write results: {where}", file=sys.stderr)
            return EXIT_IO

    started = _utc_now()
    result = run_grid(config, workers=args.workers)
    finished = _utc_now()

    for key, runs in result.diverged.items():
        if key not in result:
            print(f"warning: {_key_string(key)}: all {len(runs)} runs diverged", file=sys.stderr)
    if not result:
        print("error: every run of every cell diverged; no results to write", file=sys.stderr)
        return EXIT_ALL_DIVERGED

    try:
        emit_csv(result, args.out)
        manifest = RunManifest.collect(config, result, started, finished)
        manifest.write(manifest_path_for(args.out))
        if args.plot_script:
            write_plot_script(args.plot_script, args.out)
    except OSError as exc:
        print(f"error: cannot write results: {exc}", file=sys.stderr)
        return EXIT_IO

    if args.summary:
        print(emit_summary(result), end="")
    print(f"wrote {len(result)} cell traces to {args.out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
