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
    first_iteration_below,
    run_grid,
    steady_state_mse,
)

__all__ = [
    "CSV_HEADER",
    "RunManifest",
    "emit_csv",
    "emit_summary",
    "main",
    "parse_config",
    "replay_manifest",
]

CSV_HEADER = "algorithm,snr_db,mu,k,nt,nr,iteration,avg_mse,avg_mse_db"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_ALL_DIVERGED = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits with status 2 by default
        raise ValueError(message)


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


def _parse_value(key: str, text: str):
    try:
        return _FIELDS[key][0](text)
    except ValueError:
        raise ValueError(f"{key}: could not parse {text!r}") from None


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
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"config: cannot read {path}: {exc}") from None
    values, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config: {path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ValueError(f"config: unknown key {key!r} at {path}:{lineno}")
        if key in lines:
            raise ValueError(f"config: key {key!r} repeated at {path}:{lines[key]} and {path}:{lineno}")
        lines[key] = lineno
        values[key] = _parse_value(key, value.strip())
    return values


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    values = _load_config_file(args.config) if args.config else {}
    for key in _FIELDS:
        if getattr(args, key) is not None:
            values[key] = _parse_value(key, getattr(args, key))
    return ExperimentConfig(**{"sparsity" if key == "k" else key: value for key, value in values.items()})


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


def emit_summary(traces) -> str:
    """Per-cell steady-state table with ordering verdicts.

    Algorithms are listed best (lowest steady-state MSE) first; values
    within 0.1 dB are declared a tie. When one algorithm was run at
    several sparsity levels, its spread across them is reported.
    """
    if not traces:
        raise ValueError("no traces to summarize")
    # each trace's steady state in dB, once, into its cell's rows and its per-K spread
    cells: dict[tuple, list[tuple[float, str, int]]] = {}
    spreads: dict[tuple, dict[int, float]] = {}
    for key in sorted(traces):
        ss = steady_state_mse(traces[key])
        db = 10.0 * math.log10(ss) if ss > 0 else -math.inf
        reach = first_iteration_below(traces[key], 2.0 * ss)
        cells.setdefault((key.nt, key.nr, key.k, key.snr_db, key.mu), []).append((db, key.algorithm, reach))
        spreads.setdefault((key.algorithm, key.nt, key.nr, key.snr_db, key.mu), {})[key.k] = db
    out = []
    for (nt, nr, k, snr, mu), rows in cells.items():
        out.append(f"cell nt={nt} nr={nr} k={k} snr_db={snr:g} mu={mu:g}")
        ranked = sorted(rows, key=lambda row: row[0])  # stable: equal values keep the name order
        out.extend(f"  {name:<8} steady-state {db:8.2f} dB   reaches 2x floor @ iter {reach}"
                   for db, name, reach in ranked)
        verdict = ranked[0][1]
        for (prev, _, _), (db, name, _) in zip(ranked, ranked[1:]):
            verdict += (" ~ " if prev == db or abs(prev - db) < 0.1 else " < ") + name  # == for -inf
        if len(ranked) > 1:
            out.append("  verdict: " + verdict)
    for (alg, nt, nr, snr, mu), per_k in sorted(spreads.items()):
        if len(per_k) > 1:
            lo, hi = min(per_k.values()), max(per_k.values())
            ks = ",".join(str(k) for k in sorted(per_k))
            out.append(
                f"{alg} sparsity sensitivity at nt={nt} nr={nr} snr_db={snr:g} mu={mu:g}: "
                f"spread over k={{{ks}}} is {0.0 if hi == lo else hi - lo:.2f} dB"  # == for -inf
            )
    return "\n".join(out) + "\n"


@dataclasses.dataclass
class RunManifest:
    """Everything needed to reproduce one results file byte-for-byte."""

    config: ExperimentConfig
    started: str
    finished: str
    divergence_counts: dict  # each cell's key string -> its dropped runs
    version: str = __version__

    def write(self, path) -> None:
        """Dump to a sibling temporary file, then move it over ``path``: a failed dump leaves no partial manifest."""
        temporary = _temporary_for(path)
        try:
            with open(temporary, "w", encoding="utf-8", newline="\n") as handle:
                json.dump(dataclasses.asdict(self), handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(temporary, path)
        finally:
            temporary.unlink(missing_ok=True)

    @classmethod
    def load(cls, path) -> "RunManifest":
        try:
            values = _exact_keys(json.loads(Path(path).read_text(encoding="utf-8")), cls)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"manifest: cannot read {path}: {exc}") from None
        return cls(**{**values, "config": ExperimentConfig(**_exact_keys(values["config"], ExperimentConfig, "config"))})


def _exact_keys(values: dict, cls, name: str = "") -> dict:
    """``values``, at manifest key ``name`` ("" for the file), if a dict keyed by ``cls``'s fields; else a ``ValueError``."""
    if not isinstance(values, dict):
        raise ValueError(f"manifest: {name or 'the file'} must be a JSON object, got {type(values).__name__}")
    fields, prefix = {field.name for field in dataclasses.fields(cls)}, f"{name}." if name else ""
    problems = [f"{kind} key {prefix}{key}" for kind, keys in (("unknown", values.keys() - fields),
                                                              ("missing", fields - values.keys())) for key in sorted(keys)]
    if problems:
        raise ValueError("manifest: " + ", ".join(problems))
    return values


def _key_string(key: CellKey) -> str:
    return f"algorithm={key.algorithm} snr_db={_fmt(key.snr_db)} mu={_fmt(key.mu)} k={key.k} nt={key.nt} nr={key.nr}"


def manifest_path_for(out_path) -> Path:
    out = Path(out_path)
    return out.with_name(out.stem + ".manifest.json")


def _temporary_for(path) -> Path:
    """The sibling file a manifest is dumped to before it replaces ``path``."""
    return Path(f"{path}.tmp")


def _refuse_paths(reads, writes) -> None:
    """Refuse ``(name, path)`` files, ``None`` unset: one under two names (``ValueError``), then an unwritable output."""
    files = {}  # each file -> the first name naming it
    for name, path in [*reads, *writes]:
        if path is not None and files.setdefault(Path(path).resolve(), name) != name:
            raise ValueError(f"{name}: {path} is also the {files[Path(path).resolve()]} file")
    for path in (Path(path) for _, path in writes if path is not None):
        if path.is_dir() or not path.parent.is_dir():
            raise OSError(f"{path} is a directory" if path.is_dir() else f"{path.parent} is not a directory")


def replay_manifest(manifest_path, out_path, workers: int = 1) -> GridResult:
    """Re-run the experiment recorded in a manifest and rewrite its CSV."""
    _refuse_paths([("manifest", manifest_path)], [("out_path", out_path)])
    manifest = RunManifest.load(manifest_path)
    result = run_grid(manifest.config, workers=workers)
    emit_csv(result, out_path)
    return result


PLOT_TEMPLATE = """#!/usr/bin/env python3
# Learning-curve plot template. The CSV is long format with header:
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


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _build_config(args)
        manifest = manifest_path_for(args.out)
        # the file the run reads, then each it writes, the manifest's temporary too, by the flag naming it
        _refuse_paths([("config", args.config)], [("out", args.out), ("out", manifest),
                                                  ("out", _temporary_for(manifest)), ("plot-script", args.plot_script)])
        started = _utc_now()
        result = run_grid(config, workers=args.workers)
        record = RunManifest(config, started, _utc_now(), {_key_string(key): len(runs) for key, runs in result.diverged.items()})
        for key, count in record.divergence_counts.items():
            if count == config.runs:  # a cell that dropped all of its runs is missing from the result
                print(f"warning: {key}: all {count} runs diverged", file=sys.stderr)
        if not result:
            print("error: every run of every cell diverged; no results to write", file=sys.stderr)
            return EXIT_ALL_DIVERGED
        manifest.unlink(missing_ok=True)  # so a manifest beside the CSV always describes it
        emit_csv(result, args.out)
        record.write(manifest)
        if args.plot_script:
            # the script names the CSV only through repr, which escapes a line break or a lone surrogate
            args.plot_script.write_text(PLOT_TEMPLATE.format(csv=str(args.out), header=CSV_HEADER), "utf-8", newline="\n")
    except ValueError as exc:  # a bad flag, file line, config rule, path, worker count or pool, or runs whose sum overflows
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # an output path that cannot be written; the grid raises none
        print(f"error: cannot write results: {exc}", file=sys.stderr)
        return EXIT_IO

    if args.summary:
        print(emit_summary(result), end="")
    print(f"wrote {len(result)} cell traces to {args.out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
