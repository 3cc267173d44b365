"""Output check for one benchmark pass: the CSV and manifest the CLI wrote.

At the pinned seed the outputs are compared with ``pins.json``: per-cell
steady-state MSE within a small relative tolerance and exact dropped-run
counts. A CSV whose bytes differ from the pinned sha256 is reported, not
failed. On every seed the seed-free checks run: all values finite,
iteration-0 MSE equal to ``nr * nt``, NLMS floors near closed-form theory on
static channels, normalized rules never diverging and clearly unstable
``lms`` cells diverging in every run.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

from workloads import Workload

CSV_HEADER = "algorithm,snr_db,mu,k,nt,nr,iteration,avg_mse,avg_mse_db"
PINS_PATH = Path(__file__).resolve().with_name("pins.json")
STEADY_RTOL = 1e-6
NORMALIZED = ("nlms", "lp_nlms", "l0_nlms")


@dataclasses.dataclass
class Outputs:
    """What one pass produced, reduced to what the checks compare."""

    sha256: str
    rows: int
    curves: dict  # cell -> list of avg_mse, index = iteration
    dropped: dict  # cell -> dropped-run count from the manifest
    problems: list  # malformed output found while reading


@dataclasses.dataclass
class Verdict:
    problems: list
    notes: list
    sha256: str
    rows: int
    dropped_runs: int
    pinned_sha256: str | None

    @property
    def ok(self) -> bool:
        return not self.problems


def _cell(parts) -> tuple:
    return (parts[0], float(parts[1]), float(parts[2]), int(parts[3]), int(parts[4]), int(parts[5]))


def _manifest_cell(text: str) -> tuple:
    fields = dict(item.split("=", 1) for item in text.split())
    return (fields["algorithm"], float(fields["snr_db"]), float(fields["mu"]),
            int(fields["k"]), int(fields["nt"]), int(fields["nr"]))


def read_outputs(csv_path, manifest_path) -> Outputs:
    problems = []
    data = Path(csv_path).read_bytes()
    lines = data.decode("utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        problems.append(f"CSV header is {lines[0] if lines else ''!r}, expected {CSV_HEADER!r}")
    curves: dict = {}
    for number, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        try:
            curve = curves.setdefault(_cell(parts), [])
            iteration, mse, mse_db = int(parts[6]), float(parts[7]), float(parts[8])
        except (IndexError, ValueError):
            problems.append(f"CSV line {number} is malformed: {line[:80]!r}")
            continue
        if iteration != len(curve):
            problems.append(f"CSV line {number}: iteration {iteration}, expected {len(curve)}")
        if not (math.isfinite(mse) and math.isfinite(mse_db) and mse >= 0):
            problems.append(f"CSV line {number}: non-finite or negative MSE {line[:80]!r}")
        curve.append(mse)
    dropped = {}
    try:
        manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
        for key, count in manifest["divergence_counts"].items():
            dropped[_manifest_cell(key)] = int(count)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"manifest unreadable: {type(exc).__name__}: {exc}")
    return Outputs(hashlib.sha256(data).hexdigest(), len(lines) - 1, curves, dropped, problems)


def steady_state(curve) -> float:
    """Mean of the final 20 % of a curve, as ``sparsemimo.steady_state_mse``."""
    tail = max(1, int(round(0.2 * len(curve))))
    return math.fsum(curve[-tail:]) / tail


def db(value: float) -> float:
    return 10.0 * math.log10(value) if value > 0 else -math.inf


def nlms_floor(workload: Workload, snr_db: float, mu: float) -> float:
    """Theoretical NLMS steady-state MSD for white input (Sayed 2008, Haykin).

    ``nr * mu * sigma^2 / (2 - mu) * N / (N - 2)`` with ``N = nt * L``;
    -11.48 dB at 2x2, L=16, 10 dB, mu=0.5.
    """
    n = workload.nt * workload.length
    variance = 10.0 ** (-snr_db / 10.0)
    return workload.nr * mu * variance / (2.0 - mu) * n / (n - 2)


def floor_tolerance_db(runs: int) -> float:
    """Allowed gap between a simulated NLMS floor and theory, in dB.

    About four standard deviations of the run-averaged floor. Measured at
    2x2, L=16, 10 dB: single runs of 2000 iterations fell -0.91 to +1.32 dB
    from theory (160 runs); 4-run averages of 500 iterations at mu=1 within
    +-0.85 dB (40 cells); 60-run averages within +-0.2 dB.
    """
    return min(2.0, 3.0 / math.sqrt(runs))


def unstable_lms(workload: Workload, mu: float) -> bool:
    """LMS far past its stability bound mu < 2 / (N * input power), N = nt*L."""
    return mu * workload.nt * workload.length >= 4.0


def seed_free_problems(workload: Workload, out: Outputs) -> list[str]:
    problems = []
    expected_rows = 0
    for cell in workload.cells():
        algorithm, snr, mu = cell[0], cell[1], cell[2]
        dropped = out.dropped.get(cell)
        if dropped is None:
            problems.append(f"{cell}: missing from the manifest")
            continue
        if algorithm in NORMALIZED and dropped:
            problems.append(f"{cell}: {dropped} runs diverged; normalized rules are stable for mu < 2")
        if algorithm == "lms" and unstable_lms(workload, mu) and dropped != workload.runs:
            problems.append(f"{cell}: {dropped}/{workload.runs} runs diverged; unstable lms must drop all")
        curve = out.curves.get(cell)
        if dropped == workload.runs:
            if curve is not None:
                problems.append(f"{cell}: every run diverged but the CSV has a curve")
            continue
        if curve is None:
            problems.append(f"{cell}: no curve in the CSV")
            continue
        expected_rows += workload.iterations
        if len(curve) != workload.iterations:
            problems.append(f"{cell}: {len(curve)} rows, expected {workload.iterations}")
            continue
        cold = workload.nr * workload.nt
        if abs(curve[0] - cold) > 1e-9 * cold:
            problems.append(f"{cell}: iteration-0 MSE {curve[0]!r}, expected nr*nt = {cold}")
        if algorithm == "nlms" and workload.fading_period is None:
            gap = db(steady_state(curve)) - db(nlms_floor(workload, snr, mu))
            tol = floor_tolerance_db(workload.runs - dropped)
            if not abs(gap) <= tol:
                problems.append(f"{cell}: NLMS floor is {gap:+.2f} dB from theory (tolerance {tol} dB)")
    extra = set(out.curves) - set(workload.cells())
    if extra:
        problems.append(f"CSV has cells outside the grid: {sorted(extra)[:3]}")
    if out.rows != expected_rows:
        problems.append(f"CSV has {out.rows} rows, expected {expected_rows}")
    return problems


def load_pins(path=PINS_PATH) -> dict | None:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None


def pin_record(workload: Workload, out: Outputs) -> dict:
    """What ``pins.json`` stores for one workload at the pinned seed."""
    cells = []
    for cell in workload.cells():
        curve = out.curves.get(cell)
        cells.append({
            "cell": list(cell),
            "steady_state": steady_state(curve) if curve else None,
            "dropped": out.dropped.get(cell),
        })
    return {"flags": workload.flags(), "csv_sha256": out.sha256, "rows": out.rows, "cells": cells}


def pinned_for(pins: dict | None, workload: Workload, seed: int) -> dict | None:
    """The pinned record, if this workload at this seed is what was pinned."""
    if not pins or seed != pins.get("seed"):
        return None
    record = pins.get("workloads", {}).get(workload.name)
    if record is None or record.get("flags") != workload.flags():
        return None
    return record


def pinned_mismatches(record: dict, out: Outputs) -> list[str]:
    found = []
    for entry in record["cells"]:
        cell = tuple(entry["cell"])
        curve = out.curves.get(cell)
        want = entry["steady_state"]
        if want is None or curve is None:
            if (want is None) != (curve is None):
                found.append(f"{cell}: pinned {'no curve' if want is None else 'a curve'}, got the other")
        elif abs(steady_state(curve) - want) > STEADY_RTOL * abs(want):
            found.append(f"{cell}: steady-state MSE {steady_state(curve)!r}, pinned {want!r}")
        if out.dropped.get(cell) != entry["dropped"]:
            found.append(f"{cell}: {out.dropped.get(cell)} dropped runs, pinned {entry['dropped']}")
    return found


def verify(workload: Workload, seed: int, csv_path, manifest_path, pins: dict | None,
           numpy_version: str) -> Verdict:
    out = read_outputs(csv_path, manifest_path)
    problems = out.problems + seed_free_problems(workload, out)
    notes = []
    record = pinned_for(pins, workload, seed)
    if record is not None:
        drift = pins.get("numpy") != numpy_version
        cause = (f"numpy is {numpy_version} but the pins were made with {pins.get('numpy')}; "
                 "numpy promises no Generator stream stability across versions (NEP 19), "
                 "so this is the likely cause")
        mismatches = pinned_mismatches(record, out)
        if mismatches and drift:
            notes.append(f"pinned values differ in {len(mismatches)} places; {cause}; "
                         "the seed-free checks decide this pass")
        else:
            problems += mismatches
        if out.sha256 != record["csv_sha256"]:
            notes.append(
                f"CSV sha256 {out.sha256[:16]} differs from the pinned {record['csv_sha256'][:16]}: "
                + (cause if drift else "the bytes moved; the change must explain why")
            )
    dropped = sum(out.dropped.values())
    return Verdict(problems, notes, out.sha256, out.rows, dropped,
                   record["csv_sha256"] if record else None)
