"""Tests of the benchmark itself: tracer arithmetic and safety, checks, smoke passes.

    python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import dataclasses
import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

cli = run.load_cli()
import sparsemimo.experiment as experiment  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# Small enough for a test, large enough that the NLMS floors converge and
# unstable lms still diverges in every run.
TINY = {
    "reference_grid": {"runs": 1, "iterations": 600},
    "fading_bpsk": {"runs": 1, "iterations": 300},
    "short_runs_pool": {"runs": 4},
}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def test_self_time_subtracts_direct_children_only():
    names = ["cli.main", "experiment.run_single", "estimator.update", "signal.training"]
    table = np.array([
        # name, start, end, parent, run
        [0, 0, 100, -1, -1],
        [1, 10, 40, 0, 1],
        [2, 15, 25, 1, 1],
        [3, 50, 90, 0, -1],
    ])
    assert tr.self_times(table).tolist() == [30, 20, 10, 40]
    stats = tr.span_stats(table, names)
    assert stats.total_ns == {"cli.main": 100, "experiment.run_single": 30,
                              "estimator.update": 10, "signal.training": 40}
    layers = tr.layer_self_ns(stats)
    assert layers == {"cli": 30, "experiment": 20, "estimator": 10, "signal": 40}
    assert sum(layers.values()) == stats.total_ns["cli.main"]


def test_matching_sums_tagged_variants():
    field = {"estimator.update.nlms": 3, "estimator.update.lms": 4, "estimator.updater": 9}
    assert tr.matching(field, "estimator.update") == 7
    assert tr.matching(field, "estimator.missing") == 0


def _bindings():
    seen = {}
    for module in tr._modules():
        for attr, value in vars(module).items():
            seen[(module.__name__, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("sparsemimo"):
                for name, member in vars(value).items():
                    seen[(module.__name__, f"{attr}.{name}")] = member
    return seen


def test_traced_restores_every_binding_even_on_error():
    before = _bindings()
    tracer = tr.Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with tr.traced(tracer, tr.FULL_TARGETS):
            assert experiment.run_single is not before[("sparsemimo.experiment", "run_single")]
            raise RuntimeError("boom")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_missing_target_reports_zero_calls():
    targets = tr.FULL_TARGETS + (tr.Target("channel", "no_such_function", "channel.gone"),
                                 tr.Target("signal", "NoSuchClass.next", "signal.gone"))
    tracer = tr.Tracer()
    config = experiment.ExperimentConfig(runs=1, iterations=5, snr_db=(10.0,), mu=(0.5,),
                                         sparsity=(1,), algorithms=("nlms",))
    with tr.traced(tracer, targets):
        experiment.run_grid(config)
    stats = tr.span_stats(tracer.table(), tracer.names)
    assert tr.matching(stats.calls, "channel.gone") == 0
    assert stats.calls["experiment.run_single.nlms"] == 1


def test_spans_of_one_run_share_its_id():
    tracer = tr.Tracer()
    config = experiment.ExperimentConfig(runs=2, iterations=4, snr_db=(10.0,), mu=(0.5,),
                                         sparsity=(1,), algorithms=("nlms", "lms"))
    with tr.traced(tracer, tr.FULL_TARGETS):
        experiment.run_grid(config)
    table = tracer.table()
    names = tracer.names
    runs = [i for i, row in enumerate(table) if names[row[0]].startswith("experiment.run_single")]
    assert len(runs) == 4
    for i, row in enumerate(table):
        # walk up to the nearest run_single ancestor, if any
        ancestor = i
        while ancestor >= 0 and ancestor not in runs:
            ancestor = table[ancestor][3]
        assert row[4] == ancestor
    inside = [row for row in table if row[4] >= 0 and names[row[0]].startswith("estimator.update")]
    assert len(inside) == 4 * 3 * config.nr  # runs x (iterations - 1) x rows
    assert {names[row[0]] for row in inside} == {"estimator.update.nlms", "estimator.update.lms"}


def _one_pass(tmp_path, name):
    bench = run.Bench(cli, tiny(name), 5, tmp_path)
    assert bench.run_pass().passed, bench.problems
    return bench


def test_sampler_probes_during_a_block_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    with calibrate.Sampler() as probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
        spent = probe.spent_wall
    assert len(probe.times) >= 3
    assert 0 < spent < 0.2
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    wall_scale, cpu_scale = probe.scales()
    assert wall_scale > 0 and cpu_scale > 0
    with calibrate.Sampler() as short:
        pass
    assert len(short.times) == 1


def test_checks_fail_on_corrupt_output(tmp_path):
    bench = _one_pass(tmp_path, "short_runs_pool")
    lines = bench.csv.read_text().splitlines()
    lines[5] = ",".join(lines[5].split(",")[:7] + ["nan", "nan"])
    bench.csv.write_text("\n".join(lines) + "\n")
    verdict = checks.verify(bench.workload, 5, bench.csv, bench.manifest, None, "x")
    assert any("non-finite" in p for p in verdict.problems)
    bench.manifest.unlink()
    verdict = checks.verify(bench.workload, 5, bench.csv, bench.manifest, None, "x")
    assert any("manifest unreadable" in p for p in verdict.problems)


def test_pinned_mismatch_names_numpy_drift(tmp_path):
    bench = _one_pass(tmp_path, "short_runs_pool")
    out = checks.read_outputs(bench.csv, bench.manifest)
    record = checks.pin_record(bench.workload, out)
    record["cells"][2]["steady_state"] *= 1.01
    record["csv_sha256"] = "0" * 64
    pins = {"seed": 5, "numpy": "0.0", "workloads": {bench.workload.name: record}}
    drifted = checks.verify(bench.workload, 5, bench.csv, bench.manifest, pins, np.__version__)
    assert drifted.ok
    assert any("NEP 19" in note for note in drifted.notes)
    pins["numpy"] = np.__version__
    same = checks.verify(bench.workload, 5, bench.csv, bench.manifest, pins, np.__version__)
    assert any("steady-state" in p for p in same.problems)
    assert any("bytes moved" in note for note in same.notes)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_pass_prints_every_declared_metric(tmp_path, monkeypatch, name):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    bench = run.Bench(cli, tiny(name), 3, tmp_path)
    e2e = run.end_to_end(bench, seconds=0)
    layers = run.per_layer(bench, seconds=0)
    assert bench.failed == 0, bench.problems
    assert list(e2e) == [m["name"] for m in SPEC["end_to_end"]]
    assert list(layers) == [m["name"] for m in SPEC["per_layer"]]
    for spec in SPEC["end_to_end"] + SPEC["per_layer"]:
        got = e2e.get(spec["name"]) or layers[spec["name"]]
        assert got["unit"] == spec["unit"]
    assert all(v["value"] > 0 for v in e2e.values())
    assert layers["cli.csv_identical"]["value"] == 1.0


def test_pins_match_the_workloads():
    pins = checks.load_pins()
    for workload in WORKLOADS.values():
        assert checks.pinned_for(pins, workload, pins["seed"]) is not None, workload.name
