"""Tests for configuration parsing, CSV/manifest emission, and exit codes."""

import ast
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sparsemimo import cli, experiment
from sparsemimo.cli import (
    CSV_HEADER,
    RunManifest,
    emit_csv,
    emit_summary,
    main,
    manifest_path_for,
    parse_config,
    replay_manifest,
)
from sparsemimo.experiment import CellKey, ExperimentConfig, run_grid


def _trace(values):
    return np.asarray(values, dtype=float)


def _key(algorithm, snr=10.0, mu=0.5, k=1, nt=2, nr=2):
    return CellKey(algorithm, snr, mu, k, nt, nr)


def _oracle_csv(traces, path):
    """Reference writer for emit_csv: the header, then one f-string per row."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(CSV_HEADER + "\n")
        for key, trace in sorted(traces.items()):
            with np.errstate(divide="ignore"):
                db = 10.0 * np.log10(trace)
            prefix = f"{key.algorithm},{float(key.snr_db)!r},{float(key.mu)!r},{key.k},{key.nt},{key.nr}"
            for i, (value, level) in enumerate(zip(trace.tolist(), db.tolist())):
                handle.write(f"{prefix},{i},{value!r},{level!r}\n")


def _written(tmp_path, traces):
    """The bytes ``emit_csv`` writes for ``traces``."""
    out = tmp_path / "t.csv"
    emit_csv(traces, out)
    return out.read_bytes()


def _without(data, key):
    return {name: value for name, value in data.items() if name != key}


TINY_ARGS = [
    "--runs", "2", "--iterations", "40", "--length", "8",
    "--snr-db", "10", "--mu", "0.5", "--k", "1", "--algorithms", "nlms,l0_nlms",
    "--seed", "9",
]

# flags after TINY_ARGS that exit 1 -> the start of the error line
_REFUSED = [
    ("--mu -1", "error: mu: "),
    ("--nope", "error: unrecognized arguments: --nope"),
    ("--workers x", "error: argument --workers: invalid int value: 'x'"),
    ("--workers 0", "error: workers: "),
    ("--algorithms l0_nlms --beta nan", "error: beta: "),
    # 2 * beta**2 is inf, or raises OverflowError under **, in the first l0_nlms update
    ("--algorithms l0_nlms --beta 1.35e154", "error: beta: "),
    ("--algorithms l0_nlms --beta 1e200", "error: beta: "),
    # 1 / 10 ** (snr / 10) overflows, divides by zero or comes out inf
    *[(f"--snr-db {snr}", "error: snr_db: ") for snr in ("3083", "4000", "-4000", "-3100")],
]


class TestParseConfig:
    def test_no_args_gives_reference_defaults(self):
        # the command line's defaults are the config's, and those are the reference grid
        config = parse_config([])
        assert config == ExperimentConfig()
        assert (config.length, config.sparsity, config.snr_db, config.mu, config.runs, config.iterations) == (
            16, (1, 4), (5.0, 10.0, 15.0), (0.5, 1.0), 1000, 2000)
        assert config.lambda_lp is None and config.lambda_l0 is None
        assert config.algorithms == ("nlms", "lp_nlms", "l0_nlms")

    def test_flag_overrides(self):
        config = parse_config(["--runs", "100", "--snr-db", "10", "--k", "1"])
        assert config.runs == 100
        assert config.snr_db == (10.0,)
        assert config.sparsity == (1,)

    def test_csv_lists_parse(self):
        config = parse_config(["--mu", "0.5,1,1.5", "--algorithms", "nlms , l0_nlms"])
        assert config.mu == (0.5, 1.0, 1.5)
        assert config.algorithms == ("nlms", "l0_nlms")

    def test_infinite_snr_accepted(self):
        config = parse_config(["--snr-db", "inf"])
        assert config.snr_db == (math.inf,)

    def test_unknown_flag_rejected(self):
        with pytest.raises(ValueError, match="unrecognized arguments: --frobnicate 1"):
            parse_config(["--frobnicate", "1"])

    def test_field_table_matches_config_fields(self):
        keys = {"sparsity" if key == "k" else key for key in cli._FIELDS}
        assert keys == {field.name for field in dataclasses.fields(ExperimentConfig)}

    def test_unparsable_value_names_key(self):
        with pytest.raises(ValueError, match="snr_db"):
            parse_config(["--snr-db", "ten"])

    def test_config_file_and_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# reduced sweep\n"
            "runs = 7\n"
            "snr_db = 5, 15   # two points\n"
            "k = 4\n"
            "generator = bpsk\n",
            encoding="utf-8",
        )
        config = parse_config(["--config", str(path)])
        assert config.runs == 7
        assert config.snr_db == (5.0, 15.0)
        assert config.sparsity == (4,)
        assert config.generator == "bpsk"
        # flags beat the file
        config = parse_config(["--config", str(path), "--runs", "3", "--k", "1"])
        assert config.runs == 3
        assert config.snr_db == (5.0, 15.0)
        assert config.sparsity == (1,)

    def test_config_file_may_start_with_a_bom(self, tmp_path):
        # Windows Notepad saves UTF-8 with a byte order mark
        text = "runs = 7\nsnr_db = 5, 15\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert parse_config(["--config", str(marked)]) == parse_config(["--config", str(plain)])

    def test_config_file_bad_value_fails_under_a_flag(self, tmp_path, capsys):
        # file values are parsed when the file loads, even one a flag overrides
        path = tmp_path / "run.cfg"
        path.write_text("runs = many\n", encoding="utf-8")
        assert main(["--config", str(path), "--runs", "3"]) == 1
        assert "runs: could not parse 'many'" in capsys.readouterr().err

    def test_config_file_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("runs = 100\n# smaller\nseed = 4\nruns = 2\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"'runs' repeated at .*run\.cfg:1 and .*run\.cfg:4"):
            parse_config(["--config", str(path)])
        # a repeated flag keeps argparse's last value
        assert parse_config(["--runs", "100", "--runs", "2"]).runs == 2

    @pytest.mark.parametrize("text, message", [
        (None, "config: cannot read {path}: "),
        (b"runs = 7\n# caf\xe9\n", "config: cannot read {path}: "),  # Latin-1, not UTF-8
        (b"runs 7\n", "config: {path}:1: expected key=value, got 'runs 7'"),
        (b"stepsize = 0.5\n", "config: unknown key 'stepsize' at {path}:1"),
    ], ids=["missing", "not-utf-8", "bad-line", "unknown-key"])
    def test_config_file_errors_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "run.cfg"
        if text is not None:
            path.write_bytes(text)
        with pytest.raises(ValueError, match="^" + re.escape(message.format(path=path))):
            parse_config(["--config", str(path)])


class TestEmitCsv:
    def test_header_and_row_count(self, tmp_path):
        out = tmp_path / "t.csv"
        emit_csv({_key("nlms"): _trace([1.0, 0.5, 0.25])}, out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        assert lines[1] == "nlms,10.0,0.5,1,2,2,0,1.0,0.0"

    def test_empty_traces_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv({}, tmp_path / "t.csv")

    def test_unit_mse_maps_to_zero_db(self, tmp_path):
        assert _written(tmp_path, {_key("nlms"): _trace([1.0])}).endswith(b",0,1.0,0.0\n")

    def test_zero_mse_writes_minus_inf_db(self, tmp_path):
        assert _written(tmp_path, {_key("nlms"): _trace([0.0])}).endswith(b",0,0.0,-inf\n")

    def test_lf_line_endings(self, tmp_path):
        raw = _written(tmp_path, {_key("nlms"): _trace([1.0, 2.0])})
        assert b"\r" not in raw and raw.endswith(b"\n")

    def test_round_trip_recovers_floats_exactly(self, tmp_path):
        rng = np.random.default_rng(0)
        values = np.abs(rng.standard_normal(50)) * 10.0 ** rng.integers(-9, 3, 50)
        rows = _written(tmp_path, {_key("nlms"): _trace(values)}).decode().splitlines()[1:]
        assert np.array([float(row.split(",")[7]) for row in rows]).tobytes() == values.tobytes()

    def test_rows_sorted_by_key_then_iteration(self, tmp_path):
        traces = {_key("nlms", snr=15.0): _trace([1.0]), _key("l0_nlms", snr=5.0): _trace([1.0]),
                  _key("nlms", snr=5.0): _trace([1.0, 0.5])}
        rows = [line.split(",") for line in _written(tmp_path, traces).decode().splitlines()[1:]]
        assert [(row[0], row[1], row[6]) for row in rows] == [
            ("l0_nlms", "5.0", "0"), ("nlms", "5.0", "0"), ("nlms", "5.0", "1"), ("nlms", "15.0", "0")]

    def test_matches_per_row_repr_oracle(self, tmp_path):
        rng = np.random.default_rng(3)
        long = np.abs(rng.standard_normal(2000)) * 10.0 ** rng.integers(-300, 300, 2000)
        traces = {
            # scientific-form reprs, the smallest subnormal, values >= 1e16, an exact 0.0
            _key("nlms", snr=math.inf): _trace([1e-05, 2.5e-300, 5e-324, 1e16, 1.5e17, 0.0, 1.0, 0.1 + 0.2]),
            _key("lp_nlms"): _trace([]),
            _key("l0%s_nlms%", mu=0.1): _trace([2.0]),
            _key("nlms", snr=5.0, k=4): long,
        }
        out, expected = tmp_path / "t.csv", tmp_path / "oracle.csv"
        emit_csv(traces, out)
        _oracle_csv(traces, expected)
        written = out.read_bytes()
        assert b"\nnlms,inf,0.5,1,2,2,5,0.0,-inf\n" in written
        assert b"\nl0%s_nlms%,10.0,0.1,1,2,2,0,2.0," in written
        assert written == expected.read_bytes()

    def test_streams_one_cell_at_a_time(self, tmp_path):
        # Each cell's block is formatted and written before the next one's,
        # so eight cells peak at about one cell's memory. Measured ratio of
        # the peaks: 1.09 here; 6.5 when every block is formatted before the
        # first is written.
        rng = np.random.default_rng(4)
        cells = [(_key("nlms", mu=0.1 * (j + 1)), rng.uniform(1e-4, 1.0, 10_000)) for j in range(8)]

        def peak(traces):
            tracemalloc.start()
            try:
                emit_csv(traces, tmp_path / "t.csv")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(dict(cells)) <= 1.25 * peak(dict(cells[:1]))


class TestEmitSummary:
    def test_no_traces_refused(self):
        with pytest.raises(ValueError, match="no traces"):
            emit_summary({})

    def test_verdict_lists_best_first(self):
        traces = {
            _key("nlms"): _trace([1e-2] * 10),
            _key("l0_nlms"): _trace([1e-3] * 10),
        }
        text = emit_summary(traces)
        assert "verdict: l0_nlms < nlms" in text

    def test_single_algorithm_has_no_verdict(self):
        text = emit_summary({_key("nlms"): _trace([1e-2] * 10)})
        assert "verdict" not in text

    def test_equal_values_declared_tie(self):
        traces = {
            _key("nlms"): _trace([1e-2] * 10),
            _key("lp_nlms"): _trace([1.01e-2] * 10),
        }
        text = emit_summary(traces)
        assert "~" in text.split("verdict:")[1].splitlines()[0]

    def test_zero_mse_ties_with_zero_and_ranks_first(self):
        # a noiseless run can reach zero MSE, whose steady state is -inf dB
        zero, small = _trace([1.0] + [0.0] * 9), _trace([1e-2] * 10)
        assert "verdict: l0_nlms ~ nlms\n" in emit_summary({_key("nlms"): zero, _key("l0_nlms"): zero})
        assert "verdict: nlms < l0_nlms\n" in emit_summary({_key("nlms"): zero, _key("l0_nlms"): small})

    def test_equal_zero_floors_spread_by_zero(self):
        # two -inf dB floors tie in the verdict, so their spread is 0, not -inf - -inf
        zero, small = _trace([1.0] + [0.0] * 9), _trace([1e-2] * 10)
        text = emit_summary({_key("nlms", k=1): zero, _key("nlms", k=4): zero})
        assert text.endswith("spread over k={1,4} is 0.00 dB\n")
        text = emit_summary({_key("nlms", k=1): zero, _key("nlms", k=4): small})
        assert text.endswith("spread over k={1,4} is inf dB\n")

    def test_sparsity_spread_reported(self):
        traces = {
            _key("nlms", k=1): _trace([1e-2] * 10),
            _key("nlms", k=4): _trace([1.2e-2] * 10),
        }
        text = emit_summary(traces)
        assert "nlms sparsity sensitivity" in text
        assert "k={1,4}" in text


class TestMainAndManifest:
    def test_tiny_run_writes_csv_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        code = main(TINY_ARGS + ["--out", str(out)])
        assert code == 0
        assert out.exists()
        manifest_file = manifest_path_for(out)
        assert manifest_file.exists()
        manifest = RunManifest.load(manifest_file)
        assert manifest.config.seed == 9
        assert manifest.config == parse_config(TINY_ARGS)
        assert capsys.readouterr().out.startswith("wrote 2 cell traces")

    def test_manifest_replay_reproduces_csv_bytes(self, tmp_path):
        out = tmp_path / "res.csv"
        assert main(TINY_ARGS + ["--out", str(out)]) == 0
        replay_out = tmp_path / "replay.csv"
        replay_manifest(manifest_path_for(out), replay_out)
        assert replay_out.read_bytes() == out.read_bytes()

    def test_numpy_integer_sparsity_manifest_replays(self, tmp_path):
        # numpy integers are stored as int, so the manifest's JSON can hold them
        config = ExperimentConfig(sparsity=tuple(np.arange(1, 3)), snr_db=(10.0,), mu=(0.5,),
                                  algorithms=("nlms",), runs=2, iterations=40, length=8)
        assert [type(k) for k in config.sparsity] == [int, int]
        out, manifest = tmp_path / "res.csv", tmp_path / "res.manifest.json"
        result = run_grid(config)
        emit_csv(result, out)
        RunManifest(config, "start", "end", {}).write(manifest)
        replay_manifest(manifest, tmp_path / "replay.csv")
        assert (tmp_path / "replay.csv").read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("real", [np.float32, np.float64])
    def test_numpy_float_knobs_manifest_replays(self, tmp_path, real):
        # numpy floats are stored as float, so the manifest's JSON can hold them
        config = ExperimentConfig(snr_db=(real(10.0),), mu=(real(0.5),), p=real(0.5), epsilon=real(0.25),
                                  beta=real(8.0), lambda_l0=real(2.0**-18), sparsity=(1,),
                                  algorithms=("nlms", "l0_nlms"), runs=2, iterations=40, length=8)
        out, manifest = tmp_path / "res.csv", tmp_path / "res.manifest.json"
        result = run_grid(config)
        emit_csv(result, out)
        RunManifest(config, "start", "end", {}).write(manifest)
        assert RunManifest.load(manifest).config == config
        replay_manifest(manifest, tmp_path / "replay.csv")
        assert (tmp_path / "replay.csv").read_bytes() == out.read_bytes()

    def test_replay_over_its_manifest_refused_before_the_grid_runs(self, tmp_path, monkeypatch):
        assert main(TINY_ARGS + ["--out", str(tmp_path / "res.csv")]) == 0
        manifest = manifest_path_for(tmp_path / "res.csv")
        before = manifest.read_bytes()
        monkeypatch.setattr(cli, "run_grid", lambda *args, **kwargs: pytest.fail("the grid ran"))
        # another spelling of the same file
        out = tmp_path / ".." / tmp_path.name / manifest.name
        with pytest.raises(ValueError, match=f"^out_path: {re.escape(str(out))} is also the manifest file$"):
            replay_manifest(manifest, out)
        assert manifest.read_bytes() == before

    @pytest.mark.parametrize("name, where, cut", [(".", "{out} is a directory", None),
                                                  ("missing-dir/replay.csv", "{out.parent} is not a directory", None),
                                                  # the path's OSError, not the cut manifest's ValueError
                                                  (".", "{out} is a directory", 11)],
                             ids=["directory", "missing-parent", "directory-truncated-manifest"])
    def test_unwritable_replay_target_refused_before_the_grid_runs(self, tmp_path, monkeypatch, name, where, cut):
        assert main(TINY_ARGS + ["--out", str(tmp_path / "res.csv")]) == 0
        manifest = manifest_path_for(tmp_path / "res.csv")
        manifest.write_bytes(manifest.read_bytes()[:cut])
        monkeypatch.setattr(cli, "run_grid", lambda *args, **kwargs: pytest.fail("the grid ran"))
        out = tmp_path / name
        with pytest.raises(OSError, match=f"^{re.escape(where.format(out=out))}$"):
            replay_manifest(manifest, out)
        assert not (tmp_path / "missing-dir").exists()

    @pytest.mark.parametrize("edit, named", [
        (lambda data: {**data, "host": "ci-runner"}, "unknown key host"),
        (lambda data: _without(data, "finished"), "missing key finished"),
        (lambda data: {**data, "config": {**data["config"], "alpha": 0.9}}, "unknown key config.alpha"),
        (lambda data: {**_without(data, "started"), "host": "ci-runner"}, "unknown key host, missing key started"),
        (lambda data: {**data, "config": _without(data["config"], "beta")}, "missing key config.beta"),
        (lambda data: list(data), "the file must be a JSON object, got list"),
        (lambda data: {**data, "config": list(data["config"])}, "config must be a JSON object, got list"),
        (lambda data: {**data, "seed": 11}, "unknown key seed"),
        # the field has a default, but a file must still name it
        (lambda data: _without(data, "version"), "missing key version"),
    ], ids=["extra", "missing", "config-extra", "extra-and-missing", "config-missing", "list", "config-list",
            "old-seed", "missing-version"])
    def test_replay_of_a_manifest_with_other_keys_names_them(self, tmp_path, monkeypatch, edit, named):
        # a manifest written by another version of the program is refused
        # by its keys, before the grid runs or any output is written
        assert main(TINY_ARGS + ["--out", str(tmp_path / "res.csv")]) == 0
        manifest = manifest_path_for(tmp_path / "res.csv")
        manifest.write_text(json.dumps(edit(json.loads(manifest.read_text(encoding="utf-8")))), encoding="utf-8")
        monkeypatch.setattr(cli, "run_grid", lambda *args, **kwargs: pytest.fail("the grid ran"))
        with pytest.raises(ValueError, match=f"^manifest: {named}$"):
            replay_manifest(manifest, tmp_path / "replay.csv")
        assert not (tmp_path / "replay.csv").exists()

    def test_replay_of_a_manifest_with_an_unhashable_value_names_its_key(self, tmp_path, monkeypatch):
        # the value's own rule refuses it, not a TypeError from the repeat check
        assert main(TINY_ARGS + ["--out", str(tmp_path / "res.csv")]) == 0
        manifest = manifest_path_for(tmp_path / "res.csv")
        data = json.loads(manifest.read_text(encoding="utf-8"))
        manifest.write_text(json.dumps({**data, "config": {**data["config"], "sparsity": [[1]]}}), encoding="utf-8")
        monkeypatch.setattr(cli, "run_grid", lambda *args, **kwargs: pytest.fail("the grid ran"))
        with pytest.raises(ValueError, match="^k: "):
            replay_manifest(manifest, tmp_path / "replay.csv")
        assert not (tmp_path / "replay.csv").exists()

    @pytest.mark.parametrize("edit, cause", [
        (lambda data: data[:data.index(b"{", 1)], "Expecting value: line 2 column 13"),
        (lambda data: data.replace(b"{", b"{\xff", 1), "'utf-8' codec can't decode byte 0xff in position 1"),
    ], ids=["truncated", "not-utf-8"])
    def test_replay_of_a_manifest_that_is_not_json_names_its_path(self, tmp_path, monkeypatch, edit, cause):
        # a cut or mangled manifest is refused by its path, not by a bare
        # decoder message, before the grid runs or any output is written
        assert main(TINY_ARGS + ["--out", str(tmp_path / "res.csv")]) == 0
        manifest = manifest_path_for(tmp_path / "res.csv")
        manifest.write_bytes(edit(manifest.read_bytes()))
        monkeypatch.setattr(cli, "run_grid", lambda *args, **kwargs: pytest.fail("the grid ran"))
        with pytest.raises(ValueError, match=f"^manifest: cannot read {re.escape(str(manifest))}: {re.escape(cause)}"):
            replay_manifest(manifest, tmp_path / "replay.csv")
        assert not (tmp_path / "replay.csv").exists()

    def test_failed_manifest_dump_leaves_the_previous_file(self, tmp_path, monkeypatch):
        def manifest(seed):
            return RunManifest(config=ExperimentConfig(seed=seed), version="0", started="start",
                               finished="end", divergence_counts={})

        def failing(payload, handle, **kwargs):
            handle.write('{"config": {')
            raise TypeError("not JSON serializable")

        path = tmp_path / "res.manifest.json"
        monkeypatch.setattr(cli.json, "dump", failing)
        with pytest.raises(TypeError):
            manifest(1).write(path)
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()
        manifest(1).write(path)
        previous = path.read_bytes()
        monkeypatch.setattr(cli.json, "dump", failing)
        with pytest.raises(TypeError):
            manifest(2).write(path)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == previous

    def test_summary_flag_prints_table(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        code = main(TINY_ARGS + ["--out", str(out), "--summary"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "verdict:" in stdout
        assert "steady-state" in stdout

    def test_import_leaves_the_process_pool_unloaded(self):
        # a serial run never starts a pool, so it must not pay to import one
        src = str(Path(cli.__file__).resolve().parents[1])
        code = "import sys, sparsemimo.cli; print('concurrent.futures' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("argv, prefix", _REFUSED, ids=[argv for argv, _ in _REFUSED])
    def test_bad_input_exits_1_before_the_grid_runs(self, tmp_path, capsys, monkeypatch, argv, prefix):
        # run_grid itself refuses a bad worker count, so the stub is a run's draw
        monkeypatch.setattr(experiment, "draw_run", lambda *args, **kwargs: pytest.fail("a run was drawn"))
        assert main(TINY_ARGS + argv.split() + ["--out", str(tmp_path / "res.csv")]) == 1
        assert capsys.readouterr().err.startswith(prefix)
        assert list(tmp_path.iterdir()) == []

    def test_help_lists_every_field_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "1000")  # no help text is wrapped
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for key, (_, text) in cli._FIELDS.items():
            flag = "--" + key.replace("_", "-")
            assert re.search(rf"\n  {flag} \S+\s+{re.escape(text)}\n", out), key

    def test_io_error_exit_code(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "res.csv"
        assert main(TINY_ARGS + ["--out", str(out)]) == 2
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, name, named, cause", [
        ("--out", "missing-dir/res.txt", "missing-dir", "is not a directory"),
        ("--plot-script", "missing-dir/res.txt", "missing-dir", "is not a directory"),
        ("--out", ".", ".", "is a directory"),
        ("--plot-script", ".", ".", "is a directory"),
        # res.csv itself can be written, but a directory stands where its manifest, or the manifest's temporary, goes
        ("--out", "res.csv", "res.manifest.json", "is a directory"),
        ("--out", "res.csv", "res.manifest.json.tmp", "is a directory"),
    ], ids=["missing-parent-out", "missing-parent-plot-script", "directory-out", "directory-plot-script",
            "manifest-directory", "manifest-temporary-directory"])
    def test_unwritable_output_refused_before_the_grid_runs(self, tmp_path, capsys, monkeypatch, flag, name, named,
                                                            cause):
        monkeypatch.setattr(cli, "run_grid", lambda *args, **kwargs: pytest.fail("the grid ran"))
        if name == "res.csv":
            (tmp_path / named).mkdir()
        before = list(tmp_path.iterdir())
        assert main(TINY_ARGS + ["--out", str(tmp_path / "res.csv"), flag, str(tmp_path / name)]) == 2
        assert capsys.readouterr().err == f"error: cannot write results: {tmp_path / named} {cause}\n"
        assert list(tmp_path.iterdir()) == before

    def test_write_failure_after_the_grid_exit_code(self, tmp_path, capsys, monkeypatch):
        def refuse(traces, path):
            raise PermissionError(f"cannot open {path}")

        monkeypatch.setattr(cli, "emit_csv", refuse)
        assert main(TINY_ARGS + ["--out", str(tmp_path / "res.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write results: cannot open ")

    def test_module_entry_point_writes_the_csv(self, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        out = tmp_path / "res.csv"
        done = subprocess.run([sys.executable, "-m", "sparsemimo.cli", "--runs", "1", "--iterations", "5",
                               "--out", str(out)], env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 5 * len(ExperimentConfig().cell_keys())

    def test_all_diverged_exit_code(self, tmp_path, capsys):
        args = [
            "--runs", "2", "--iterations", "900", "--length", "8",
            "--snr-db", "10", "--mu", "0.5", "--k", "1",
            "--algorithms", "lms", "--seed", "3",
            "--out", str(tmp_path / "res.csv"),
        ]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert "diverged" in err

    def test_overflowing_mean_exits_1_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # each run's curve is finite, but two of them sum past the largest float
        monkeypatch.setattr(experiment, "run_single", lambda draws, config, algorithm:
                            np.full((len(draws), len(config.snr_db) * len(config.mu), config.iterations), 1.5e308))
        out = tmp_path / "res.csv"
        args = ["--runs", "2", "--iterations", "5", "--snr-db", "10", "--mu", "0.5", "--k", "1",
                "--algorithms", "nlms", "--out", str(out)]
        assert main(args) == 1
        assert capsys.readouterr().err == "error: mean squared error must be finite and nonnegative\n"
        assert not out.exists() and not manifest_path_for(out).exists()

    def test_plot_script_written(self, tmp_path):
        out = tmp_path / "res.csv"
        script = tmp_path / "plot.py"
        code = main(TINY_ARGS + ["--out", str(out), "--plot-script", str(script)])
        assert code == 0
        text = script.read_text(encoding="utf-8")
        assert "avg_mse_db" in text
        assert str(out) in text

    @pytest.mark.parametrize("name", ["a\nimport os\nb.csv", "a\rimport os\rb.csv", "a\udcffb.csv"],
                             ids=["lf", "cr", "not-utf-8"])
    def test_any_csv_path_gives_the_plot_script_of_an_ordinary_one(self, tmp_path, name):
        # the path appears only in the script's open() call, quoted by repr,
        # where a raw line break would end the string literal; a byte that
        # is not UTF-8, say 0xff, reaches Python as a lone surrogate
        statements = []
        for out in (tmp_path / "res.csv", tmp_path / name):
            script = tmp_path / "plot.py"
            assert main(TINY_ARGS + ["--out", str(out), "--plot-script", str(script)]) == 0
            text = script.read_bytes().decode("utf-8")
            statements.append(ast.dump(ast.parse(text.replace(repr(str(out)), "'res.csv'"))))
        assert statements[1] == statements[0]

    @pytest.mark.parametrize("target", [lambda out: out, manifest_path_for,
                                        lambda out: Path(f"{manifest_path_for(out)}.tmp")],
                             ids=["csv", "manifest", "manifest-temporary"])
    def test_plot_script_may_not_overwrite_the_results(self, tmp_path, capsys, target):
        out = tmp_path / "res.csv"
        code = main(TINY_ARGS + ["--out", str(out), "--plot-script", str(target(out))])
        assert code == 1
        assert "plot-script" in capsys.readouterr().err
        assert not out.exists() and not manifest_path_for(out).exists()

    @pytest.mark.parametrize("flag", ["--out", "--plot-script"])
    def test_outputs_may_not_overwrite_the_config_file(self, tmp_path, capsys, flag):
        config = tmp_path / "run.cfg"
        config.write_text("runs = 2\niterations = 40\nlength = 8\nsnr_db = 10\nmu = 0.5\nk = 1\n",
                          encoding="utf-8")
        out = tmp_path / "res.csv"
        assert main(["--config", str(config), "--out", str(out), flag, str(config)]) == 1
        assert capsys.readouterr().err == f"error: {flag[2:]}: {config} is also the config file\n"
        assert config.read_text(encoding="utf-8").startswith("runs = 2\n")
        assert not out.exists() and not manifest_path_for(out).exists()

    def test_manifest_temporary_may_not_be_the_config_file(self, tmp_path, capsys):
        # the manifest is written to a sibling .tmp file that then replaces
        # it, which would delete a config file of that name
        out = tmp_path / "res.csv"
        config = tmp_path / "res.manifest.json.tmp"
        config.write_text("runs = 2\niterations = 40\n", encoding="utf-8")
        assert main(["--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: out: {config} is also the config file\n"
        assert config.read_text(encoding="utf-8") == "runs = 2\niterations = 40\n"
        assert not out.exists()

    def test_manifest_json_is_complete(self, tmp_path):
        out = tmp_path / "res.csv"
        main(TINY_ARGS + ["--out", str(out)])
        payload = json.loads(manifest_path_for(out).read_text(encoding="utf-8"))
        assert set(payload) == {
            "config", "version", "started", "finished", "divergence_counts",
        }
        assert payload["config"]["algorithms"] == ["nlms", "l0_nlms"]

    def test_divergence_counts_per_cell(self, tmp_path):
        # lms at mu=0.5 loses one of four runs by iteration 700 and at mu=1
        # every run (seed-pinned); the normalized rule never diverges
        out = tmp_path / "res.csv"
        args = [
            "--runs", "4", "--iterations", "700", "--length", "8",
            "--snr-db", "10", "--mu", "0.5,1", "--k", "1",
            "--algorithms", "lms,nlms", "--seed", "3", "--out", str(out),
        ]
        assert main(args) == 0
        counts = json.loads(manifest_path_for(out).read_text(encoding="utf-8"))["divergence_counts"]
        cell = "snr_db=10.0 mu={mu} k=1 nt=2 nr=2"
        assert counts == {
            "algorithm=lms " + cell.format(mu="0.5"): 1,
            "algorithm=lms " + cell.format(mu="1.0"): 4,
            "algorithm=nlms " + cell.format(mu="0.5"): 0,
            "algorithm=nlms " + cell.format(mu="1.0"): 0,
        }

    def test_divergence_counts_keep_cells_that_agree_to_six_digits(self, tmp_path):
        # the keys write floats as the CSV does, so nearby step sizes stay apart
        out = tmp_path / "res.csv"
        args = [
            "--runs", "1", "--iterations", "20", "--algorithms", "nlms",
            "--snr-db", "10", "--k", "1", "--mu", "0.1234567,0.1234568", "--out", str(out),
        ]
        assert main(args) == 0
        counts = json.loads(manifest_path_for(out).read_text(encoding="utf-8"))["divergence_counts"]
        cell = "algorithm=nlms snr_db=10.0 mu={mu} k=1 nt=2 nr=2"
        assert counts == {cell.format(mu="0.1234567"): 0, cell.format(mu="0.1234568"): 0}

    def test_divergence_warnings_in_cell_order(self, tmp_path, capsys):
        # lms at mu=1 and mu=1.5 loses every run (seed-pinned); each fully
        # diverged cell gets one warning line, in cell order
        args = [
            "--runs", "4", "--iterations", "700", "--length", "8",
            "--snr-db", "10", "--mu", "0.5,1,1.5", "--k", "1",
            "--algorithms", "lms,nlms", "--seed", "3", "--out", str(tmp_path / "res.csv"),
        ]
        assert main(args) == 0
        cell = "warning: algorithm=lms snr_db=10.0 mu={mu} k=1 nt=2 nr=2: all 4 runs diverged"
        assert capsys.readouterr().err.splitlines() == [cell.format(mu="1.0"), cell.format(mu="1.5")]
