"""Golden output pins: the CSV sha256 of small grids, fixed seed, and the
sha256 of every file and table one command-line run writes.

Each grid runs 3 Monte-Carlo runs of 200 iterations. Together they cover
every training generator, static and fading channels, all four update rules
(an lms cell whose every run diverges included) and one and four receive
antennas. The command-line run pins the CSV, the manifest (its two clock
stamps dropped), the printed summary and the plot script of one grid.
A refactor that claims to change no output must leave every digest as it
is; a change that moves output re-pins only the digests it moves and says
why.
"""
import hashlib
import math
from pathlib import Path

import pytest

from sparsemimo.cli import emit_csv, main
from sparsemimo.experiment import ExperimentConfig, run_grid

SPARSE = ("nlms", "lp_nlms", "l0_nlms")
ALL = ("lms",) + SPARSE

GRIDS = {
    # nt*L = 128 taps make lms at mu=1 overflow within 200 iterations
    "gaussian_static_nr1": dict(
        nt=4, nr=1, length=32, sparsity=(1, 4), snr_db=(10.0,), mu=(1.0,), algorithms=ALL,
    ),
    "gaussian_fading_nr4": dict(
        nt=2, nr=4, length=16, sparsity=(2,), snr_db=(10.0, math.inf), mu=(0.5,),
        algorithms=SPARSE, fading_period=50,
    ),
    "bpsk_static_nr4": dict(
        nt=2, nr=4, length=16, sparsity=(1,), snr_db=(5.0,), mu=(0.5, 1.0),
        algorithms=("nlms", "l0_nlms"), generator="bpsk", lambda_l0=1e-3, beta=10.0,
    ),
    "bpsk_fading_nr1": dict(
        nt=2, nr=1, length=8, sparsity=(3,), snr_db=(15.0,), mu=(1.0,),
        algorithms=("lms", "lp_nlms"), generator="bpsk", fading_period=20, p=0.7,
    ),
    "ofdm_static_nr4": dict(
        nt=2, nr=4, length=16, sparsity=(1,), snr_db=(10.0,), mu=(0.5,),
        algorithms=ALL, generator="ofdm",
    ),
    "ofdm_fading_nr1": dict(
        nt=2, nr=1, length=16, sparsity=(4,), snr_db=(math.inf,), mu=(1.0,),
        algorithms=("nlms", "l0_nlms"), generator="ofdm", fading_period=40,
    ),
}

# grid -> (CSV sha256, algorithms of the cells whose every run diverged)
PINS = {
    "bpsk_fading_nr1": ("e44f6031b3d99796204bc20d1e4b470401b2a77f7a13253224f0dc3b041130b4", []),
    "bpsk_static_nr4": ("c72f0ded4b6d6f14de9b895bb52eb77c09ff049cbe79a4e1b462c75c9e4e88c0", []),
    "gaussian_fading_nr4": ("7c42648477f27c6c7f95334b652595461bd4877780b4c29c6b97ed7f1877e7ef", []),
    "gaussian_static_nr1": ("0df98eb895467bac0a620391a6f7eb55208d5252364ad313114d238b7ec758fb", ["lms", "lms"]),
    "ofdm_fading_nr1": ("a5292714a0d4c907f261da2b9a31782affc9bfdebcfefa533ea22abc9cc48a7b", []),
    "ofdm_static_nr4": ("a3d7f41f4998f395b2cf549e24898c0b9d184a26be2c10884676c02ec4df4614", []),
}


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_csv_digest_is_pinned(name, tmp_path):
    config = ExperimentConfig(runs=3, iterations=200, seed=11, **GRIDS[name])
    result = run_grid(config)
    out = tmp_path / "golden.csv"
    emit_csv(result, out)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    failed = sorted(key.algorithm for key in result.diverged if key not in result)
    assert (digest, failed) == PINS[name]


# two K, two step sizes and SNR {5, inf}: lms at mu 0.7 drops one run at
# K 1 and two at K 4, at mu 1 all four, so some cells are missing from the
# CSV and the summary; lp_nlms and nlms tie 0.09 dB apart at 5 dB, K 1,
# mu 1, and the noiseless NLMS-family cells tie exactly (" ~ ")
CLI_ARGS = [
    "--nt", "4", "--nr", "1", "--length", "32", "--k", "1,4", "--mu", "0.7,1", "--snr-db", "5,inf",
    "--algorithms", "lms,nlms,lp_nlms,l0_nlms", "--runs", "4", "--iterations", "200", "--seed", "11",
    "--out", "golden.csv", "--summary", "--plot-script", "plot.py",
]

# output -> sha256; "stdout" is the summary and the closing "wrote" line
CLI_PINS = {
    "csv": "019d07886b22baea0bac7090a50f6cd4a8d8ab022f434161d965a246feba0830",
    "manifest": "4d0dd2271932faa3aad4e884bf8e54aa3f28dc424fe8a9e1f049b14fd46b2544",
    "stdout": "412ec4b0df0bf0826732dce32692234abd534b8d491e9d39d9b4f52a60d406dd",
    "plot": "42a227d9e2d41f7ac7c3f6919a065876ea9dd031a67153deb7a530bd29935a80",
}


def test_command_line_outputs_are_pinned(tmp_path, monkeypatch, capsys):
    # relative paths, as the plot script names the CSV by the path given
    monkeypatch.chdir(tmp_path)
    assert main(CLI_ARGS) == 0
    lines = Path("golden.manifest.json").read_bytes().split(b"\n")
    kept = [line for line in lines if not line.startswith((b'  "started": ', b'  "finished": '))]
    assert len(lines) - len(kept) == 2
    outputs = {
        "csv": Path("golden.csv").read_bytes(),
        "manifest": b"\n".join(kept),
        "stdout": capsys.readouterr().out.encode(),
        "plot": Path("plot.py").read_bytes(),
    }
    assert {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()} == CLI_PINS
