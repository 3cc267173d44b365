"""Golden output pins: the CSV sha256 of small grids, fixed seed.

Each grid runs 3 Monte-Carlo runs of 200 iterations. Together they cover
every training generator, static and fading channels, all four update rules
(an lms cell whose every run diverges included) and one and four receive
antennas. A refactor that claims to change no output must leave every digest
as it is; a change that moves output re-pins only the digests it moves and
says why.
"""
import hashlib
import math

import pytest

from sparsemimo.cli import emit_csv
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
