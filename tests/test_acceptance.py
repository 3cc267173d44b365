"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured values (run with ``-s`` to see them all).

The statistical criteria use 100 paired Monte-Carlo runs with a fixed
master seed; every algorithm, step size, and SNR inside one grid sees
identical channel/training/noise realizations per run index, which is what
makes the dB-gap assertions stable at this run count.
"""

import math

import numpy as np
import pytest

from sparsemimo.cli import main, manifest_path_for
from sparsemimo.estimator import HyperParams, update
from sparsemimo.experiment import (
    CellKey,
    ExperimentConfig,
    first_iteration_below,
    run_grid,
    steady_state_mse,
)

ALGS = ("nlms", "lp_nlms", "l0_nlms")
SEED = 7
RUNS = 100
WORKERS = 2


def l0_approx_norm(h, beta):
    """Smooth nonzero-count surrogate ``sum(1 - exp(-beta * |h_i|))``."""
    return float(np.sum(1.0 - np.exp(-beta * np.abs(h))))


def l0_exponential_attractor(h, beta):
    """Exact gradient of :func:`l0_approx_norm`: ``beta * sgn(h) * exp(-beta |h|)``."""
    return beta * np.sign(h) * np.exp(-beta * np.abs(h))


def _report(num, name, passed, detail):
    print(f"[criterion {num}] {'PASS' if passed else 'FAIL'} - {name}: {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def _ss_db(traces, algorithm, snr, mu, k, nt, nr):
    trace = traces[CellKey(algorithm, snr, mu, k, nt, nr)]
    return 10.0 * math.log10(steady_state_mse(trace))


@pytest.fixture(scope="module")
def grid_2x2():
    base = dict(
        nt=2, nr=2, length=16, snr_db=(10.0,), algorithms=ALGS,
        runs=RUNS, iterations=2000, seed=SEED,
    )
    slow = run_grid(ExperimentConfig(sparsity=(1, 4), mu=(0.5,), **base), workers=WORKERS)
    fast = run_grid(ExperimentConfig(sparsity=(1,), mu=(1.5,), **base), workers=WORKERS)
    return {**dict(slow), **dict(fast)}


@pytest.fixture(scope="module")
def grid_2x4():
    config = ExperimentConfig(
        nt=2, nr=4, length=16, sparsity=(1,), snr_db=(10.0, 15.0), mu=(0.5,),
        algorithms=ALGS, runs=RUNS, iterations=2000, seed=SEED,
    )
    return run_grid(config, workers=WORKERS)


def test_criterion_1_steady_state_ordering(grid_2x2):
    nlms = _ss_db(grid_2x2, "nlms", 10.0, 0.5, 1, 2, 2)
    lp = _ss_db(grid_2x2, "lp_nlms", 10.0, 0.5, 1, 2, 2)
    l0 = _ss_db(grid_2x2, "l0_nlms", 10.0, 0.5, 1, 2, 2)
    detail = (
        f"steady state nlms={nlms:.2f} dB, lp_nlms={lp:.2f} dB, l0_nlms={l0:.2f} dB "
        f"(gaps {nlms - lp:.2f}, {lp - l0:.2f}; need >= 1.00 each)"
    )
    _report(1, "ordering l0 < lp < nlms", nlms - lp >= 1.0 and lp - l0 >= 1.0, detail)


def test_criterion_2_sparsity_sensitivity(grid_2x2):
    nlms_delta = abs(
        _ss_db(grid_2x2, "nlms", 10.0, 0.5, 1, 2, 2) - _ss_db(grid_2x2, "nlms", 10.0, 0.5, 4, 2, 2)
    )
    l0_gain = _ss_db(grid_2x2, "l0_nlms", 10.0, 0.5, 4, 2, 2) - _ss_db(
        grid_2x2, "l0_nlms", 10.0, 0.5, 1, 2, 2
    )
    detail = (
        f"nlms |k1 - k4| = {nlms_delta:.3f} dB (<= 0.5), "
        f"l0_nlms k=1 advantage = {l0_gain:.2f} dB (>= 1.0)"
    )
    _report(2, "sparsity sensitivity", nlms_delta <= 0.5 and l0_gain >= 1.0, detail)


def test_criterion_3_ordering_at_2x4(grid_2x4):
    lines, passed = [], True
    for snr in (10.0, 15.0):
        nlms = _ss_db(grid_2x4, "nlms", snr, 0.5, 1, 2, 4)
        lp = _ss_db(grid_2x4, "lp_nlms", snr, 0.5, 1, 2, 4)
        l0 = _ss_db(grid_2x4, "l0_nlms", snr, 0.5, 1, 2, 4)
        passed = passed and nlms - lp >= 1.0 and lp - l0 >= 1.0
        lines.append(f"snr={snr:g}: gaps {nlms - lp:.2f}, {lp - l0:.2f}")
    _report(3, "ordering holds at (2,4)", passed, "; ".join(lines) + " (need >= 1.00 each)")


def test_criterion_4_step_size_tradeoff(grid_2x2):
    lines, passed = [], True
    for algorithm in ALGS:
        slow = grid_2x2[CellKey(algorithm, 10.0, 0.5, 1, 2, 2)]
        fast = grid_2x2[CellKey(algorithm, 10.0, 1.5, 1, 2, 2)]
        gap = 10.0 * math.log10(steady_state_mse(fast)) - 10.0 * math.log10(steady_state_mse(slow))
        reach_slow = first_iteration_below(slow, 2.0 * steady_state_mse(slow))
        reach_fast = first_iteration_below(fast, 2.0 * steady_state_mse(fast))
        passed = passed and gap >= 1.0 and reach_fast < reach_slow
        lines.append(f"{algorithm}: floor gap {gap:.2f} dB, reach {reach_slow}/{reach_fast}")
    _report(4, "small mu lower floor, big mu faster", passed, "; ".join(lines))


def test_criterion_5_reduction_to_nlms():
    config = ExperimentConfig(
        nt=2, nr=2, length=16, sparsity=(1,), snr_db=(10.0,), mu=(0.5,),
        algorithms=ALGS, lambda_lp=0.0, lambda_l0=0.0,
        runs=3, iterations=200, seed=SEED,
    )
    result = run_grid(config)
    reference = result[CellKey("nlms", 10.0, 0.5, 1, 2, 2)]
    identical = all(
        result[CellKey(algorithm, 10.0, 0.5, 1, 2, 2)].tobytes() == reference.tobytes()
        for algorithm in ("lp_nlms", "l0_nlms")
    )
    _report(5, "zero penalties reduce to NLMS bit-for-bit", identical,
            "lp_nlms and l0_nlms traces byte-equal to nlms under paired seeds")


def test_criterion_6_gradient_oracle_and_taylor_bound():
    beta, step = 15.0, 1e-6
    rng = np.random.default_rng(101)
    worst_rel = 0.0
    for _ in range(20):
        h = rng.uniform(0.004, 0.1, 8) * rng.choice([-1.0, 1.0], 8)
        grad = l0_exponential_attractor(h, beta)
        for i in range(h.size):
            hp, hm = h.copy(), h.copy()
            hp[i] += step
            hm[i] -= step
            fd = (l0_approx_norm(hp, beta) - l0_approx_norm(hm, beta)) / (2.0 * step)
            worst_rel = max(worst_rel, abs(fd - grad[i]) / abs(grad[i]))
    taps = np.linspace(0.0, 1.0 / beta, 1000)
    taylor_gap = np.abs(np.exp(-beta * taps) - (1.0 - beta * taps))
    taylor_ok = bool(np.all(taylor_gap <= (beta * taps) ** 2 / 2.0))
    detail = f"worst FD relative error {worst_rel:.2e} (< 1e-5); Taylor bound holds: {taylor_ok}"
    _report(6, "attractor is the penalty gradient", worst_rel < 1e-5 and taylor_ok, detail)


def test_criterion_7_zero_attraction_and_cutoff():
    rng = np.random.default_rng(202)
    checked_inband = checked_outside = 0
    ok = True
    for _ in range(1000):
        beta = rng.uniform(2.0, 200.0)
        h = rng.uniform(-2.0 / beta, 2.0 / beta, 8)
        h[rng.integers(0, 8)] = 0.0
        in_band = (np.abs(h) > 0) & (np.abs(h) < 1.0 / beta)
        pull = 2.0 * beta - 2.0 * beta**2 * np.abs(h)
        bounds = np.full(h.size, np.inf)
        bounds[in_band] = np.abs(h[in_band]) / pull[in_band]
        rho = rng.uniform(0.1, 0.999) * min(1.0, float(bounds.min()))
        mu = 0.5
        hyper = HyperParams("l0_nlms", mu=mu, lambda_l0=rho / mu, beta=beta)
        x = np.ones(8)
        out = update(hyper, h.copy(), x, 0.0, float(x @ x))
        for i in range(h.size):
            if abs(h[i]) > 1.0 / beta:
                ok = ok and out[i] == h[i]
                checked_outside += 1
            elif in_band[i] and rho < bounds[i]:
                ok = ok and abs(out[i]) < abs(h[i]) and np.sign(out[i]) == np.sign(h[i])
                checked_inband += 1
    detail = f"{checked_inband} in-band taps shrank without sign flips, {checked_outside} outside-band taps untouched"
    _report(7, "zero attraction and band cutoff", ok and checked_inband > 0 and checked_outside > 0, detail)


def test_criterion_8_cold_start_and_noiseless_convergence():
    config = ExperimentConfig(
        nt=2, nr=2, length=16, sparsity=(1,), snr_db=(math.inf,), mu=(1.0,),
        algorithms=("nlms",), runs=3, iterations=2000, seed=SEED,
    )
    trace = run_grid(config)[CellKey("nlms", math.inf, 1.0, 1, 2, 2)]
    cold = float(trace[0])
    final = float(trace[-1])
    detail = f"iteration-0 MSE = {cold!r} (4 +/- 1e-9), final noiseless MSE = {final:.2e} (< 1e-6)"
    _report(8, "cold start energy and noiseless convergence",
            abs(cold - 4.0) <= 1e-9 and final < 1e-6, detail)


def test_criterion_9_csv_determinism(tmp_path):
    args = [
        "--nt", "2", "--nr", "2", "--length", "16", "--k", "1,4",
        "--snr-db", "10", "--mu", "0.5", "--algorithms", "nlms,lp_nlms,l0_nlms",
        "--runs", "5", "--iterations", "80", "--seed", str(SEED),
    ]
    outputs = {}
    for tag, workers in (("a", 1), ("b", 1), ("c", 4)):
        out = tmp_path / f"{tag}.csv"
        code = main(args + ["--out", str(out), "--workers", str(workers)])
        assert code == 0
        assert manifest_path_for(out).exists()
        outputs[tag] = out.read_bytes()
    identical = outputs["a"] == outputs["b"] == outputs["c"]
    _report(9, "byte-identical CSV across invocations and workers {1,4}", identical,
            f"{len(outputs['a'])} bytes, repeat and 4-worker runs matched")
