"""Tests for the adaptive update rules and their zero attractors."""

import re
from dataclasses import replace

import numpy as np
import pytest

from sparsemimo import estimator
from sparsemimo.estimator import (
    ALGORITHMS,
    HyperParams,
    j_attractor,
    lp_attractor,
    update,
)
from sparsemimo.experiment import ExperimentConfig, draw_run, run_single

from oracles import l0_approx_norm, l0_exponential_attractor


def _vec(values):
    return np.asarray(values, dtype=float)


def lp_norm(h, p):
    """Fractional vector norm ``(sum |h_i|^p) ** (1/p)`` of one row, in scalar pow."""
    return float(np.sum(np.abs(h) ** p) ** (1.0 / p))


class TestLms:
    def test_zero_error_is_fixpoint(self):
        h, x = _vec([0.5, -0.25]), _vec([1.0, 2.0])
        out = update(HyperParams("lms"), h, x, 0.0, float(x @ x))
        assert out.tobytes() == h.tobytes()

    def test_single_step_hand_value(self):
        x = _vec([1.0, 0.0])
        out = update(HyperParams("lms", mu=1.0), np.zeros(2), x, 2.0, float(x @ x))
        assert np.array_equal(out, [2.0, 0.0])

    def test_oversized_step_diverges(self):
        # fixed regressor loop: per-step error factor 1 - mu*|x|^2 = -3.5
        hyper = HyperParams("lms", mu=0.5)
        h, x, y = np.zeros(2), _vec([3.0, 0.0]), 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(2000):
                h = update(hyper, h, x, y - float(h @ x), float(x @ x))
        assert not np.isfinite(h).all()


@pytest.fixture
def no_guard(monkeypatch):
    # the exact NLMS identities hold only without the regularizer
    monkeypatch.setattr(estimator, "NLMS_DELTA", 0.0)


class TestNlms:
    @pytest.mark.usefixtures("no_guard")
    def test_unit_step_nulls_a_posteriori_error(self):
        h = np.zeros(6)
        h[0] = 0.83
        est = np.zeros(6)
        x = _vec([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        y = float(h @ x)
        out = update(HyperParams(mu=1.0), est, x, y - float(est @ x), float(x @ x))
        assert y - float(out @ x) == 0.0

    def test_zero_error_is_fixpoint(self):
        h, x = _vec([1.0, -2.0]), _vec([0.5, 0.25])
        out = update(HyperParams(), h, x, 0.0, float(x @ x))
        assert out.tobytes() == h.tobytes()

    @pytest.mark.usefixtures("no_guard")
    def test_a_posteriori_contraction_factor(self):
        # noiseless single sample: e_post = (1 - mu) * e_prior
        rng = np.random.default_rng(4)
        for mu in (0.25, 0.5, 1.0, 1.5, 1.9):
            h, est = rng.standard_normal(8), rng.standard_normal(8)
            x = rng.standard_normal(8)
            y = float(h @ x)
            e = y - float(est @ x)
            out = update(HyperParams(mu=mu), est, x, e, float(x @ x))
            e_post = y - float(out @ x)
            assert e_post == pytest.approx((1.0 - mu) * e, abs=1e-12)
            assert abs(e_post) <= abs(e) + 1e-12

    @pytest.mark.usefixtures("no_guard")
    def test_joint_scaling_invariance(self):
        rng = np.random.default_rng(6)
        h, est = rng.standard_normal(5), rng.standard_normal(5)
        x = rng.standard_normal(5)
        hyper = HyperParams(mu=0.7)
        for c in (3.0, -0.02, 1e4):
            y, yc = float(h @ x), float(h @ (c * x))
            base = update(hyper, est, x, y - float(est @ x), float(x @ x))
            scaled = update(hyper, est, c * x, c * y - float(est @ (c * x)), float((c * x) @ (c * x)))
            assert np.allclose(base, scaled, atol=1e-12)

    def test_all_zero_regressor_with_guard_is_harmless(self):
        h, x = _vec([1.0, 2.0]), np.zeros(2)
        out = update(HyperParams(), h, x, 1.0, float(x @ x))
        assert np.array_equal(out, h)


class TestLpNorm:
    def test_euclidean_case(self):
        assert lp_norm([3.0, 4.0], 2.0) == pytest.approx(5.0, abs=1e-12)

    def test_half_norm_hand_value(self):
        # (1^0.5 + 1^0.5)^2 = 4
        assert lp_norm([1.0, 1.0], 0.5) == pytest.approx(4.0, abs=1e-12)

    def test_zero_vector(self):
        assert lp_norm(np.zeros(7), 0.7) == 0.0


class TestLpAttractor:
    def test_zero_vector_maps_to_zero(self):
        assert not lp_attractor(np.zeros(5), 0.5, 0.02).any()

    def test_p_one_is_constant_magnitude(self):
        h = np.array([0.4, -0.1, 0.0, 2.0])
        out = lp_attractor(h, 1.0, 0.05)
        expected = np.sign(h) / (0.05 + 1.0)
        assert np.allclose(out, expected, atol=1e-15)

    def test_scalar_formula_oracle(self):
        # independent scalar-path evaluation of the same formula
        h0, p, eps = 0.5, 0.5, 0.01
        norm = (abs(h0) ** p + 0.0**p) ** (1.0 / p)
        expected = norm ** (1.0 - p) * 1.0 / (eps + abs(h0) ** (1.0 - p))
        out = lp_attractor(np.array([0.5, 0.0]), p, eps)
        assert out[0] == pytest.approx(expected, abs=1e-12)
        assert out[0] == pytest.approx(0.9860550753913473, abs=1e-12)
        assert out[1] == 0.0

    def test_float_power_matches_scalar_pow(self):
        # lp_attractor takes each row's two norm powers with np.float_power
        # because it gives the bits of Python's scalar float ** float, which
        # the goldens pin; numpy's array ** does not. A numpy that breaks
        # this moves the sparse rules' output, and this test names why.
        rng = np.random.default_rng(23)
        sums = np.concatenate([
            rng.lognormal(0.0, 3.0, 2000),
            10.0 ** rng.uniform(-300.0, -200.0, 500),
            rng.uniform(0.0, 64.0, 2000),
            [0.0, 1.0, 64.0],
        ])
        for p in np.linspace(0.1, 1.0, 10).tolist():
            got = np.float_power(np.float_power(sums, 1.0 / p), 1.0 - p)
            expected = np.array([(s ** (1.0 / p)) ** (1.0 - p) for s in sums.tolist()])
            mismatched = np.flatnonzero(got != expected)
            assert not mismatched.size, (
                f"np.float_power differs from scalar pow at p={p} for sums {sums[mismatched[:5]]}: "
                f"numpy {np.__version__} rounds float_power differently, which moves lp_nlms output"
            )

    def test_points_toward_zero(self):
        rng = np.random.default_rng(12)
        h = rng.standard_normal(16)
        out = lp_attractor(h, 0.5, 0.02)
        nonzero = h != 0
        assert np.all(np.sign(out[nonzero]) == np.sign(h[nonzero]))


class TestLpNlms:
    @pytest.mark.parametrize("h0", [0.4, -0.4])
    def test_zero_error_shrinks_single_tap(self, h0):
        hyper = HyperParams("lp_nlms", lambda_lp=1e-3, mu=0.5)
        x = _vec([1.0, 1.0])
        out = update(hyper, _vec([h0, 0.0]), x, 0.0, float(x @ x))
        assert abs(out[0]) < abs(h0)
        assert np.sign(out[0]) == np.sign(h0)


class TestL0ApproxNorm:
    def test_zero_vector(self):
        assert l0_approx_norm(np.zeros(4), 15.0) == 0.0

    def test_sharp_beta_counts_one_tap(self):
        h = np.zeros(8)
        h[3] = 1.0
        assert l0_approx_norm(h, 50.0) == pytest.approx(1.0, abs=1e-9)

    def test_never_exceeds_true_count(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            h = rng.standard_normal(10) * rng.integers(0, 2, 10)
            assert l0_approx_norm(h, rng.uniform(1.0, 100.0)) <= np.count_nonzero(h)


class TestJAttractor:
    def test_zero_tap_maps_to_zero(self):
        assert j_attractor(np.zeros(3), 10.0).tobytes() == np.zeros(3).tobytes()

    def test_band_edge_is_continuous_zero(self):
        beta = 10.0
        out = j_attractor(np.array([1.0 / beta, -1.0 / beta]), beta)
        assert np.array_equal(out, [0.0, 0.0])

    def test_midband_hand_value(self):
        beta = 10.0
        out = j_attractor(np.array([1.0 / (2 * beta)]), beta)
        assert out[0] == pytest.approx(2 * beta - 2 * beta**2 * 0.05, abs=1e-12)
        assert out[0] == pytest.approx(10.0, abs=1e-12)

    def test_outside_band_is_zero(self):
        beta = 10.0
        out = j_attractor(np.array([0.11, -3.0, 0.1000001]), beta)
        assert not out.any()


class TestExponentialAttractor:
    def test_zero_tap_maps_to_zero(self):
        assert l0_exponential_attractor(np.zeros(3), 5.0).tobytes() == np.zeros(3).tobytes()

    def test_decays_monotonically_to_zero(self):
        beta = 7.0
        h = np.linspace(1e-3, 10.0, 500)
        out = l0_exponential_attractor(h, beta)
        assert np.all(np.diff(out) < 0)
        assert out[-1] == pytest.approx(0.0, abs=1e-12)

    def test_half_j_agreement_inside_band(self):
        # |exp attractor - j/2| <= beta * (beta |h|)^2 / 2 on the band
        beta = 15.0
        h = np.linspace(-1.0 / beta, 1.0 / beta, 1001)
        diff = np.abs(l0_exponential_attractor(h, beta) - 0.5 * j_attractor(h, beta))
        bound = beta * (beta * np.abs(h)) ** 2 / 2.0
        assert np.all(diff <= bound + 1e-12)


class TestL0Nlms:
    def test_attraction_band_algebra(self):
        # e = 0: in-band |h'| = |h| - rho (2 beta - 2 beta^2 |h|), sign kept
        beta, rho, mu = 10.0, 1e-3, 0.5
        hyper = HyperParams("l0_nlms", mu=mu, lambda_l0=rho / mu, beta=beta)
        x = _vec([1.0, 1.0, 1.0, 1.0])
        out = update(hyper, _vec([0.05, -0.05, 0.5, 0.0]), x, 0.0, float(x @ x))
        shrink = rho * (2 * beta - 2 * beta**2 * 0.05)
        assert out[0] == pytest.approx(0.05 - shrink, abs=1e-15)
        assert out[1] == pytest.approx(-0.05 + shrink, abs=1e-15)
        assert out[2] == 0.5  # outside the band: untouched
        assert out[3] == 0.0  # a zero tap stays zero


class TestCommonUpdateContract:
    def test_stacked_rows_match_rows_alone(self):
        # a (cells, rows, N) stack with per-cell knobs updates each row to
        # the bits it gets from a 1-D call with scalar knobs
        rng = np.random.default_rng(11)
        h = rng.standard_normal((3, 2, 16)) * rng.integers(0, 2, (3, 2, 16))
        x = rng.standard_normal(16)
        e = rng.standard_normal((3, 2))
        mu, lam = np.array([0.5, 1.0, 1.5]), np.array([1e-3, 2e-4, 0.0])
        for name in ALGORITHMS:
            knobs = dict(p=0.45, epsilon=0.02, beta=15.0)
            stacked = update(
                HyperParams(name, mu=mu[:, None, None], lambda_lp=lam[:, None, None],
                            lambda_l0=lam[:, None, None], **knobs),
                h, x, e[..., None], float(x @ x),
            )
            for c in range(3):
                hyper = HyperParams(name, mu=float(mu[c]), lambda_lp=float(lam[c]),
                                    lambda_l0=float(lam[c]), **knobs)
                for r in range(2):
                    alone = update(hyper, h[c, r], x, float(e[c, r]), float(x @ x))
                    assert stacked[c, r].tobytes() == alone.tobytes(), (name, c, r)
        # the stacked Lp attractor is the documented formula on each row's
        # own lp_norm, bit for bit; enough rows that an array power, which
        # rounds a few percent of values differently, would show
        p, epsilon = 0.45, 0.02
        stack = rng.standard_normal((40, 2, 16)) * rng.integers(0, 2, (40, 2, 16))
        attractor = lp_attractor(stack, p, epsilon)
        for index in np.ndindex(stack.shape[:-1]):
            row = stack[index]
            formula = lp_norm(row, p) ** (1.0 - p) * np.sign(row) / (epsilon + np.abs(row) ** (1.0 - p))
            assert attractor[index].tobytes() == formula.tobytes(), index

    @pytest.mark.parametrize("p", [0.45, 0.5, 1.0])
    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_out_is_returned_with_the_bits_of_a_new_array(self, name, p):
        # run_single's two shapes: a stack of (realization, antenna, cell)
        # rows with (cells, 1) knob columns, and one antenna row with a float error;
        # p = 0.5 and 1.0 are where numpy's ** takes a fast path
        rng = np.random.default_rng(12)
        stack = rng.standard_normal((2, 2, 3, 32)) * rng.integers(0, 2, (2, 2, 3, 32))
        x = rng.standard_normal((2, 1, 32))
        mu, lam = np.array([[0.5], [1.0], [1.5]]), np.array([[1e-3], [2e-4], [0.0]])
        stacked = (HyperParams(name, mu=mu, lambda_lp=lam, lambda_l0=lam, p=p),
                   stack, x, rng.standard_normal((2, 2, 3, 1)), np.vecdot(x, x)[:, None, None])
        lone = (HyperParams(name, mu=0.5, lambda_lp=1e-3, lambda_l0=1e-3, p=p),
                stack[0, :1, :1], x[0], -0.7, float(x[0, 0] @ x[0, 0]))
        for hyper, h, *args in (stacked, lone):
            before = h.copy()
            fresh = update(hyper, h, *args)
            out = np.full_like(h, np.nan)
            assert update(hyper, h, *args, out) is out
            assert out.tobytes() == fresh.tobytes(), (name, p, h.shape)
            assert h.tobytes() == before.tobytes()

    def test_unknown_algorithm_rejected(self):
        # when the rule is built, so no update call ever sees the name: "nlmz"
        # would otherwise take update's NLMS step
        message = "unknown algorithm 'nlmz'; expected one of ('lms', 'nlms', 'lp_nlms', 'l0_nlms')"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            HyperParams("nlmz")

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        perm = rng.permutation(8)
        x = rng.standard_normal(8)
        h = rng.standard_normal(8)
        e = -1.3
        for name in ALGORITHMS:
            hyper = HyperParams(name, lambda_lp=1e-3, lambda_l0=1e-3)
            out = update(hyper, h, x, e, float(x @ x))
            out_perm = update(hyper, h[perm], x[perm], e, float(x[perm] @ x[perm]))
            assert np.allclose(out_perm, out[perm], atol=1e-12)

    def test_diverging_run_is_masked(self):
        # the rules return whatever they compute; a non-finite entry in the
        # pair's squared-error curve marks it dead
        config = ExperimentConfig(nt=4, nr=1, length=32, sparsity=(1,), snr_db=(10.0,), mu=(1.0,),
                                  iterations=400)
        squared = run_single([draw_run(config, 1, 0)], config, "lms")
        assert np.isfinite(squared).all(axis=-1).tolist() == [[False]]

    def test_dead_pair_leaves_its_neighbour_alone(self):
        # seed-pinned: lms survives mu=0.005 and diverges at mu=1
        config = ExperimentConfig(nt=4, nr=1, length=32, sparsity=(1,), snr_db=(10.0,), mu=(0.005, 1.0),
                                  iterations=400)
        draws = [draw_run(config, 1, 0)]
        squared = run_single(draws, config, "lms")
        assert np.isfinite(squared).all(axis=-1).tolist() == [[True, False]]
        alone = run_single(draws, replace(config, mu=(0.005,)), "lms")
        assert np.isfinite(alone).all(axis=-1).tolist() == [[True]]
        assert squared[0, 0].tobytes() == alone[0, 0].tobytes()
