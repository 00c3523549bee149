"""Tests for homomorphic polynomial evaluation."""

import numpy as np
import pytest

from repro.fhe.context import CKKSContext
from repro.fhe.params import make_concrete_params
from repro.fhe.polyeval import (
    chebyshev_coefficients,
    chebyshev_eval,
    horner,
    multiplication_depth,
    paterson_stockmeyer,
)

TOL = 2e-2


@pytest.fixture(scope="module")
def deep_ctx():
    params = make_concrete_params(log_n=5, max_level=12, alpha=3)
    return CKKSContext(params, seed=21)


def _encrypted(ctx, rng, lo=-0.9, hi=0.9):
    v = rng.uniform(lo, hi, ctx.params.slots)
    return v, ctx.encrypt(ctx.encode(v))


class TestHorner:
    def test_linear(self, deep_ctx, rng):
        v, ct = _encrypted(deep_ctx, rng)
        out = horner(deep_ctx, ct, [1.0, 2.0])  # 1 + 2x
        got = deep_ctx.decrypt_decode(out, len(v)).real
        assert np.max(np.abs(got - (1 + 2 * v))) < TOL

    def test_cubic(self, deep_ctx, rng):
        v, ct = _encrypted(deep_ctx, rng)
        coeffs = [0.5, -1.0, 0.25, 0.125]
        out = horner(deep_ctx, ct, coeffs)
        want = np.polyval(coeffs[::-1], v)
        got = deep_ctx.decrypt_decode(out, len(v)).real
        assert np.max(np.abs(got - want)) < TOL

    def test_constant(self, deep_ctx, rng):
        v, ct = _encrypted(deep_ctx, rng)
        out = horner(deep_ctx, ct, [0.75])
        got = deep_ctx.decrypt_decode(out, len(v)).real
        assert np.max(np.abs(got - 0.75)) < TOL

    def test_empty_rejected(self, deep_ctx, rng):
        _, ct = _encrypted(deep_ctx, rng)
        with pytest.raises(ValueError):
            horner(deep_ctx, ct, [])


class TestPatersonStockmeyer:
    @pytest.mark.parametrize("degree", [3, 5, 7, 9])
    def test_matches_numpy(self, deep_ctx, rng, degree):
        v, ct = _encrypted(deep_ctx, rng, -0.8, 0.8)
        coeffs = list(rng.uniform(-0.5, 0.5, degree + 1))
        out = paterson_stockmeyer(deep_ctx, ct, coeffs)
        want = np.polyval(coeffs[::-1], v)
        got = deep_ctx.decrypt_decode(out, len(v)).real
        assert np.max(np.abs(got - want)) < TOL

    def test_matches_horner(self, deep_ctx, rng):
        v, ct = _encrypted(deep_ctx, rng, -0.8, 0.8)
        coeffs = [0.1, 0.2, -0.3, 0.05, 0.02, -0.01]
        ps = paterson_stockmeyer(deep_ctx, ct, coeffs)
        ho = horner(deep_ctx, ct, coeffs)
        got_ps = deep_ctx.decrypt_decode(ps, len(v)).real
        got_ho = deep_ctx.decrypt_decode(ho, len(v)).real
        assert np.max(np.abs(got_ps - got_ho)) < TOL

    def test_uses_fewer_levels_than_horner(self, deep_ctx, rng):
        _, ct = _encrypted(deep_ctx, rng)
        coeffs = list(rng.uniform(-0.3, 0.3, 10))  # degree 9
        ps = paterson_stockmeyer(deep_ctx, ct, coeffs)
        ho = horner(deep_ctx, ct, coeffs)
        assert ps.level >= ho.level

    def test_sparse_polynomial(self, deep_ctx, rng):
        v, ct = _encrypted(deep_ctx, rng, -0.8, 0.8)
        coeffs = [0.0, 0.5, 0.0, 0.0, 0.0, -0.1]  # 0.5x - 0.1x^5
        out = paterson_stockmeyer(deep_ctx, ct, coeffs)
        want = 0.5 * v - 0.1 * v ** 5
        got = deep_ctx.decrypt_decode(out, len(v)).real
        assert np.max(np.abs(got - want)) < TOL


class TestChebyshev:
    def test_coefficients_reproduce_function(self):
        coeffs = chebyshev_coefficients(np.tanh, degree=15)
        xs = np.linspace(-1, 1, 101)
        approx = np.zeros_like(xs)
        for x_i, x in enumerate(xs):
            t_prev, t_cur = 1.0, x
            total = coeffs[0] * t_prev + coeffs[1] * t_cur
            for j in range(2, len(coeffs)):
                t_prev, t_cur = t_cur, 2 * x * t_cur - t_prev
                total += coeffs[j] * t_cur
            approx[x_i] = total
        assert np.max(np.abs(approx - np.tanh(xs))) < 1e-6

    def test_homomorphic_tanh(self, deep_ctx, rng):
        v, ct = _encrypted(deep_ctx, rng, -0.9, 0.9)
        coeffs = chebyshev_coefficients(np.tanh, degree=7)
        out = chebyshev_eval(deep_ctx, ct, coeffs)
        got = deep_ctx.decrypt_decode(out, len(v)).real
        assert np.max(np.abs(got - np.tanh(v))) < 0.05


class TestDepthModel:
    def test_horner_depth_is_degree(self):
        assert multiplication_depth(7, "horner") == 7

    def test_ps_shallower_for_large_degrees(self):
        assert multiplication_depth(27, "ps") < multiplication_depth(27, "horner")

    def test_zero_degree(self):
        assert multiplication_depth(0) == 0

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            multiplication_depth(4, "magic")
