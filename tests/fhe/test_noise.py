"""Tests for the noise estimator against measured noise."""

import numpy as np
import pytest

from repro.fhe import ops
from repro.fhe.noise import NoiseEstimator, measure_noise_bits
from repro.fhe.params import parameter_set


class TestEstimatorModel:
    @pytest.fixture()
    def est(self, small_params):
        return NoiseEstimator(small_params)

    def test_fresh_state(self, est, small_params):
        s = est.fresh()
        assert s.level == small_params.max_level
        assert s.budget_bits > 0

    def test_addition_grows_one_bit(self, est):
        a = est.fresh()
        out = est.add(a, a)
        assert out.log_noise == pytest.approx(a.log_noise + 1.0)

    def test_add_level_mismatch_raises(self, est):
        a = est.fresh(level=2)
        b = est.fresh(level=1)
        with pytest.raises(ValueError):
            est.add(a, b)

    def test_multiply_grows_noise(self, est):
        a = est.fresh()
        out = est.multiply(a, a)
        assert out.log_noise > a.log_noise
        assert out.log_scale == pytest.approx(2 * a.log_scale)

    def test_rescale_drops_level_and_noise(self, est):
        a = est.multiply(est.fresh(), est.fresh())
        out = est.rescale(a)
        assert out.level == a.level - 1
        assert out.log_noise < a.log_noise

    def test_rescale_at_zero_raises(self, est):
        a = est.fresh(level=0)
        with pytest.raises(ValueError):
            est.rescale(a)

    def test_rotation_adds_keyswitch_noise(self, est):
        a = est.fresh()
        out = est.rotate(a)
        assert out.log_noise >= a.log_noise
        assert out.level == a.level

    def test_depth_budget_positive(self, est, small_params):
        assert 1 <= est.depth_budget() <= small_params.max_level

    def test_spec_params_usable(self):
        est = NoiseEstimator(parameter_set("SHARP"))
        assert est.fresh().budget_bits > 0


class TestEstimatorVsMeasurement:
    """The a-priori estimate must upper-bound the measured noise."""

    def test_fresh_encryption(self, small_ctx, rng):
        v = rng.uniform(-1, 1, small_ctx.params.slots)
        ct = small_ctx.encrypt(small_ctx.encode(v))
        measured = measure_noise_bits(small_ctx, ct, v)
        est = NoiseEstimator(small_ctx.params).fresh()
        assert measured <= est.log_noise + 2.0

    def test_after_multiplication(self, small_ctx, rng):
        v = rng.uniform(-1, 1, small_ctx.params.slots)
        ct = small_ctx.encrypt(small_ctx.encode(v))
        prod = ops.rescale(small_ctx, ops.square(small_ctx, ct))
        measured = measure_noise_bits(small_ctx, prod, v * v)
        est = NoiseEstimator(small_ctx.params)
        state = est.rescale(est.multiply(est.fresh(), est.fresh()))
        assert measured <= state.log_noise + 6.0

    def test_after_rotation(self, small_ctx, rng):
        v = rng.uniform(-1, 1, small_ctx.params.slots)
        ct = ops.rotate(small_ctx, small_ctx.encrypt(small_ctx.encode(v)), 2)
        measured = measure_noise_bits(small_ctx, ct, np.roll(v, -2))
        est = NoiseEstimator(small_ctx.params)
        state = est.rotate(est.fresh())
        assert measured <= state.log_noise + 6.0

    def test_noise_grows_through_chain(self, small_ctx, rng):
        v = rng.uniform(0.5, 1.0, small_ctx.params.slots)
        ct = small_ctx.encrypt(small_ctx.encode(v))
        fresh_bits = measure_noise_bits(small_ctx, ct, v)
        prod = ops.rescale(small_ctx, ops.square(small_ctx, ct))
        # Compare *relative* noise (error / scale) so the rescale's scale
        # change does not mask growth.
        rel_fresh = fresh_bits - np.log2(ct.scale)
        rel_prod = measure_noise_bits(small_ctx, prod, v * v) - np.log2(
            prod.scale
        )
        assert rel_prod > rel_fresh - 1.0
