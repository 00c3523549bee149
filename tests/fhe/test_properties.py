"""Cross-cutting property-based tests on the FHE substrate.

These exercise algebraic invariants that tie several modules together:
homomorphism properties of the full encrypt/compute/decrypt pipeline,
NTT/encoding dualities, and the rotation-strategy equivalences the
scheduler's cost model relies on.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe import ops
from repro.fhe.rotation import hybrid_cost_summary

small_floats = st.floats(min_value=-1.0, max_value=1.0,
                         allow_nan=False, allow_infinity=False)


class TestHomomorphism:
    @given(st.lists(small_floats, min_size=1, max_size=32),
           st.lists(small_floats, min_size=1, max_size=32))
    @settings(max_examples=10, deadline=None)
    def test_addition_homomorphic(self, small_ctx, a_vals, b_vals):
        n = max(len(a_vals), len(b_vals))
        a = np.zeros(n)
        a[: len(a_vals)] = a_vals
        b = np.zeros(n)
        b[: len(b_vals)] = b_vals
        ct = ops.add(
            small_ctx.encrypt(small_ctx.encode(a)),
            small_ctx.encrypt(small_ctx.encode(b)),
        )
        got = small_ctx.decrypt_decode(ct, n).real
        assert np.max(np.abs(got - (a + b))) < 5e-3

    @given(st.lists(small_floats, min_size=1, max_size=32))
    @settings(max_examples=10, deadline=None)
    def test_multiplication_homomorphic(self, small_ctx, vals):
        v = np.asarray(vals)
        ct = small_ctx.encrypt(small_ctx.encode(v))
        sq = ops.rescale(small_ctx, ops.square(small_ctx, ct))
        got = small_ctx.decrypt_decode(sq, len(v)).real
        assert np.max(np.abs(got - v * v)) < 5e-3

    @given(st.integers(min_value=0, max_value=31))
    @settings(max_examples=8, deadline=None)
    def test_rotation_matches_roll(self, small_ctx, r):
        rng = np.random.default_rng(r)
        v = rng.uniform(-1, 1, small_ctx.params.slots)
        ct = ops.rotate(small_ctx, small_ctx.encrypt(small_ctx.encode(v)), r)
        got = small_ctx.decrypt_decode(ct, len(v)).real
        assert np.max(np.abs(got - np.roll(v, -r))) < 5e-3


class TestHybridFormulaProperties:
    @given(st.integers(min_value=1, max_value=64),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=60, deadline=None)
    def test_counts_non_negative_and_consistent(self, n1, r_hyb):
        s = hybrid_cost_summary(n1, r_hyb)
        assert s["coarse_steps"] >= 0
        assert s["fine_steps"] >= 0
        assert s["coarse_steps"] + s["fine_steps"] == n1 - 1
        assert s["mod_downs"] == n1 - 1
        assert 0 <= s["distinct_evks"] <= n1 - 1 or n1 == 1

    @given(st.integers(min_value=2, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_endpoints(self, n1):
        minks = hybrid_cost_summary(n1, 1)
        assert minks["distinct_evks"] == 1
        assert minks["mod_ups"] == n1 - 1
        hoist = hybrid_cost_summary(n1, n1)
        assert hoist["mod_ups"] == 1
        assert hoist["distinct_evks"] == n1 - 1

    @given(st.integers(min_value=4, max_value=64),
           st.integers(min_value=2, max_value=16))
    @settings(max_examples=40, deadline=None)
    def test_modups_between_endpoints(self, n1, r_hyb):
        s = hybrid_cost_summary(n1, r_hyb)
        assert 1 <= s["mod_ups"] <= n1 - 1


class TestLevelInvariants:
    @given(st.integers(min_value=0, max_value=3))
    @settings(max_examples=4, deadline=None)
    def test_level_down_then_ops_consistent(self, small_ctx, level):
        rng = np.random.default_rng(level)
        v = rng.uniform(-1, 1, small_ctx.params.slots)
        ct = ops.level_down(small_ctx.encrypt(small_ctx.encode(v)), level)
        assert ct.level == level
        doubled = ops.add(ct, ct)
        got = small_ctx.decrypt_decode(doubled, len(v)).real
        assert np.max(np.abs(got - 2 * v)) < 5e-3
