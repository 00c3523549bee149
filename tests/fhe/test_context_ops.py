"""Tests for the CKKS context and homomorphic operators."""

import numpy as np
import pytest

from repro.fhe import ops
from repro.fhe.context import CKKSContext
from repro.fhe.params import parameter_set

TOL = 1e-3


def _vec(ctx, rng, lo=-1.0, hi=1.0):
    return rng.uniform(lo, hi, ctx.params.slots)


class TestContext:
    def test_requires_concrete_params(self):
        with pytest.raises(ValueError):
            CKKSContext(parameter_set("ARK"))

    def test_encrypt_decrypt_round_trip(self, small_ctx, rng):
        v = _vec(small_ctx, rng)
        ct = small_ctx.encrypt(small_ctx.encode(v))
        back = small_ctx.decrypt_decode(ct, len(v))
        assert np.max(np.abs(back - v)) < TOL

    def test_deterministic_given_seed(self, small_params):
        a = CKKSContext(small_params, seed=5)
        b = CKKSContext(small_params, seed=5)
        assert a.secret_key.poly == b.secret_key.poly

    def test_different_seeds_differ(self, small_params):
        a = CKKSContext(small_params, seed=5)
        b = CKKSContext(small_params, seed=6)
        assert a.secret_key.poly != b.secret_key.poly

    def test_sparse_key_weight(self, small_params):
        ctx = CKKSContext(small_params, seed=9, hamming_weight=4)
        coeffs = ctx.secret_key.poly.to_coeff().to_integers()
        assert sum(1 for c in coeffs if c != 0) == 4

    def test_sparse_key_bad_weight(self, small_params):
        with pytest.raises(ValueError):
            CKKSContext(small_params, seed=9, hamming_weight=10 ** 6)

    def test_keys_cached_per_level(self, small_ctx):
        k1 = small_ctx.relin_key(2)
        k2 = small_ctx.relin_key(2)
        assert k1 is k2
        assert small_ctx.relin_key(1) is not k1

    def test_evk_element_count_matches_formula(self, small_ctx):
        level = small_ctx.params.max_level
        evk = small_ctx.relin_key(level)
        assert evk.element_count() == small_ctx.params.evk_elements(level)

    def test_encode_level_and_scale(self, small_ctx):
        pt = small_ctx.encode([1.0], level=1, scale=2.0 ** 15)
        assert pt.level == 1
        assert pt.scale == 2.0 ** 15
        assert pt.poly.num_limbs == 2


class TestElementwiseOps:
    def test_add(self, small_ctx, rng):
        a, b = _vec(small_ctx, rng), _vec(small_ctx, rng)
        ct = ops.add(
            small_ctx.encrypt(small_ctx.encode(a)),
            small_ctx.encrypt(small_ctx.encode(b)),
        )
        assert np.max(np.abs(small_ctx.decrypt_decode(ct, len(a)) - (a + b))) < TOL

    def test_sub(self, small_ctx, rng):
        a, b = _vec(small_ctx, rng), _vec(small_ctx, rng)
        ct = ops.sub(
            small_ctx.encrypt(small_ctx.encode(a)),
            small_ctx.encrypt(small_ctx.encode(b)),
        )
        assert np.max(np.abs(small_ctx.decrypt_decode(ct, len(a)) - (a - b))) < TOL

    def test_negate(self, small_ctx, rng):
        a = _vec(small_ctx, rng)
        ct = ops.negate(small_ctx.encrypt(small_ctx.encode(a)))
        assert np.max(np.abs(small_ctx.decrypt_decode(ct, len(a)) + a)) < TOL

    def test_add_level_mismatch_raises(self, small_ctx, rng):
        a = _vec(small_ctx, rng)
        ct0 = small_ctx.encrypt(small_ctx.encode(a))
        ct1 = small_ctx.encrypt(small_ctx.encode(a, level=1))
        with pytest.raises(ValueError):
            ops.add(ct0, ct1)

    def test_add_plain(self, small_ctx, rng):
        a, b = _vec(small_ctx, rng), _vec(small_ctx, rng)
        ct = small_ctx.encrypt(small_ctx.encode(a))
        out = ops.add_plain(ct, small_ctx.encode(b))
        assert np.max(np.abs(small_ctx.decrypt_decode(out, len(a)) - (a + b))) < TOL

    def test_mul_plain(self, small_ctx, rng):
        a, b = _vec(small_ctx, rng), _vec(small_ctx, rng)
        ct = small_ctx.encrypt(small_ctx.encode(a))
        out = ops.rescale(small_ctx, ops.mul_plain(ct, small_ctx.encode(b)))
        assert np.max(np.abs(small_ctx.decrypt_decode(out, len(a)) - a * b)) < TOL

    def test_add_scalar(self, small_ctx, rng):
        a = _vec(small_ctx, rng)
        ct = small_ctx.encrypt(small_ctx.encode(a))
        out = ops.add_scalar(small_ctx, ct, 0.75)
        assert np.max(np.abs(small_ctx.decrypt_decode(out, len(a)) - (a + 0.75))) < TOL

    def test_mul_scalar_then_rescale(self, small_ctx, rng):
        a = _vec(small_ctx, rng)
        ct = small_ctx.encrypt(small_ctx.encode(a))
        out = ops.rescale(small_ctx, ops.mul_scalar(small_ctx, ct, -2.5))
        assert np.max(np.abs(small_ctx.decrypt_decode(out, len(a)) + 2.5 * a)) < TOL

    def test_mul_scalar_integer_free(self, small_ctx, rng):
        a = _vec(small_ctx, rng)
        ct = small_ctx.encrypt(small_ctx.encode(a))
        out = ops.mul_scalar_integer(ct, 3)
        assert out.level == ct.level
        assert out.scale == ct.scale
        assert np.max(np.abs(small_ctx.decrypt_decode(out, len(a)) - 3 * a)) < TOL


class TestMultiplication:
    def test_tensor_gives_size_3(self, small_ctx, rng):
        a = _vec(small_ctx, rng)
        ct = small_ctx.encrypt(small_ctx.encode(a))
        t = ops.tensor(ct, ct)
        assert t.size == 3
        # Decryptable without relinearization via s^2 term.
        back = small_ctx.decrypt_decode(t, len(a))
        assert np.max(np.abs(back - a * a)) < TOL * 10

    def test_multiply_and_rescale(self, small_ctx, rng):
        a, b = _vec(small_ctx, rng), _vec(small_ctx, rng)
        ct = ops.rescale(
            small_ctx,
            ops.multiply(
                small_ctx,
                small_ctx.encrypt(small_ctx.encode(a)),
                small_ctx.encrypt(small_ctx.encode(b)),
            ),
        )
        assert ct.level == small_ctx.params.max_level - 1
        assert np.max(np.abs(small_ctx.decrypt_decode(ct, len(a)) - a * b)) < TOL

    def test_square(self, small_ctx, rng):
        a = _vec(small_ctx, rng)
        ct = ops.rescale(
            small_ctx, ops.square(small_ctx, small_ctx.encrypt(small_ctx.encode(a)))
        )
        assert np.max(np.abs(small_ctx.decrypt_decode(ct, len(a)) - a * a)) < TOL

    def test_multiplication_chain_to_level_zero(self, small_ctx, rng):
        a = _vec(small_ctx, rng, 0.5, 1.0)
        ct = small_ctx.encrypt(small_ctx.encode(a))
        want = a.copy()
        for _ in range(small_ctx.params.max_level):
            ct = ops.rescale(small_ctx, ops.square(small_ctx, ct))
            want = want * want
        assert ct.level == 0
        assert np.max(np.abs(small_ctx.decrypt_decode(ct, len(a)) - want)) < 0.05

    def test_rescale_at_level_zero_raises(self, small_ctx, rng):
        ct = small_ctx.encrypt(small_ctx.encode(_vec(small_ctx, rng), level=0))
        with pytest.raises(ValueError):
            ops.rescale(small_ctx, ct)

    def test_relinearize_requires_size_3(self, small_ctx, rng):
        ct = small_ctx.encrypt(small_ctx.encode(_vec(small_ctx, rng)))
        with pytest.raises(ValueError):
            ops.relinearize(small_ctx, ct)

    def test_level_down(self, small_ctx, rng):
        a = _vec(small_ctx, rng)
        ct = ops.level_down(small_ctx.encrypt(small_ctx.encode(a)), 1)
        assert ct.level == 1
        assert np.max(np.abs(small_ctx.decrypt_decode(ct, len(a)) - a)) < TOL

    def test_level_down_cannot_raise(self, small_ctx, rng):
        ct = small_ctx.encrypt(small_ctx.encode(_vec(small_ctx, rng), level=1))
        with pytest.raises(ValueError):
            ops.level_down(ct, 2)


class TestRotationConjugation:
    @pytest.mark.parametrize("r", [1, 2, 5, 31])
    def test_rotate(self, small_ctx, rng, r):
        a = _vec(small_ctx, rng)
        ct = ops.rotate(small_ctx, small_ctx.encrypt(small_ctx.encode(a)), r)
        back = small_ctx.decrypt_decode(ct, len(a))
        assert np.max(np.abs(back - np.roll(a, -r))) < TOL

    def test_rotate_zero_is_copy(self, small_ctx, rng):
        a = _vec(small_ctx, rng)
        ct = small_ctx.encrypt(small_ctx.encode(a))
        out = ops.rotate(small_ctx, ct, 0)
        assert out is not ct
        assert np.array_equal(out.polys[0].data, ct.polys[0].data)

    def test_rotate_full_circle(self, small_ctx, rng):
        a = _vec(small_ctx, rng)
        ct = small_ctx.encrypt(small_ctx.encode(a))
        out = ops.rotate(small_ctx, ct, small_ctx.params.slots)
        back = small_ctx.decrypt_decode(out, len(a))
        assert np.max(np.abs(back - a)) < TOL

    def test_rotations_compose(self, small_ctx, rng):
        a = _vec(small_ctx, rng)
        ct = small_ctx.encrypt(small_ctx.encode(a))
        two_step = ops.rotate(small_ctx, ops.rotate(small_ctx, ct, 2), 3)
        back = small_ctx.decrypt_decode(two_step, len(a))
        assert np.max(np.abs(back - np.roll(a, -5))) < TOL

    def test_conjugate(self, small_ctx, rng):
        v = rng.uniform(-1, 1, small_ctx.params.slots) + 1j * rng.uniform(
            -1, 1, small_ctx.params.slots
        )
        ct = ops.conjugate(small_ctx, small_ctx.encrypt(small_ctx.encode(v)))
        back = small_ctx.decrypt_decode(ct, len(v))
        assert np.max(np.abs(back - np.conj(v))) < TOL

    def test_automorphism_without_keyswitch_changes_key(self, small_ctx, rng):
        """Raw automorphism garbles decryption under the original key."""
        a = _vec(small_ctx, rng)
        ct = small_ctx.encrypt(small_ctx.encode(a))
        from repro.fhe.encoding import rotation_galois_element

        t = rotation_galois_element(small_ctx.params.n, 1)
        raw = ops.automorphism(ct, t)
        back = small_ctx.decrypt_decode(raw, len(a))
        assert np.max(np.abs(back - np.roll(a, -1))) > 0.1


class TestSpecParameterBuilds:
    """Workload graphs must build for every Table III parameter set."""

    @pytest.mark.parametrize("name", ["BTS", "ARK", "SHARP", "CraterLake"])
    def test_bootstrapping_builds(self, name):
        from repro.analysis import verify_graph
        from repro.workloads import build_bootstrapping

        wl = build_bootstrapping(parameter_set(name))
        assert wl.total_operators > 100
        for seg in wl.segments:
            assert verify_graph(seg.graph).ok, seg.name

    @pytest.mark.parametrize("name", ["BTS", "CraterLake"])
    def test_extreme_dnum_keyswitch_shapes(self, name):
        """dnum=2 (BTS) and dnum=1 (CraterLake) exercise digit edges."""
        from repro.ir.builders import GraphBuilder
        from repro.ir.operators import OpKind

        p = parameter_set(name)
        b = GraphBuilder(p)
        b.hmult(
            b.input_ciphertext("x", p.max_level),
            b.input_ciphertext("y", p.max_level),
        )
        inps = [op for op in b.graph.operators if op.kind is OpKind.KSK_INP]
        assert inps[0].digits == p.digits_at_level(p.max_level)
