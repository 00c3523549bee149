"""Tests for CKKS serialization."""

import os

import numpy as np
import pytest

from repro.fhe import ops
from repro.fhe.serialize import (
    ciphertext_bytes,
    ciphertext_from_bytes,
    dump_ciphertext,
    dump_evaluation_key,
    dump_secret_key,
    load_ciphertext,
    load_evaluation_key,
    load_secret_key,
)


class TestCiphertext:
    def test_round_trip_file(self, small_ctx, rng, tmp_path):
        v = rng.uniform(-1, 1, small_ctx.params.slots)
        ct = small_ctx.encrypt(small_ctx.encode(v))
        path = os.path.join(tmp_path, "ct.npz")
        dump_ciphertext(ct, path)
        back = load_ciphertext(path)
        assert back.level == ct.level
        assert back.scale == ct.scale
        for p0, p1 in zip(ct.polys, back.polys):
            assert p0 == p1

    def test_round_trip_decrypts(self, small_ctx, rng):
        v = rng.uniform(-1, 1, small_ctx.params.slots)
        ct = small_ctx.encrypt(small_ctx.encode(v))
        back = ciphertext_from_bytes(ciphertext_bytes(ct))
        got = small_ctx.decrypt_decode(back, len(v)).real
        assert np.max(np.abs(got - v)) < 1e-3

    def test_size3_ciphertext(self, small_ctx, rng):
        v = rng.uniform(-1, 1, small_ctx.params.slots)
        ct = small_ctx.encrypt(small_ctx.encode(v))
        t = ops.tensor(ct, ct)
        back = ciphertext_from_bytes(ciphertext_bytes(t))
        assert back.size == 3

    def test_wire_format_usable_after_ops(self, small_ctx, rng):
        """Client-server round trip: serialize, compute, serialize back."""
        v = rng.uniform(-1, 1, small_ctx.params.slots)
        blob = ciphertext_bytes(small_ctx.encrypt(small_ctx.encode(v)))
        server_ct = ciphertext_from_bytes(blob)
        result_blob = ciphertext_bytes(ops.add(server_ct, server_ct))
        got = small_ctx.decrypt_decode(
            ciphertext_from_bytes(result_blob), len(v)
        ).real
        assert np.max(np.abs(got - 2 * v)) < 1e-3

    def test_rejects_garbage(self, tmp_path):
        path = os.path.join(tmp_path, "junk.npz")
        np.savez(path, x=np.arange(4))
        with pytest.raises((ValueError, KeyError)):
            load_ciphertext(path)


class TestKeys:
    def test_evk_round_trip(self, small_ctx, tmp_path):
        key = small_ctx.relin_key(small_ctx.params.max_level)
        path = os.path.join(tmp_path, "evk.npz")
        dump_evaluation_key(key, path)
        back = load_evaluation_key(path)
        assert back.level == key.level
        assert back.kind == key.kind
        assert back.num_digits == key.num_digits
        for (b0, a0), (b1, a1) in zip(key.digits, back.digits):
            assert b0 == b1
            assert a0 == a1

    def test_secret_key_guarded(self, small_ctx, tmp_path):
        path = os.path.join(tmp_path, "sk.npz")
        with pytest.raises(PermissionError):
            dump_secret_key(small_ctx.secret_key, path)

    def test_secret_key_forced_round_trip(self, small_ctx, tmp_path):
        path = os.path.join(tmp_path, "sk.npz")
        dump_secret_key(
            small_ctx.secret_key, path, i_know_what_i_am_doing=True
        )
        back = load_secret_key(path)
        assert back.poly == small_ctx.secret_key.poly
