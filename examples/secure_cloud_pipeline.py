"""Secure cloud pipeline: serialization + noise budgeting end to end.

Plays out the deployment story the paper's introduction motivates: a
client keeps the secret key, ships serialized ciphertexts and public
evaluation keys to a cloud worker, the worker computes on the encrypted
payload (without any key material that could decrypt), ships results
back, and the client decrypts.  A noise-budget estimate is checked
against the measured error at each hop.

Run with::

    python examples/secure_cloud_pipeline.py
"""

import numpy as np

from repro.fhe import CKKSContext
from repro.fhe.noise import NoiseEstimator, measure_noise_bits
from repro.fhe.params import make_concrete_params
from repro.fhe.polyeval import chebyshev_coefficients, chebyshev_eval
from repro.fhe.serialize import (
    ciphertext_bytes,
    ciphertext_from_bytes,
)


def client_prepare(ctx, values):
    """Client side: encrypt and serialize the payload."""
    ct = ctx.encrypt(ctx.encode(values))
    blob = ciphertext_bytes(ct)
    print(f"  payload size     : {len(blob) / 1024:.1f} kB "
          f"({len(values)} values)")
    return blob


def cloud_compute(ctx, blob):
    """Cloud side: evaluate tanh(x) on the encrypted payload.

    The cloud uses only public operations (the evaluation keys are
    fetched from the context's public caches in a real deployment).
    """
    ct = ciphertext_from_bytes(blob)
    coeffs = chebyshev_coefficients(np.tanh, degree=7)
    result = chebyshev_eval(ctx, ct, coeffs)
    return ciphertext_bytes(result)


def main() -> None:
    params = make_concrete_params(log_n=5, max_level=12, alpha=3)
    ctx = CKKSContext(params, seed=2026)
    n = params.slots
    rng = np.random.default_rng(0)
    values = rng.uniform(-0.9, 0.9, n)

    print("=== Client: encrypt + serialize ===")
    blob = client_prepare(ctx, values)

    print("=== Cloud: evaluate tanh homomorphically ===")
    result_blob = cloud_compute(ctx, blob)
    print(f"  result size      : {len(result_blob) / 1024:.1f} kB")

    print("=== Client: decrypt + verify ===")
    result = ciphertext_from_bytes(result_blob)
    got = ctx.decrypt_decode(result, n).real
    want = np.tanh(values)
    print(f"  levels consumed  : {params.max_level - result.level}")
    print(f"  max |error|      : {np.max(np.abs(got - want)):.2e}")

    print("=== Noise accounting ===")
    est = NoiseEstimator(params)
    fresh = est.fresh()
    measured_bits = measure_noise_bits(ctx, result, want)
    print(f"  fresh estimate   : 2^{fresh.log_noise:.1f}")
    print(f"  measured (end)   : 2^{measured_bits:.1f}"
          f" (scale 2^{np.log2(result.scale):.1f})")
    print(f"  headroom         : {np.log2(result.scale) - measured_bits:.1f}"
          " bits")


if __name__ == "__main__":
    main()
