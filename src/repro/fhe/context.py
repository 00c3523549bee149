"""The CKKS context: key generation, encryption, and decryption.

:class:`CKKSContext` binds a concrete :class:`~repro.fhe.params.CKKSParams`
to generated key material and exposes encode/encrypt/decrypt/decode along
with lazily generated key-switching keys (relinearization, rotation,
conjugation).  Key-switching keys are generated *per level* so that the
digit decomposition always aligns with the current basis — see
``keyswitch.py`` for the pipeline that consumes them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fhe import encoding
from repro.fhe.ciphertext import Ciphertext, Plaintext
from repro.fhe.keys import EvaluationKey, PublicKey, SecretKey
from repro.fhe.params import CKKSParams
from repro.fhe.poly import Domain, RnsPoly
from repro.fhe.rns import mod_inverse


class CKKSContext:
    """Holds parameters, keys, and randomness for a CKKS instantiation.

    Args:
        params: a *concrete* parameter set (``params.is_concrete``).
        seed: RNG seed; all randomness (keys, encryption noise) derives
            from it, making tests reproducible.
        error_std: standard deviation of the discrete Gaussian noise.
        hamming_weight: if set, sample a *sparse* ternary secret with
            exactly this many nonzero coefficients.  Sparse keys bound
            the ModRaise overflow polynomial ``I`` and are what the
            paper's sparse-packed bootstrapping [14] relies on.
    """

    def __init__(
        self,
        params: CKKSParams,
        seed: int = 2026,
        error_std: float = 3.2,
        hamming_weight: Optional[int] = None,
    ):
        self.hamming_weight = hamming_weight
        if not params.is_concrete:
            raise ValueError(
                "CKKSContext requires concrete moduli; use "
                "make_concrete_params() (spec sets only drive the scheduler)"
            )
        self.params = params
        self.rng = np.random.default_rng(seed)
        self.error_std = error_std
        self.full_basis: Tuple[int, ...] = tuple(params.moduli) + tuple(
            params.special_moduli
        )
        self.secret_key = self._generate_secret_key()
        self.public_key = self._generate_public_key()
        self._relin_keys: Dict[int, EvaluationKey] = {}
        self._rotation_keys: Dict[Tuple[int, int], EvaluationKey] = {}
        self._conj_keys: Dict[int, EvaluationKey] = {}

    # ------------------------------------------------------------------
    # Randomness
    # ------------------------------------------------------------------

    def _sample_error_coeffs(self) -> np.ndarray:
        e = np.round(self.rng.normal(0.0, self.error_std, size=self.params.n))
        return e.astype(np.int64)

    def _sample_ternary_coeffs(self) -> np.ndarray:
        return self.rng.integers(-1, 2, size=self.params.n, dtype=np.int64)

    def _error_poly(self, moduli: Sequence[int]) -> RnsPoly:
        return RnsPoly.from_coefficients(
            list(self._sample_error_coeffs()), self.params.n, moduli
        ).to_ntt()

    def _uniform_poly(self, moduli: Sequence[int]) -> RnsPoly:
        return RnsPoly.random_uniform(self.params.n, moduli, self.rng, Domain.NTT)

    # ------------------------------------------------------------------
    # Key generation
    # ------------------------------------------------------------------

    def _sample_secret_coeffs(self) -> np.ndarray:
        if self.hamming_weight is None:
            return self._sample_ternary_coeffs()
        h = self.hamming_weight
        if not 0 < h <= self.params.n:
            raise ValueError(f"hamming_weight {h} out of (0, {self.params.n}]")
        coeffs = np.zeros(self.params.n, dtype=np.int64)
        support = self.rng.choice(self.params.n, size=h, replace=False)
        coeffs[support] = self.rng.choice([-1, 1], size=h)
        return coeffs

    def _generate_secret_key(self) -> SecretKey:
        coeffs = self._sample_secret_coeffs()
        poly = RnsPoly.from_coefficients(
            list(coeffs), self.params.n, self.full_basis
        ).to_ntt()
        return SecretKey(poly=poly)

    def _generate_public_key(self) -> PublicKey:
        q_basis = tuple(self.params.moduli)
        s = self.secret_key.poly.sub_basis(q_basis)
        a = self._uniform_poly(q_basis)
        e = self._error_poly(q_basis)
        b = -(a * s) + e
        return PublicKey(b=b, a=a)

    def _digit_bounds(self, level: int) -> List[Tuple[int, int]]:
        """Limb index ranges [start, end) of each digit at ``level``."""
        alpha = self.params.alpha
        bounds = []
        start = 0
        while start <= level:
            end = min(start + alpha, level + 1)
            bounds.append((start, end))
            start = end
        return bounds

    def _generate_keyswitch_key(
        self, s_prime: RnsPoly, level: int, kind: str
    ) -> EvaluationKey:
        """Generate an evk switching ciphertexts under ``s'`` to ``s``.

        For each digit ``j`` with modulus product ``Q_j``:
        ``b_j = -a_j*s + e_j + P * (Q/Q_j) * [(Q/Q_j)^{-1}]_{Q_j} * s'``
        over the basis ``P * Q_level``.
        """
        q_moduli = list(self.params.moduli[: level + 1])
        p_moduli = list(self.params.special_moduli)
        ext_basis = tuple(q_moduli) + tuple(p_moduli)
        big_q = 1
        for q in q_moduli:
            big_q *= q
        big_p = 1
        for p in p_moduli:
            big_p *= p
        s = self.secret_key.poly.sub_basis(ext_basis)
        sp = s_prime.sub_basis(ext_basis)
        digits = []
        for (start, end) in self._digit_bounds(level):
            digit_q = 1
            for q in q_moduli[start:end]:
                digit_q *= q
            q_hat = big_q // digit_q
            factor = big_p * q_hat * mod_inverse(q_hat % digit_q, digit_q)
            factors = [factor % q for q in ext_basis]
            a_j = self._uniform_poly(ext_basis)
            e_j = self._error_poly(ext_basis)
            b_j = -(a_j * s) + e_j + sp.limb_scalar_mul(factors)
            digits.append((b_j, a_j))
        return EvaluationKey(digits=digits, level=level, kind=kind)

    def relin_key(self, level: int) -> EvaluationKey:
        """Key switching ``s**2 -> s`` at ``level`` (cached)."""
        key = self._relin_keys.get(level)
        if key is None:
            s = self.secret_key.poly
            key = self._generate_keyswitch_key(s * s, level, "relin")
            self._relin_keys[level] = key
        return key

    def rotation_key(self, r: int, level: int) -> EvaluationKey:
        """Key switching ``sigma_{5^r}(s) -> s`` at ``level`` (cached)."""
        r = r % self.params.slots
        cache_key = (r, level)
        key = self._rotation_keys.get(cache_key)
        if key is None:
            t = encoding.rotation_galois_element(self.params.n, r)
            s_rot = self.secret_key.poly.automorphism(t)
            key = self._generate_keyswitch_key(s_rot, level, f"rot:{r}")
            self._rotation_keys[cache_key] = key
        return key

    def conjugation_key(self, level: int) -> EvaluationKey:
        """Key switching ``sigma_{-1}(s) -> s`` at ``level`` (cached)."""
        key = self._conj_keys.get(level)
        if key is None:
            t = encoding.conjugation_galois_element(self.params.n)
            s_conj = self.secret_key.poly.automorphism(t)
            key = self._generate_keyswitch_key(s_conj, level, "conj")
            self._conj_keys[level] = key
        return key

    # ------------------------------------------------------------------
    # Encode / encrypt / decrypt / decode
    # ------------------------------------------------------------------

    @property
    def default_scale(self) -> float:
        return float(2 ** self.params.scale_bits)

    def encode(
        self,
        values: Sequence[complex],
        level: Optional[int] = None,
        scale: Optional[float] = None,
    ) -> Plaintext:
        """Encode a vector into a plaintext at the given level/scale."""
        level = self.params.max_level if level is None else level
        scale = self.default_scale if scale is None else scale
        coeffs = encoding.encode(values, self.params.n, scale)
        moduli = self.params.moduli[: level + 1]
        poly = RnsPoly.from_coefficients(
            list(coeffs), self.params.n, moduli
        ).to_ntt()
        return Plaintext(poly=poly, scale=scale, level=level)

    def decode(self, plaintext: Plaintext, num_slots: int = 0) -> np.ndarray:
        """Decode a plaintext back to its complex slot vector."""
        coeffs = plaintext.poly.to_coeff().to_integers()
        return encoding.decode(
            np.array(coeffs, dtype=np.float64),
            self.params.n,
            plaintext.scale,
            num_slots,
        )

    def encrypt(self, plaintext: Plaintext) -> Ciphertext:
        """Public-key encryption: ``ct = v*(pk.b, pk.a) + (m + e0, e1)``."""
        moduli = tuple(self.params.moduli[: plaintext.level + 1])
        v = RnsPoly.from_coefficients(
            list(self._sample_ternary_coeffs()), self.params.n, moduli
        ).to_ntt()
        pk_b = self.public_key.b.sub_basis(moduli)
        pk_a = self.public_key.a.sub_basis(moduli)
        e0 = self._error_poly(moduli)
        e1 = self._error_poly(moduli)
        b = pk_b * v + e0 + plaintext.poly
        a = pk_a * v + e1
        return Ciphertext([b, a], plaintext.scale, plaintext.level)

    def decrypt(self, ct: Ciphertext) -> Plaintext:
        """Decrypt ``sum_i ct_i * s^i`` (supports size-3 pre-relin cts)."""
        s = self.secret_key.poly.sub_basis(ct.moduli)
        acc = ct.polys[0].copy()
        s_power = s
        for poly in ct.polys[1:]:
            acc = acc + poly * s_power
            s_power = s_power * s
        return Plaintext(poly=acc, scale=ct.scale, level=ct.level)

    def decrypt_decode(self, ct: Ciphertext, num_slots: int = 0) -> np.ndarray:
        """Decrypt then decode in one step (testing convenience)."""
        return self.decode(self.decrypt(ct), num_slots)
