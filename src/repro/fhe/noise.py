"""Noise budget estimation and measurement for CKKS.

Two complementary tools:

* :class:`NoiseEstimator` — closed-form *a priori* growth model (fresh
  encryption, addition, multiplication, key-switch, rescale), in the
  style of the heuristic bounds used to pick parameters.
* :func:`measure_noise_bits` — *a posteriori* measurement against a
  known plaintext: encrypts/computes/decrypts and reports the actual
  error magnitude in bits, used by tests to validate the estimator's
  ordering (estimates must upper-bound measurements).

Noise here means the absolute error on the decrypted *scaled* values
(coefficient domain), reported as ``log2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.fhe.ciphertext import Ciphertext
from repro.fhe.context import CKKSContext
from repro.fhe.params import CKKSParams


@dataclass
class NoiseState:
    """Tracked noise of one ciphertext (log2 of absolute error)."""

    log_noise: float
    level: int
    log_scale: float

    @property
    def budget_bits(self) -> float:
        """Bits of headroom between the scale and the noise."""
        return self.log_scale - self.log_noise


class NoiseEstimator:
    """Heuristic noise-growth model for RNS-CKKS.

    Uses the standard circular-security heuristics: fresh noise
    ``~ sigma * sqrt(N)``; multiplication scales noise by the other
    operand's magnitude; key-switching adds
    ``~ beta * N * sigma * Q_digit / P``; rescale divides by the dropped
    prime and adds a rounding term ``~ sqrt(N)``.
    """

    def __init__(self, params: CKKSParams, sigma: float = 3.2):
        self.params = params
        self.sigma = sigma

    # -- per-operation transfer functions --------------------------------

    def fresh(self, level: Optional[int] = None,
              log_scale: Optional[float] = None) -> NoiseState:
        """Noise of a freshly encrypted ciphertext."""
        level = self.params.max_level if level is None else level
        log_scale = (
            float(self.params.scale_bits) if log_scale is None else log_scale
        )
        # Fresh noise: two error-times-ternary convolution terms
        # (v*e_pk and e1*s) of magnitude ~ sigma * sqrt(2N/3) each, plus
        # encode rounding and canonical-embedding spread.
        log_noise = math.log2(self.sigma) + 0.5 * self.params.log_n + 3.0
        return NoiseState(log_noise, level, log_scale)

    def add(self, a: NoiseState, b: NoiseState) -> NoiseState:
        """Noise after a homomorphic addition."""
        if a.level != b.level:
            raise ValueError("level mismatch in noise model")
        return NoiseState(
            max(a.log_noise, b.log_noise) + 1.0, a.level, a.log_scale
        )

    def _keyswitch_noise(self, level: int) -> float:
        """log2 noise added by one key switch at ``level``."""
        q_bits = self._prime_bits()
        digit_bits = min(self.params.alpha, level + 1) * q_bits
        p_bits = self.params.alpha * (q_bits + 1)
        return (
            math.log2(self.sigma)
            + self.params.log_n
            + digit_bits - p_bits
            + math.log2(self.params.digits_at_level(level))
            + 2.0  # ModDown rounding margin
        )

    def multiply(
        self, a: NoiseState, b: NoiseState,
        log_message_a: float = 0.0, log_message_b: float = 0.0,
    ) -> NoiseState:
        """HMult including relinearization.

        ``log_message_*`` are log2 magnitudes of the plaintext values
        (noise is amplified by the *other* operand's magnitude x scale).
        """
        if a.level != b.level:
            raise ValueError("level mismatch in noise model")
        cross_a = a.log_noise + b.log_scale + log_message_b
        cross_b = b.log_noise + a.log_scale + log_message_a
        ks = self._keyswitch_noise(a.level)
        log_noise = max(cross_a, cross_b, ks) + 1.0
        return NoiseState(log_noise, a.level, a.log_scale + b.log_scale)

    def rotate(self, a: NoiseState) -> NoiseState:
        """Noise after an HRot (automorphism + key switch)."""
        ks = self._keyswitch_noise(a.level)
        return NoiseState(
            max(a.log_noise, ks) + 1.0, a.level, a.log_scale
        )

    def rescale(self, a: NoiseState) -> NoiseState:
        """Noise after dividing by the dropped prime."""
        if a.level == 0:
            raise ValueError("cannot rescale at level 0")
        q_bits = self._prime_bits()
        rounded = max(a.log_noise - q_bits, 0.5 * self.params.log_n)
        return NoiseState(rounded + 1.0, a.level - 1, a.log_scale - q_bits)

    def _prime_bits(self) -> float:
        if self.params.moduli:
            return math.log2(self.params.moduli[-1])
        return float(max(self.params.word_bits - 4, self.params.scale_bits))

    # -- circuit-level helper ---------------------------------------------

    def depth_budget(self) -> int:
        """Multiplications (with rescale) before the budget runs out."""
        state = self.fresh()
        depth = 0
        while state.level > 0:
            state = self.rescale(self.multiply(state, state))
            if state.budget_bits <= 0:
                break
            depth += 1
        return depth


def measure_noise_bits(
    ctx: CKKSContext, ct: Ciphertext, expected: Sequence[complex]
) -> float:
    """Measured log2 absolute error of a ciphertext vs. its expectation.

    The error is measured on the decoded slot values and rescaled to the
    coefficient domain (multiplied by the nominal scale) so it is
    comparable with :class:`NoiseEstimator` outputs.
    """
    got = ctx.decrypt_decode(ct, len(expected))
    err = np.max(np.abs(np.asarray(got) - np.asarray(expected)))
    absolute = max(err * ct.scale, 1e-12)
    return math.log2(absolute)
