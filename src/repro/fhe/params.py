"""CKKS parameter sets.

A :class:`CKKSParams` instance carries everything both the functional FHE
library and the CROPHE scheduler need to know about a CKKS instantiation:
the ring degree ``N``, the maximum multiplicative level ``L``, the digit
decomposition parameters ``dnum``/``alpha``, and the RNS moduli.

Two kinds of parameter sets exist:

* *Concrete* sets (small ``N``, ~30-bit NTT-friendly primes) for which the
  functional library can actually encrypt/compute/decrypt.  Used by tests
  and examples.
* *Spec* sets matching the paper's Table III (``log2 N`` of 16-17, large
  ``L``).  These drive the scheduler and performance models, which only
  need shapes and counts, never concrete residue arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.resilience.errors import ConfigError


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit integers."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def ntt_friendly_primes(n: int, bits: int, count: int, skip: int = 0) -> Tuple[int, ...]:
    """Return ``count`` primes ``p = 1 (mod 2n)`` near ``2**bits``.

    Such primes admit a primitive ``2n``-th root of unity, as required by
    the negacyclic NTT over ``Z_p[X]/(X^n + 1)``.  ``skip`` lets callers
    carve out disjoint prime sets (e.g. ciphertext moduli vs. the special
    modulus) from the same search sequence.
    """
    if n & (n - 1):
        raise ValueError(f"n must be a power of two, got {n}")
    step = 2 * n
    candidate = (1 << bits) + 1
    # Align to 1 mod 2n.
    candidate += (-candidate + 1) % step
    found: List[int] = []
    skipped = 0
    while len(found) < count:
        if is_prime(candidate):
            if skipped < skip:
                skipped += 1
            else:
                found.append(candidate)
        candidate += step
        if candidate >= (1 << (bits + 2)):
            raise RuntimeError(
                f"exhausted search for {count} NTT primes of {bits} bits (n={n})"
            )
    return tuple(found)


def primitive_root_of_unity(order: int, modulus: int) -> int:
    """Find a primitive ``order``-th root of unity modulo a prime."""
    if (modulus - 1) % order:
        raise ValueError(f"{order} does not divide {modulus}-1")
    # Factor `order` (a power of two times small factors in our usage).
    cofactor = (modulus - 1) // order
    for g in range(2, modulus):
        root = pow(g, cofactor, modulus)
        if pow(root, order // 2, modulus) != 1:
            return root
    raise RuntimeError("no primitive root found")


@dataclass(frozen=True)
class CKKSParams:
    """Static parameters of an RNS-CKKS instantiation.

    Attributes:
        log_n: log2 of the ring degree ``N``.
        max_level: maximum multiplicative level ``L`` (there are ``L + 1``
            ciphertext prime moduli ``q_0 .. q_L``).
        dnum: number of digits in the key-switching decomposition.
        alpha: limbs per digit; the special modulus has ``k = alpha``
            primes.  ``dnum * alpha >= L + 1`` must hold.
        word_bits: machine word length the accelerator uses for residues.
        scale_bits: log2 of the encoding scale Delta.
        boot_levels: levels consumed by bootstrapping (``L_boot``).
        moduli: concrete ciphertext primes ``q_0..q_L`` (empty for spec
            sets).
        special_moduli: concrete special primes ``p_0..p_{alpha-1}``.
        name: optional label (e.g. the baseline this set matches).
    """

    log_n: int
    max_level: int
    dnum: int
    alpha: int
    word_bits: int = 36
    scale_bits: int = 20
    boot_levels: int = 0
    moduli: Tuple[int, ...] = field(default=())
    special_moduli: Tuple[int, ...] = field(default=())
    name: str = ""

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Reject inconsistent CKKS parameters at construction time.

        Raises:
            ConfigError: naming the offending field.
        """
        if self.log_n < 2 or self.log_n > 20:
            raise ConfigError(
                "log_n", self.log_n, "ring degree exponent out of [2, 20]"
            )
        if self.max_level < 0:
            raise ConfigError("max_level", self.max_level, "must be >= 0")
        if self.alpha < 1:
            raise ConfigError("alpha", self.alpha, "must be >= 1")
        if self.dnum < 1:
            raise ConfigError("dnum", self.dnum, "must be >= 1")
        if self.word_bits < 1:
            raise ConfigError("word_bits", self.word_bits, "must be >= 1")
        if self.scale_bits < 1:
            raise ConfigError("scale_bits", self.scale_bits, "must be >= 1")
        if self.boot_levels < 0 or self.boot_levels > self.max_level:
            raise ConfigError(
                "boot_levels", self.boot_levels,
                f"must lie in [0, max_level={self.max_level}]",
            )
        if self.dnum * self.alpha < self.max_level + 1:
            raise ConfigError(
                "dnum", self.dnum,
                f"dnum*alpha={self.dnum * self.alpha} cannot cover "
                f"L+1={self.max_level + 1} limbs",
            )
        if self.moduli and len(self.moduli) != self.max_level + 1:
            raise ConfigError(
                "moduli", len(self.moduli),
                f"need exactly L+1={self.max_level + 1} ciphertext moduli",
            )
        if self.moduli and len(self.special_moduli) != self.alpha:
            raise ConfigError(
                "special_moduli", len(self.special_moduli),
                f"need exactly alpha={self.alpha} special moduli",
            )

    @property
    def n(self) -> int:
        """Ring degree ``N``."""
        return 1 << self.log_n

    @property
    def slots(self) -> int:
        """Number of complex vector slots (``N / 2``)."""
        return self.n // 2

    @property
    def num_limbs(self) -> int:
        """Number of ciphertext limbs at the maximum level (``L + 1``)."""
        return self.max_level + 1

    @property
    def num_special_limbs(self) -> int:
        """Number of special-modulus limbs (``k = alpha``)."""
        return self.alpha

    @property
    def is_concrete(self) -> bool:
        """Whether concrete RNS moduli are attached (functional mode)."""
        return bool(self.moduli)

    def digits_at_level(self, level: int) -> int:
        """Digit count ``beta = ceil((level + 1) / alpha)`` at ``level``."""
        if not 0 <= level <= self.max_level:
            raise ValueError(f"level {level} out of [0, {self.max_level}]")
        return -((level + 1) // -self.alpha)

    def evk_limbs(self, level: int) -> int:
        """Limb count of each evk polynomial at ``level``: alpha + l + 1."""
        return self.alpha + level + 1

    def evk_elements(self, level: int) -> int:
        """Total residue elements in one evaluation key at ``level``.

        Shape: 2 polynomials x beta digits x (alpha + l + 1) limbs x N.
        """
        beta = self.digits_at_level(level)
        return 2 * beta * self.evk_limbs(level) * self.n

    def ciphertext_elements(self, level: int) -> int:
        """Residue elements in a (b, a) ciphertext at ``level``."""
        return 2 * (level + 1) * self.n

    def bytes_per_word(self) -> int:
        """Storage bytes per residue word (word_bits rounded up to bytes)."""
        return (self.word_bits + 7) // 8

    def with_level(self, level: int) -> "CKKSParams":
        """A copy truncated to ``level`` as the maximum level."""
        if level == self.max_level:
            return self
        return CKKSParams(
            log_n=self.log_n,
            max_level=level,
            dnum=self.dnum,
            alpha=self.alpha,
            word_bits=self.word_bits,
            scale_bits=self.scale_bits,
            boot_levels=min(self.boot_levels, level),
            moduli=self.moduli[: level + 1] if self.moduli else (),
            special_moduli=self.special_moduli,
            name=self.name,
        )


def make_concrete_params(
    log_n: int,
    max_level: int,
    alpha: int,
    scale_bits: Optional[int] = None,
    prime_bits: int = 28,
    name: str = "test",
) -> CKKSParams:
    """Build a concrete (functional) parameter set with real NTT primes.

    Prime residues stay below 2**30 so that numpy int64 products never
    overflow, which keeps all polynomial arithmetic vectorized.  The
    default scale equals the prime size so rescaling keeps the scale
    (and thus precision) roughly constant across levels.
    """
    if scale_bits is None:
        scale_bits = prime_bits
    if prime_bits > 29:
        raise ValueError("prime_bits must be <= 29 to avoid int64 overflow")
    num_q = max_level + 1
    n = 1 << log_n
    qs = ntt_friendly_primes(n, prime_bits, num_q)
    # Special primes: disjoint from ciphertext primes, slightly larger so
    # that P > product of any digit's q_i ratio stays favorable for noise.
    ps = ntt_friendly_primes(n, prime_bits + 1, alpha)
    dnum = -((max_level + 1) // -alpha)
    return CKKSParams(
        log_n=log_n,
        max_level=max_level,
        dnum=dnum,
        alpha=alpha,
        word_bits=prime_bits + 1,
        scale_bits=scale_bits,
        moduli=qs,
        special_moduli=ps,
        name=name,
    )


#: Paper Table III: parameter set used when comparing with each baseline.
PARAMETER_SETS: Dict[str, CKKSParams] = {
    "BTS": CKKSParams(
        log_n=17, max_level=39, boot_levels=19, dnum=2, alpha=20,
        word_bits=64, scale_bits=50, name="BTS",
    ),
    "ARK": CKKSParams(
        log_n=16, max_level=23, boot_levels=15, dnum=4, alpha=6,
        word_bits=64, scale_bits=50, name="ARK",
    ),
    "SHARP": CKKSParams(
        log_n=16, max_level=35, boot_levels=27, dnum=3, alpha=12,
        word_bits=36, scale_bits=30, name="SHARP",
    ),
    "CraterLake": CKKSParams(
        log_n=16, max_level=59, boot_levels=51, dnum=1, alpha=60,
        word_bits=28, scale_bits=24, name="CraterLake",
    ),
}


def parameter_set(name: str) -> CKKSParams:
    """Look up one of the paper's Table III parameter sets by name."""
    try:
        return PARAMETER_SETS[name]
    except KeyError:
        raise KeyError(
            f"unknown parameter set {name!r}; "
            f"choose from {sorted(PARAMETER_SETS)}"
        ) from None


def security_bits_estimate(params: CKKSParams) -> float:
    """Crude LWE security estimate (ratio-based rule of thumb).

    The paper states all Table III sets reach 128-bit security.  We scale
    from the standard homomorphic-encryption-security anchor point that
    ``N = 2**16`` supports ``log2(Q*P) ~ 1728`` bits at 128-bit security,
    with security roughly proportional to ``N / log2(Q*P)``.  This is a
    sanity check for relative parameter choices, not a cryptographic
    guarantee.
    """
    total_mod_bits = (params.max_level + 1 + params.alpha) * _modulus_bits(params)
    return 128.0 * (params.n / 65536.0) * (1728.0 / max(total_mod_bits, 1))


def _modulus_bits(params: CKKSParams) -> int:
    if params.moduli:
        return max(q.bit_length() for q in params.moduli)
    # Spec sets: moduli occupy roughly the machine word.
    return max(params.word_bits - 4, params.scale_bits)
