"""RNS polynomials: the ``(limbs x N)`` matrices the paper schedules.

An :class:`RnsPoly` is one polynomial of ``Z_Q[X]/(X^N + 1)`` stored as an
``(l+1) x N`` int64 limb matrix under an explicit RNS basis, tagged with
its current representation (:class:`Domain`): coefficient or NTT
(evaluation).  All FHE operators in this package are built from the small
set of primitives here — element-wise modular arithmetic, NTT/iNTT,
Galois automorphism, and base conversion — mirroring the operator
taxonomy of the CROPHE IR.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.fhe import rns
from repro.fhe.ntt import galois_coeff, galois_eval_permutation, get_ntt_context
from repro.fhe.rns import INT


class Domain(enum.Enum):
    """Representation of a polynomial's limb data."""

    COEFF = "coeff"
    NTT = "ntt"


@dataclass
class RnsPoly:
    """A polynomial in RNS form.

    Attributes:
        data: ``(num_limbs, n)`` int64 array of residues.
        moduli: the RNS basis, one modulus per limb row.
        domain: coefficient or NTT representation.
    """

    data: np.ndarray
    moduli: Tuple[int, ...]
    domain: Domain = Domain.NTT

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=INT)
        self.moduli = tuple(int(q) for q in self.moduli)
        if self.data.ndim != 2:
            raise ValueError(f"limb matrix must be 2-D, got {self.data.shape}")
        if self.data.shape[0] != len(self.moduli):
            raise ValueError(
                f"{self.data.shape[0]} limb rows vs {len(self.moduli)} moduli"
            )
        n = self.data.shape[1]
        if n & (n - 1):
            raise ValueError("polynomial length must be a power of two")

    # -- construction ---------------------------------------------------

    @classmethod
    def zeros(cls, n: int, moduli: Sequence[int], domain: Domain = Domain.NTT) -> "RnsPoly":
        return cls(np.zeros((len(moduli), n), dtype=INT), tuple(moduli), domain)

    @classmethod
    def from_coefficients(
        cls, coeffs: Sequence[int], n: int, moduli: Sequence[int]
    ) -> "RnsPoly":
        """Build from signed integer coefficients (len <= n)."""
        padded = list(coeffs) + [0] * (n - len(coeffs))
        limbs = rns.to_rns(padded, list(moduli))
        return cls(np.stack(limbs), tuple(moduli), Domain.COEFF)

    @classmethod
    def random_uniform(
        cls,
        n: int,
        moduli: Sequence[int],
        rng: np.random.Generator,
        domain: Domain = Domain.NTT,
    ) -> "RnsPoly":
        """Uniform random polynomial (each limb independently uniform).

        Limb-wise uniform sampling is the standard RNS shortcut for a
        uniform element of ``Z_Q`` (exact by CRT).
        """
        data = np.stack(
            [rng.integers(0, q, size=n, dtype=INT) for q in moduli]
        )
        return cls(data, tuple(moduli), domain)

    # -- basic properties -----------------------------------------------

    @property
    def n(self) -> int:
        return self.data.shape[1]

    @property
    def num_limbs(self) -> int:
        return self.data.shape[0]

    def copy(self) -> "RnsPoly":
        """Deep-copy the limb matrix."""
        return RnsPoly(self.data.copy(), self.moduli, self.domain)

    def _check_compatible(self, other: "RnsPoly") -> None:
        if self.moduli != other.moduli:
            raise ValueError("RNS bases differ")
        if self.domain != other.domain:
            raise ValueError(
                f"domain mismatch: {self.domain.value} vs {other.domain.value}"
            )

    # -- element-wise arithmetic ----------------------------------------

    def __add__(self, other: "RnsPoly") -> "RnsPoly":
        self._check_compatible(other)
        out = np.empty_like(self.data)
        for i, q in enumerate(self.moduli):
            out[i] = rns.mod_add(self.data[i], other.data[i], q)
        return RnsPoly(out, self.moduli, self.domain)

    def __sub__(self, other: "RnsPoly") -> "RnsPoly":
        self._check_compatible(other)
        out = np.empty_like(self.data)
        for i, q in enumerate(self.moduli):
            out[i] = rns.mod_sub(self.data[i], other.data[i], q)
        return RnsPoly(out, self.moduli, self.domain)

    def __neg__(self) -> "RnsPoly":
        out = np.empty_like(self.data)
        for i, q in enumerate(self.moduli):
            out[i] = rns.mod_neg(self.data[i], q)
        return RnsPoly(out, self.moduli, self.domain)

    def __mul__(self, other: "RnsPoly") -> "RnsPoly":
        """Element-wise product; requires NTT domain (Hadamard = poly mul)."""
        self._check_compatible(other)
        if self.domain is not Domain.NTT:
            raise ValueError("polynomial products require the NTT domain")
        out = np.empty_like(self.data)
        for i, q in enumerate(self.moduli):
            out[i] = rns.mod_mul(self.data[i], other.data[i], q)
        return RnsPoly(out, self.moduli, self.domain)

    def scalar_mul(self, scalar: int) -> "RnsPoly":
        """Multiply every coefficient/evaluation by an integer scalar."""
        out = np.empty_like(self.data)
        for i, q in enumerate(self.moduli):
            out[i] = rns.mod_mul(self.data[i], np.int64(scalar % q), q)
        return RnsPoly(out, self.moduli, self.domain)

    def limb_scalar_mul(self, scalars: Sequence[int]) -> "RnsPoly":
        """Multiply each limb by its own scalar (e.g. CRT factors)."""
        if len(scalars) != self.num_limbs:
            raise ValueError("one scalar per limb required")
        out = np.empty_like(self.data)
        for i, q in enumerate(self.moduli):
            out[i] = rns.mod_mul(self.data[i], np.int64(int(scalars[i]) % q), q)
        return RnsPoly(out, self.moduli, self.domain)

    # -- representation changes -------------------------------------------

    def to_ntt(self) -> "RnsPoly":
        """Forward NTT on every limb (no-op if already in NTT domain)."""
        if self.domain is Domain.NTT:
            return self.copy()
        out = np.empty_like(self.data)
        for i, q in enumerate(self.moduli):
            out[i] = get_ntt_context(self.n, q).forward(self.data[i])
        return RnsPoly(out, self.moduli, Domain.NTT)

    def to_coeff(self) -> "RnsPoly":
        """Inverse NTT on every limb (no-op if already in coeff domain)."""
        if self.domain is Domain.COEFF:
            return self.copy()
        out = np.empty_like(self.data)
        for i, q in enumerate(self.moduli):
            out[i] = get_ntt_context(self.n, q).inverse(self.data[i])
        return RnsPoly(out, self.moduli, Domain.COEFF)

    def automorphism(self, t: int) -> "RnsPoly":
        """Apply the Galois map ``a(X) -> a(X^t)`` in the current domain."""
        out = np.empty_like(self.data)
        if self.domain is Domain.NTT:
            perm = galois_eval_permutation(self.n, t)
            for i in range(self.num_limbs):
                out[i] = self.data[i][perm]
        else:
            for i, q in enumerate(self.moduli):
                out[i] = galois_coeff(self.data[i], t, q)
        return RnsPoly(out, self.moduli, self.domain)

    # -- basis manipulation -----------------------------------------------

    def drop_last_limb(self) -> "RnsPoly":
        """Remove the last RNS limb (basis shrinks by one modulus)."""
        if self.num_limbs <= 1:
            raise ValueError("cannot drop the only limb")
        return RnsPoly(self.data[:-1].copy(), self.moduli[:-1], self.domain)

    def extend(self, other: "RnsPoly") -> "RnsPoly":
        """Concatenate limb matrices of two disjoint bases."""
        if self.domain != other.domain:
            raise ValueError("domain mismatch in basis extension")
        if set(self.moduli) & set(other.moduli):
            raise ValueError("bases overlap")
        return RnsPoly(
            np.concatenate([self.data, other.data]),
            self.moduli + other.moduli,
            self.domain,
        )

    def sub_basis(self, moduli: Sequence[int]) -> "RnsPoly":
        """Project onto a subset of the current basis (by modulus value)."""
        moduli = tuple(int(q) for q in moduli)
        index = {q: i for i, q in enumerate(self.moduli)}
        rows = [index[q] for q in moduli]
        return RnsPoly(self.data[rows].copy(), moduli, self.domain)

    # -- reconstruction (tests / decode) ----------------------------------

    def to_integers(self) -> list:
        """CRT-reconstruct centered big-integer coefficients (coeff domain)."""
        if self.domain is not Domain.COEFF:
            raise ValueError("reconstruction requires the coefficient domain")
        return rns.crt_reconstruct(list(self.data), list(self.moduli))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RnsPoly):
            return NotImplemented
        return (
            self.moduli == other.moduli
            and self.domain == other.domain
            and np.array_equal(self.data, other.data)
        )
