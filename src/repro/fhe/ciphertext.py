"""Ciphertext and plaintext containers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.fhe.poly import RnsPoly


@dataclass
class Plaintext:
    """An encoded (but not encrypted) polynomial with its scale/level."""

    poly: RnsPoly
    scale: float
    level: int

    @property
    def n(self) -> int:
        return self.poly.n


@dataclass
class Ciphertext:
    """A CKKS ciphertext: a list of polynomials (usually ``(b, a)``).

    A freshly encrypted or key-switched ciphertext has two polynomials;
    the tensor product inside HMult transiently produces three
    (``d0, d1, d2``) until relinearization.

    Attributes:
        polys: the component polynomials, all over the same basis.
        scale: current CKKS scale Delta'.
        level: current multiplicative level (number of moduli minus one).
    """

    polys: List[RnsPoly]
    scale: float
    level: int

    def __post_init__(self) -> None:
        if not self.polys:
            raise ValueError("ciphertext needs at least one polynomial")
        basis = self.polys[0].moduli
        for p in self.polys:
            if p.moduli != basis:
                raise ValueError("ciphertext polynomials must share a basis")
        if len(basis) != self.level + 1:
            raise ValueError(
                f"level {self.level} implies {self.level + 1} limbs, "
                f"basis has {len(basis)}"
            )

    @property
    def n(self) -> int:
        return self.polys[0].n

    @property
    def size(self) -> int:
        """Number of component polynomials (2 normally, 3 pre-relin)."""
        return len(self.polys)

    @property
    def b(self) -> RnsPoly:
        return self.polys[0]

    @property
    def a(self) -> RnsPoly:
        if len(self.polys) < 2:
            raise ValueError("ciphertext has no `a` component")
        return self.polys[1]

    @property
    def moduli(self):
        return self.polys[0].moduli

    def copy(self) -> "Ciphertext":
        """Deep-copy all component polynomials."""
        return Ciphertext([p.copy() for p in self.polys], self.scale, self.level)
