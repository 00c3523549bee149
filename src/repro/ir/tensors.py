"""Data tensors flowing between operators.

The paper distinguishes two classes of on-chip data (Section V-A):

* *intermediate ciphertext polynomials* — produced and consumed by
  operators, candidates for **pipelining**;
* *auxiliary constant data* — evaluation keys, BConv constant matrices,
  plaintext diagonals, twiddle factors — candidates for **sharing**
  among co-running operators of the same type.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Tuple


class TensorKind(enum.Enum):
    """What a tensor holds; drives pipelining-vs-sharing decisions."""

    POLY = "poly"              # intermediate ciphertext limb matrix
    EVK = "evk"                # evaluation key (constant, huge)
    BCONV_MATRIX = "bconv"     # BConv constant matrix (constant, tiny)
    PLAINTEXT = "plaintext"    # encoded plaintext (constant per program)
    TWIDDLE = "twiddle"        # NTT twiddle factors (constant)
    EXTERNAL = "external"      # program input/output (always off-chip)

    @property
    def is_constant(self) -> bool:
        return self not in (TensorKind.POLY, TensorKind.EXTERNAL)


_ids = itertools.count()


@dataclass
class DataTensor:
    """A logical tensor: shape, class, and storage size.

    Attributes:
        name: human-readable label (e.g. ``"hmult0.d2"``).
        kind: tensor class (see :class:`TensorKind`).
        shape: logical dimensions, e.g. ``(limbs, N)`` for a polynomial
            or ``(2, beta, limbs, N)`` for an evk.
        word_bytes: bytes per residue word.
        uid: unique id (auto-assigned).
    """

    name: str
    kind: TensorKind
    shape: Tuple[int, ...]
    word_bytes: int = 8
    uid: int = field(default_factory=lambda: next(_ids))

    # Cached: shapes are immutable after construction, and the DP
    # scheduler reads tensor sizes millions of times per search.
    @cached_property
    def elements(self) -> int:
        total = 1
        for d in self.shape:
            total *= d
        return total

    @cached_property
    def bytes(self) -> int:
        return self.elements * self.word_bytes

    @property
    def is_constant(self) -> bool:
        return self.kind.is_constant

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataTensor):
            return NotImplemented
        return self.uid == other.uid

    def __repr__(self) -> str:
        dims = "x".join(str(d) for d in self.shape)
        return f"<{self.kind.value} {self.name} [{dims}]>"


def poly_tensor(
    name: str, limbs: int, n: int, word_bytes: int = 8
) -> DataTensor:
    """An intermediate ciphertext polynomial (limbs x N)."""
    return DataTensor(name, TensorKind.POLY, (limbs, n), word_bytes)


def evk_tensor(
    name: str,
    beta: int,
    limbs: int,
    n: int,
    word_bytes: int = 8,
    prng_halved: bool = False,
) -> DataTensor:
    """An evaluation key: 2 x beta x (alpha + l + 1) x N.

    With ``prng_halved`` the ``a`` polynomials regenerate on-chip from a
    seed, so the stored/moved shape drops to 1 x beta x limbs x N.
    """
    polys = 1 if prng_halved else 2
    return DataTensor(name, TensorKind.EVK, (polys, beta, limbs, n), word_bytes)


def bconv_matrix_tensor(
    name: str, rows: int, cols: int, word_bytes: int = 8
) -> DataTensor:
    """A BConv constant matrix (target_limbs x source_limbs)."""
    return DataTensor(name, TensorKind.BCONV_MATRIX, (rows, cols), word_bytes)


def plaintext_tensor(
    name: str, limbs: int, n: int, word_bytes: int = 8
) -> DataTensor:
    """An encoded plaintext polynomial."""
    return DataTensor(name, TensorKind.PLAINTEXT, (limbs, n), word_bytes)


def twiddle_tensor(name: str, n: int, word_bytes: int = 8) -> DataTensor:
    """Twiddle factors for one NTT size (shared across limbs)."""
    return DataTensor(name, TensorKind.TWIDDLE, (n,), word_bytes)


def external_tensor(
    name: str, limbs: int, n: int, word_bytes: int = 8
) -> DataTensor:
    """A program input/output polynomial that must live off-chip."""
    return DataTensor(name, TensorKind.EXTERNAL, (limbs, n), word_bytes)
