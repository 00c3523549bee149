"""Loop-nest notation for operator dataflow (paper Section V-A).

Most FHE operators iterate over three dimensions: the slot dimension
``N``, the limb dimension (``l + 1`` or ``alpha + l + 1``), and the digit
dimension ``beta``.  A :class:`LoopNest` is an ordered tuple of
:class:`Loop` from outermost to innermost — the paper writes
``N1 > L > N2`` for "tile N into N1 x N2, iterate limbs between".

Fine-grained pipelining/sharing between two co-running operators
requires them to *have the same loops in the same order at the top few
levels*; :func:`matched_prefix` computes that, and
:meth:`LoopNest.granule_elements` the resulting per-chunk buffer need.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, List, Tuple


class Axis(enum.Enum):
    """Iteration axes of FHE operators."""

    N = "N"          # slot dimension (or an untiled remainder of it)
    N1 = "N1"        # outer tile of N (four-step column count)
    N2 = "N2"        # inner tile of N (four-step row length)
    LIMB = "L"       # RNS limb dimension
    DIGIT = "B"      # key-switching digit dimension
    STAGE = "log"    # NTT butterfly stages (never pipelineable across ops)


@dataclass(frozen=True)
class Loop:
    """One loop level: an axis and its trip count."""

    axis: Axis
    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"loop size must be >= 1, got {self.size}")

    def __repr__(self) -> str:
        return f"{self.axis.value}:{self.size}"


class LoopNest:
    """An ordered loop nest, outermost first."""

    def __init__(self, loops: Iterable[Loop]):
        self.loops: Tuple[Loop, ...] = tuple(loops)

    @classmethod
    def of(cls, *pairs: Tuple[Axis, int]) -> "LoopNest":
        return cls(Loop(axis, size) for axis, size in pairs)

    @property
    def total_iterations(self) -> int:
        total = 1
        for loop in self.loops:
            total *= loop.size
        return total

    def top(self, k: int) -> Tuple[Loop, ...]:
        """The outermost ``k`` loops."""
        return self.loops[:k]

    def granule_elements(self, matched_levels: int) -> int:
        """Elements streamed per iteration of the top ``matched_levels``.

        This is the on-chip buffer footprint a fine-grained pipeline needs
        for this operator's data: the product of the trip counts *below*
        the matched prefix.
        """
        if not 0 <= matched_levels <= len(self.loops):
            raise ValueError(
                f"matched_levels {matched_levels} out of range "
                f"[0, {len(self.loops)}]"
            )
        granule = 1
        for loop in self.loops[matched_levels:]:
            granule *= loop.size
        return granule

    def drop_top(self, k: int) -> "LoopNest":
        """The nest without its outermost ``k`` loops."""
        return LoopNest(self.loops[k:])

    def __iter__(self):
        return iter(self.loops)

    def __len__(self) -> int:
        return len(self.loops)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LoopNest):
            return NotImplemented
        return self.loops == other.loops

    def __hash__(self) -> int:
        return hash(self.loops)

    def __repr__(self) -> str:
        return " > ".join(repr(l) for l in self.loops) or "<scalar>"


def matched_prefix(a: LoopNest, b: LoopNest) -> int:
    """Number of identical top loops (same axis, same trip count)."""
    count = 0
    for la, lb in zip(a.loops, b.loops):
        if la != lb:
            break
        # Butterfly stages never match across operators.
        if la.axis is Axis.STAGE:
            break
        count += 1
    return count


def pipeline_granule(
    producer: LoopNest, consumer: LoopNest
) -> Tuple[int, int]:
    """(matched levels, per-chunk element count) for a pipelined pair.

    The pipeline streams one chunk per iteration of the matched prefix;
    the chunk size is taken from the *producer's* remaining loops (its
    output production granularity).  Zero matched levels means the full
    tensor must be materialized (no fine-grained pipelining).
    """
    k = matched_prefix(producer, consumer)
    return k, producer.granule_elements(k)


def tile_n(n: int, n1: int) -> Tuple[int, int]:
    """Split the slot dimension ``N = n1 * n2``; validates divisibility."""
    if n % n1:
        raise ValueError(f"n1={n1} does not divide N={n}")
    return n1, n // n1


def power_of_two_splits(
    n: int, min_tile: int = 1, max_splits: int = 64
) -> List[Tuple[int, int]]:
    """All ``(n1, n2)`` power-of-two splits with both tiles >= min_tile."""
    if n & (n - 1):
        raise ValueError("N must be a power of two")
    out: List[Tuple[int, int]] = []
    n1 = min_tile
    while n1 * min_tile <= n and len(out) < max_splits:
        out.append((n1, n // n1))
        n1 *= 2
    return out
