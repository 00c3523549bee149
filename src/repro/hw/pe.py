"""Processing element timing model.

Each PE is a vector of ``lanes`` modular-arithmetic lanes (one multiplier
plus a few adders each), fully pipelined at the logic frequency.  Lane
pairs combine for NTT butterflies; the inter-lane network (reduction
tree, constant-geometry shuffle, shift stages) is single-cycle per stage
and never the throughput bottleneck (Section IV-A).
"""

from __future__ import annotations

from repro.hw.config import HardwareConfig
from repro.ir.operators import Operator, OpKind


def operator_cycles(
    op: Operator, num_pes: int, lanes_per_pe: int
) -> int:
    """Cycles to execute ``op`` on ``num_pes`` PEs.

    Work is spread across all allocated lanes; each lane retires one
    modular multiplication per cycle (adds ride along on the extra
    adders).  NTT butterflies use lane *pairs*, halving effective lanes,
    which the mul_work formula already accounts for (N/2 butterflies per
    stage).  Automorphisms and transposes move ``limbs * N`` words
    through the shift networks at one element per lane per cycle.
    """
    if num_pes < 1:
        raise ValueError("need at least one PE")
    lanes = num_pes * lanes_per_pe
    if op.kind in (OpKind.AUTOMORPHISM, OpKind.TRANSPOSE):
        moves = op.limbs * op.n
        return max(1, -(moves // -lanes))
    work = op.mul_work
    if work == 0:  # pure additions (EW_ADD): adders in each lane
        work = op.add_work
    if work == 0:  # routing-only pseudo-ops
        return 1
    return max(1, -(work // -lanes))


def seconds(cycles: int, config: HardwareConfig) -> float:
    """Convert cycles to seconds at the configured clock."""
    return cycles / (config.frequency_ghz * 1e9)
