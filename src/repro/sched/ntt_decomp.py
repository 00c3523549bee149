"""NTT decomposition analysis (Section V-B).

The four-step decomposition turns each monolithic (i)NTT into column and
row phases with a transpose between them, exposing independent ``N1`` /
``N2`` loops that the scheduler matches against neighbouring operators.
:func:`candidate_splits` gives the ``N = N1 x N2`` combinations worth
enumerating (tiles must fill the PE lanes, so few survive); the lowering
pipeline checks the workload's split against it.  The Figure 7 "2x
fewer orientation switches" claim is a testable property of
:func:`repro.sched.tiling.count_orientation_switches`.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.ir.loops import power_of_two_splits


def candidate_splits(
    n: int, lanes_per_pe: int = 256, max_aspect: int = 4
) -> List[Tuple[int, int]]:
    """Four-step splits worth searching.

    Section V-D: "N1 and N2 should not be too small; otherwise the
    decomposed small NTTs cannot fully utilize the multiple lanes in the
    PE" — so both tiles must be at least the lane count, and we bound the
    aspect ratio to keep the candidate set small.
    """
    out = []
    for n1, n2 in power_of_two_splits(n, min_tile=lanes_per_pe):
        if n2 < lanes_per_pe:
            continue
        if max(n1, n2) // min(n1, n2) <= max_aspect:
            out.append((n1, n2))
    return out

