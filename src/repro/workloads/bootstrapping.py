"""The bootstrapping workload (sparse-packed method [14], [25]).

Structure mirrors ``repro.fhe.bootstrap``:

* **CoeffToSlot** — three level-collapsed BSGS PtMatVecMult stages (the
  standard radix decomposition of the DFT matrix), each dominated by
  HRot and therefore by evk traffic;
* **EvalMod** — a Chebyshev/double-angle polynomial evaluation: a chain
  of HMult + CMult + rescale steps;
* **SlotToCoeff** — three more BSGS stages.

Repeated structures are emitted once as segments with repeat counts
(pre-partitioning + redundant-subgraph merging, Section V-D).  The
segments are emitted at the primitive level (:func:`emit_bootstrapping`)
and :func:`build_bootstrapping` returns them lowered through
:mod:`repro.passes`.
"""

from __future__ import annotations

from typing import Optional

from repro.fhe.params import CKKSParams
from repro.ir.builders import GraphBuilder
from repro.ir.operators import Operator, OpKind
from repro.workloads.base import (
    Workload,
    WorkloadOptions,
    WorkloadSegment,
)

#: Radix decomposition of the homomorphic DFT: 3 stages per transform.
C2S_STAGES = 3
S2C_STAGES = 3
#: BSGS split per stage (stage matrix has ~n1*n2 nonzero diagonals).
STAGE_N1 = 8
STAGE_N2 = 4
#: EvalMod: degree-31 polynomial via BSGS evaluation + double angles.
EVALMOD_MULT_STEPS = 12


def _mod_raise_segment(
    params: CKKSParams, options: WorkloadOptions
) -> WorkloadSegment:
    """ModRaise: re-extend the level-0 limbs to the full basis.

    One iNTT of the single remaining limb, a 1 -> L+1 BConv, and the
    forward NTT over the new basis.
    """
    b = GraphBuilder(
        params, ntt_split=options.ntt_split, lowering="primitive",
    )
    limbs = params.max_level + 1
    src = b.input_ciphertext("boot.in", 0)
    for poly_t, side in ((src.b, "b"), (src.a, "a")):
        coeff = b.ntt(poly_t, 1, inverse=True, tag=f"modraise.{side}.intt")
        spread = b.poly(f"modraise.{side}.spread", limbs)
        b.graph.add_operator(
            Operator(
                name=b._name(f"modraise.{side}.bconv"),
                kind=OpKind.BCONV,
                limbs=1,
                out_limbs=limbs,
                n=params.n,
                inputs=[coeff, b.bconv_matrix(1, limbs, "modraise")],
                outputs=[spread],
                tag="modraise",
            )
        )
        b.ntt(spread, limbs, inverse=False, tag=f"modraise.{side}.ntt")
    return WorkloadSegment("mod_raise", b.graph, repeat=1)


def _transform_segment(
    params: CKKSParams,
    options: WorkloadOptions,
    level: int,
    name: str,
) -> WorkloadSegment:
    """One CoeffToSlot/SlotToCoeff stage: a BSGS matmul at ``level``."""
    b = GraphBuilder(
        params, ntt_split=options.ntt_split, lowering="primitive",
    )
    ct = b.input_ciphertext(f"{name}.in", level)
    b.bsgs_matvec(
        ct,
        STAGE_N1,
        STAGE_N2,
        strategy=options.rotation_strategy,
        r_hyb=options.r_hyb,
        tag=name,
    )
    return WorkloadSegment(name, b.graph, repeat=1)


def _evalmod_step_segment(
    params: CKKSParams, options: WorkloadOptions, level: int
) -> WorkloadSegment:
    """One EvalMod step: HMult + CMult + rescale at a mid level."""
    b = GraphBuilder(
        params, ntt_split=options.ntt_split, lowering="primitive",
    )
    x = b.input_ciphertext("em.x", level)
    y = b.input_ciphertext("em.y", level)
    prod = b.hmult(x, y, tag="em.hmult")
    scaled = b.pmult(prod, tag="em.cmult")
    b.rescale(scaled, tag="em.rescale")
    return WorkloadSegment("evalmod_step", b.graph, repeat=EVALMOD_MULT_STEPS)


_BUILD_CACHE: dict = {}


def emit_bootstrapping(
    params: CKKSParams, options: Optional[WorkloadOptions] = None
) -> Workload:
    """Emit the bootstrapping workload at the primitive level.

    Emissions are memoized per (params, options): the graphs are
    immutable once built, and HELR/ResNet reuse the bootstrap segments
    (with their own repeat counts), so the lowering memo lowers each
    segment once — the cross-workload face of the paper's
    redundant-subgraph merging.
    """
    options = options or WorkloadOptions()
    cache_key = (params, options)
    cached = _BUILD_CACHE.get(cache_key)
    if cached is not None:
        return cached
    top = params.max_level
    boot = params.boot_levels or max(top - 3, 1)
    segments = [_mod_raise_segment(params, options)]
    # CoeffToSlot: three distinct stages near the top of the budget, each
    # at its own level with its own rotation keys (the stages use
    # different DFT radices, so their evks do not overlap).
    for stage in range(C2S_STAGES):
        segments.append(
            _transform_segment(
                params, options, max(top - stage, 1), f"coeff_to_slot{stage}"
            )
        )
    # EvalMod: a chain of multiply steps at descending mid levels; steps
    # at the same structural level are merged (two per level keeps the
    # relin-key diversity realistic without one graph per step).
    em_top = min(max(top - C2S_STAGES, EVALMOD_MULT_STEPS // 2 + 2), top)
    for half in range(EVALMOD_MULT_STEPS // 2):
        level = min(max(em_top - 2 * half, 2), top)
        seg = _evalmod_step_segment(params, options, level)
        seg.name = f"evalmod_step{half}"
        seg.repeat = 2
        segments.append(seg)
    # SlotToCoeff: three distinct stages at the bottom of the budget.
    for stage in range(S2C_STAGES):
        level = min(max(top - boot + S2C_STAGES - stage, S2C_STAGES), top)
        segments.append(
            _transform_segment(params, options, level, f"slot_to_coeff{stage}")
        )
    workload = Workload(
        name="bootstrapping",
        params=params,
        segments=segments,
        description=(
            "Sparse-packed CKKS bootstrapping: ModRaise, 3-stage "
            "CoeffToSlot, EvalMod (degree-31 sine approximation), "
            "3-stage SlotToCoeff."
        ),
    )
    _BUILD_CACHE[cache_key] = workload
    return workload


def build_bootstrapping(
    params: CKKSParams, options: Optional[WorkloadOptions] = None
) -> Workload:
    """Build the bootstrapping workload for a parameter set (lowered)."""
    # Imported at call time: repro.passes imports this package.
    from repro.passes import lowering

    return lowering.lower_workload(
        "bootstrapping", params, options or WorkloadOptions()
    )
