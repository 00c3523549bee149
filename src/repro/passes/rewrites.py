"""The lowering walk: primitive graph -> decomposed graph in one pass.

:func:`lower_primitives` visits the input graph's operators once, in
insertion order, and copies them into a fresh graph.  Each coarse
operator (``ROT_BATCH``, ``KEY_SWITCH``) and, when a four-step split is
configured, each monolithic (i)NTT is expanded in place through one
``lowering="full"`` :class:`~repro.ir.builders.GraphBuilder` emitter
bound to the output graph and a :class:`~repro.ir.builders.ConstantPool`
seeded with the source's twiddles.  The emitter places exactly the
sub-operators a ``lowering="full"`` builder emits at the same program
points, so a lowered graph is structurally identical to the same
program emitted fully decomposed in one go
(:func:`repro.ir.graph.structural_mismatch` is the oracle the strategy
grid and the hypothesis property pin this with).

Each expansion numbers its names from the index the expanded
operator's first output carries — the indices the primitive emission
skipped for it — so lowered graphs carry the names of a one-pass full
emission too.

Operators the walk does not expand are carried over: as the *same
object* when none of their inputs was substituted by an expansion, else
re-created with substituted inputs but their original output tensors
(SSA is per-graph, so sharing operators and tensors with the source
graph is legal and keeps the walk cheap).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, cast

from repro.fhe.params import CKKSParams
from repro.ir.builders import (
    CiphertextTensors,
    ConstantPool,
    GraphBuilder,
    name_index,
)
from repro.ir.graph import OperatorGraph
from repro.ir.operators import Operator, OpKind
from repro.ir.tensors import DataTensor, TensorKind
from repro.resilience.errors import InvariantViolation

__all__ = ["lower_primitives"]


def _carry(
    out: OperatorGraph, op: Operator, sub: Dict[int, DataTensor]
) -> None:
    """Copy one operator the walk does not expand into the output graph.

    Shares the operator object when possible; otherwise re-creates it
    with substituted inputs and the *original* output tensors, so
    downstream operators need no substitution of their own.
    """
    if not any(t.uid in sub for t in op.inputs):
        out.add_operator(op)
        return
    out.add_operator(
        Operator(
            name=op.name,
            kind=op.kind,
            limbs=op.limbs,
            n=op.n,
            digits=op.digits,
            out_limbs=op.out_limbs,
            n_split=op.n_split,
            inputs=[sub.get(t.uid, t) for t in op.inputs],
            outputs=list(op.outputs),
            tag=op.tag,
            attrs=op.attrs,
        )
    )


def lower_primitives(
    graph: OperatorGraph,
    params: CKKSParams,
    ntt_split: Optional[Tuple[int, int]],
) -> OperatorGraph:
    """Expand every coarse operator (and, with a split, every NTT).

    Returns ``graph`` itself when it holds nothing to expand.  A
    ``ROT_BATCH`` replays :meth:`GraphBuilder.baby_rotations` from its
    structural ``attrs``; its evk inputs seed the pool (in
    :func:`~repro.ir.builders.rot_batch_amounts` order), so the
    expansion references the *same* evk tensors the primitive build
    already shared with other primitives — e.g. a BSGS giant step
    rotating by the hybrid coarse amount.  A ``KEY_SWITCH`` replays
    :meth:`GraphBuilder.key_switch` on its own evk input.  A monolithic
    (i)NTT replays :meth:`GraphBuilder.ntt`; its whole-N twiddle input
    is dropped and the phase twiddles resolve through the pool.
    """

    def owned(op: Operator) -> bool:
        return op.kind.is_coarse or (
            ntt_split is not None and op.kind.is_monolithic_ntt
        )

    if not any(owned(op) for op in graph.operators):
        return graph
    pool = ConstantPool(params)
    for tensor in graph.constant_tensors():
        if tensor.kind is TensorKind.TWIDDLE:
            pool.seed_twiddles(tensor)
    out = OperatorGraph(graph.name)
    em = GraphBuilder(
        params, ntt_split=ntt_split, lowering="full", graph=out, pool=pool
    )
    sub: Dict[int, DataTensor] = {}
    for op in graph.operators:
        if not owned(op):
            _carry(out, op, sub)
            continue
        inputs = [sub.get(t.uid, t) for t in op.inputs]
        em.name_at(name_index(op.outputs[0].name))
        if op.kind is OpKind.ROT_BATCH:
            spec = dict(op.attrs)
            n1 = cast(int, spec["n1"])
            level = op.limbs - 1
            amounts = cast(Tuple[int, ...], spec["amounts"])
            for amount, evk in zip(amounts, op.inputs[2:]):
                pool.seed_evk("rot", level, amount, evk)
            rots = em.baby_rotations(
                CiphertextTensors(inputs[0], inputs[1], level), n1,
                cast(str, spec["strategy"]), r_hyb=cast(int, spec["r_hyb"]),
                tag=op.tag,
            )
            if len(rots) != n1:
                raise InvariantViolation(
                    "repro.passes.rewrites.lower_primitives",
                    f"batch {op.name} expanded to {len(rots)} rotations, "
                    f"expected {n1}",
                )
            results = [t for rot in rots[1:] for t in rot.polys]
        elif op.kind is OpKind.KEY_SWITCH:
            results = list(em.key_switch(
                inputs[0], op.limbs - 1, inputs[1], op.tag
            ))
        else:
            results = [em.ntt(
                inputs[0], op.limbs, inverse=op.kind is OpKind.INTT,
                tag=op.tag,
            )]
        for old, new in zip(op.outputs, results):
            sub[old.uid] = new
    return out
