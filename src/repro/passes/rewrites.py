"""The three lowering rewrites (catalogued in :data:`repro.passes.pipeline.PASSES`).

Each rewrite is an *expansion walk*: it visits the input graph's
operators in insertion order and copies them into a fresh graph,
expanding the operators it owns in place through a
:class:`~repro.ir.builders.GraphBuilder` emitter bound to the output
graph and the run's shared :class:`~repro.ir.builders.ConstantPool`.
The emitter places exactly the sub-operators a ``lowering="full"``
:class:`~repro.ir.builders.GraphBuilder` emits at the same program
points, so a lowered graph is structurally identical to the same
program emitted fully decomposed in one go
(:func:`repro.ir.graph.structural_mismatch` is the oracle the strategy
grid and the hypothesis property pin this with).

Each expansion numbers its names from the index the expanded
operator's first output carries — the indices the primitive emission
skipped for it — so lowered graphs carry the names of a one-pass full
emission too.

Operators a pass does not own are carried over: as the *same object*
when none of their inputs was substituted by an expansion, else
re-created with substituted inputs but their original output tensors
(SSA is per-graph, so sharing operators and tensors across the level
snapshots is legal and keeps the walk cheap).
"""

from __future__ import annotations

from typing import Dict, Tuple, cast

from repro.ir.builders import CiphertextTensors, GraphBuilder, name_index
from repro.ir.graph import OperatorGraph
from repro.ir.operators import Operator, OpKind
from repro.ir.tensors import DataTensor
from repro.passes.context import LoweringContext
from repro.resilience.errors import InvariantViolation
from repro.sched.ntt_decomp import candidate_splits

__all__ = ["decompose_ntt", "lower_keyswitch", "lower_rotations"]

#: Substitution map: input-graph tensor uid -> replacement tensor in
#: the output graph (only tensors an expansion re-produced appear).
Substitution = Dict[int, DataTensor]


def _carry(
    out: OperatorGraph, op: Operator, sub: Substitution
) -> None:
    """Copy one unowned operator into the output graph.

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


def _sub(sub: Substitution, t: DataTensor) -> DataTensor:
    return sub.get(t.uid, t)


def _has_kind(graph: OperatorGraph, *kinds: OpKind) -> bool:
    return any(op.kind in kinds for op in graph.operators)


# ---------------------------------------------------------------------------
# Pass 1: coarse baby-rotation batches -> full strategy expansions
# ---------------------------------------------------------------------------

def lower_rotations(
    graph: OperatorGraph, ctx: LoweringContext
) -> OperatorGraph:
    """Replay :meth:`GraphBuilder.baby_rotations` for every batch.

    The batch's structural ``attrs`` carry the strategy parameters and
    its evk inputs seed the pool (in :func:`~repro.ir.builders.
    rot_batch_amounts` order), so the expansion references the *same*
    evk tensors the primitive build already shared with other
    primitives — e.g. a BSGS giant step rotating by the hybrid coarse
    amount.  Emitted in ``"coarse-ks"`` mode: the expansion's own key
    switches stay coarse and its NTTs monolithic for the next passes.
    """
    if not _has_kind(graph, OpKind.ROT_BATCH):
        return graph
    out = OperatorGraph(graph.name)
    em = GraphBuilder(
        ctx.params, ntt_split=ctx.options.ntt_split, lowering="coarse-ks",
        graph=out, pool=ctx.pool,
    )
    sub: Substitution = {}
    for op in graph.operators:
        if op.kind is not OpKind.ROT_BATCH:
            _carry(out, op, sub)
            continue
        spec = dict(op.attrs)
        amounts = cast(Tuple[int, ...], spec["amounts"])
        n1 = cast(int, spec["n1"])
        r_hyb = cast(int, spec["r_hyb"])
        strategy = cast(str, spec["strategy"])
        level = op.limbs - 1
        for amount, evk in zip(amounts, op.inputs[2:]):
            ctx.pool.seed_evk("rot", level, amount, evk)
        ct = CiphertextTensors(
            _sub(sub, op.inputs[0]), _sub(sub, op.inputs[1]), level
        )
        em.name_at(name_index(op.outputs[0].name))
        rots = em.baby_rotations(ct, n1, strategy, r_hyb=r_hyb, tag=op.tag)
        if len(rots) != n1:
            raise InvariantViolation(
                "repro.passes.rewrites.lower_rotations",
                f"batch {op.name} expanded to {len(rots)} rotations, "
                f"expected {n1}",
            )
        for i in range(1, n1):
            sub[op.outputs[2 * (i - 1)].uid] = rots[i].b
            sub[op.outputs[2 * (i - 1) + 1].uid] = rots[i].a
    return out


# ---------------------------------------------------------------------------
# Pass 2: coarse key switches -> Decomp/ModUp/inner-product/ModDown
# ---------------------------------------------------------------------------

def lower_keyswitch(
    graph: OperatorGraph, ctx: LoweringContext
) -> OperatorGraph:
    """Replay :meth:`GraphBuilder.expand_key_switch` for every coarse node.

    The emitter runs in ``"coarse-ks"`` mode: the chain's (i)NTTs come
    out monolithic and the decompose-ntt pass splits them later, at the
    program points a full-mode builder emits them.  BConv
    matrices and twiddles resolve through the shared pool, so key
    switches share them exactly as in a one-pass full-mode build.
    """
    if not _has_kind(graph, OpKind.KEY_SWITCH):
        return graph
    out = OperatorGraph(graph.name)
    em = GraphBuilder(
        ctx.params, ntt_split=ctx.options.ntt_split, lowering="coarse-ks",
        graph=out, pool=ctx.pool,
    )
    sub: Substitution = {}
    for op in graph.operators:
        if op.kind is not OpKind.KEY_SWITCH:
            _carry(out, op, sub)
            continue
        d = _sub(sub, op.inputs[0])
        evk = _sub(sub, op.inputs[1])
        em.name_at(name_index(op.outputs[0].name))
        ks_b, ks_a = em.expand_key_switch(d, op.limbs - 1, evk, op.tag)
        sub[op.outputs[0].uid] = ks_b
        sub[op.outputs[1].uid] = ks_a
    return out


# ---------------------------------------------------------------------------
# Pass 3: monolithic (i)NTTs -> four-step col/transpose/row phases
# ---------------------------------------------------------------------------

def decompose_ntt(
    graph: OperatorGraph, ctx: LoweringContext
) -> OperatorGraph:
    """Replay :meth:`GraphBuilder._four_step` for every monolithic NTT.

    Identity when ``ctx.options.ntt_split`` is ``None`` (monolithic
    NTTs are legal at the decomposed level then).  The monolithic
    operator's whole-N twiddle input is dropped; the phase twiddles
    (N, N1, N2) resolve through the pool, which
    :meth:`~repro.passes.context.LoweringContext.seed_constants` seeded
    with the primitive build's tensors.  Emits a P002 warning when the
    split is off the Section V-D candidate set for the default lane
    width.
    """
    split = ctx.options.ntt_split
    if split is None or not _has_kind(graph, OpKind.NTT, OpKind.INTT):
        return graph
    if split not in candidate_splits(ctx.params.n):
        ctx.diagnostics.emit(
            "P002",
            f"decompose-ntt on {graph.name}",
            f"split {split} is not in candidate_splits(N={ctx.params.n}) "
            "for the default lane width",
        )
    out = OperatorGraph(graph.name)
    em = GraphBuilder(
        ctx.params, ntt_split=split, lowering="full",
        graph=out, pool=ctx.pool,
    )
    sub: Substitution = {}
    for op in graph.operators:
        if op.kind not in (OpKind.NTT, OpKind.INTT):
            _carry(out, op, sub)
            continue
        src = _sub(sub, op.inputs[0])
        em.name_at(name_index(op.outputs[0].name))
        res = em.ntt(
            src, op.limbs, inverse=op.kind is OpKind.INTT, tag=op.tag
        )
        sub[op.outputs[0].uid] = res
    return out
