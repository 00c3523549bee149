"""The operator DAG.

An :class:`OperatorGraph` holds :class:`~repro.ir.operators.Operator`
nodes connected through :class:`~repro.ir.tensors.DataTensor` edges.  A
tensor has at most one producer (graph inputs and constants have none)
and any number of consumers.  The scheduler consumes graphs through the
topological order and the window queries here (signature, internal and
boundary tensors).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.ir.operators import Operator
from repro.ir.tensors import DataTensor
from repro.resilience.errors import GraphInvariantError


class OperatorGraph:
    """A DAG of FHE operators with explicit tensor edges."""

    def __init__(self, name: str = "graph"):
        self.name = name
        # The edge index, per operator uid in insertion order:
        # neighbour uid -> the tensor on that edge, neighbours in
        # first-wiring order (re-wiring an edge keeps its position and
        # stores the later tensor).  The topological order depends on
        # both orders.
        self._succ: Dict[int, Dict[int, DataTensor]] = {}
        self._pred: Dict[int, Dict[int, DataTensor]] = {}
        self._producer: Dict[int, Operator] = {}       # tensor uid -> op
        self._consumers: Dict[int, List[Operator]] = {}
        self._tensors: Dict[int, DataTensor] = {}
        self._ops: Dict[int, Operator] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_operator(self, op: Operator) -> Operator:
        """Insert an operator; wires edges via its input/output tensors.

        Structural invariants are enforced at insertion time: a tensor
        keeps a single producer (SSA) and an insertion that would close
        a dependency cycle is rejected — both with a
        :class:`~repro.resilience.errors.GraphInvariantError` naming the
        offending operators, leaving the graph unchanged.

        Raises:
            GraphInvariantError: duplicate operator, second producer for
                a tensor, or a cycle-closing insertion.
        """
        if op.uid in self._ops:
            raise GraphInvariantError(
                f"operator {op.name} already in graph",
                graph=self.name, operators=(op.name,),
            )
        for t in op.outputs:
            existing = self._producer.get(t.uid)
            if existing is not None:
                raise GraphInvariantError(
                    f"tensor {t.name} already has a producer",
                    graph=self.name, operators=(existing.name, op.name),
                )
        uid = op.uid
        self._ops[uid] = op
        self._succ[uid] = {}
        self._pred[uid] = {}
        for t in op.outputs:
            self._producer[t.uid] = op
            self._tensors[t.uid] = t
            # Late consumers may already be registered.
            for consumer in self._consumers.get(t.uid, []):
                self._wire(uid, consumer.uid, t)
        for t in op.inputs:
            self._tensors[t.uid] = t
            self._consumers.setdefault(t.uid, []).append(op)
            producer = self._producer.get(t.uid)
            if producer is not None:
                self._wire(producer.uid, uid, t)
        # Only an operator that gains *outgoing* edges at insertion time
        # (some registered consumer was waiting for one of its outputs,
        # or it consumes its own output) can close a cycle; builders
        # append producers before consumers, so the common path stays
        # O(degree).
        if self._succ[uid] and self._pred[uid]:
            cycle = self._cycle_through(op)
            if cycle:
                self._rollback_insertion(op)
                raise GraphInvariantError(
                    f"inserting operator {op.name} closes a dependency "
                    "cycle",
                    graph=self.name,
                    operators=[member.name for member in cycle],
                )
        return op

    def _wire(self, src: int, dst: int, tensor: DataTensor) -> None:
        """Record the edge ``src -> dst`` carrying ``tensor``."""
        self._succ[src][dst] = tensor
        self._pred[dst][src] = tensor

    def _cycle_through(self, op: Operator) -> List[Operator]:
        """The path ``op -> ... -> op`` if one exists, else empty."""
        path: List[int] = [op.uid]
        stack = [iter(self._succ.get(op.uid, ()))]
        visited: Set[int] = set()
        while stack:
            advanced = False
            for succ in stack[-1]:
                if succ == op.uid:
                    return [self._ops[uid] for uid in path] + [op]
                if succ not in visited:
                    visited.add(succ)
                    path.append(succ)
                    stack.append(iter(self._succ.get(succ, ())))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                path.pop()
        return []

    def _rollback_insertion(self, op: Operator) -> None:
        """Undo a rejected :meth:`add_operator` (graph left as before)."""
        uid = op.uid
        # Both directions, a self-loop included.
        for succ in self._succ.pop(uid):
            if succ != uid:
                del self._pred[succ][uid]
        for pred in self._pred.pop(uid):
            if pred != uid:
                del self._succ[pred][uid]
        del self._ops[uid]
        for t in op.outputs:
            self._producer.pop(t.uid, None)
        for t in op.inputs:
            consumers = self._consumers.get(t.uid, [])
            if op in consumers:
                consumers.remove(op)
            if not consumers:
                self._consumers.pop(t.uid, None)
        for t in list(op.outputs) + list(op.inputs):
            if t.uid not in self._producer and t.uid not in self._consumers:
                self._tensors.pop(t.uid, None)

    def clone(self, name: Optional[str] = None) -> "OperatorGraph":
        """Deterministic deep copy: fresh operators, fresh tensors.

        Every operator and tensor is re-created (new uids, same names,
        kinds, shapes, and tags) in the original *insertion* order, and
        tensor sharing is preserved exactly — a constant consumed by two
        operators is one tensor in the clone too.  The clone is fully
        independent: rewrites may extend or rewire it without touching
        the original.  ``clone()`` and the original are
        :func:`structural_mismatch`-equal by construction.
        """
        out = OperatorGraph(self.name if name is None else name)
        mapped: Dict[int, DataTensor] = {}

        def _map(t: DataTensor) -> DataTensor:
            copy = mapped.get(t.uid)
            if copy is None:
                copy = DataTensor(t.name, t.kind, t.shape, t.word_bytes)
                mapped[t.uid] = copy
            return copy

        for op in self._ops.values():
            out.add_operator(
                Operator(
                    name=op.name,
                    kind=op.kind,
                    limbs=op.limbs,
                    n=op.n,
                    digits=op.digits,
                    out_limbs=op.out_limbs,
                    n_split=op.n_split,
                    inputs=[_map(t) for t in op.inputs],
                    outputs=[_map(t) for t in op.outputs],
                    tag=op.tag,
                    attrs=op.attrs,
                )
            )
        return out

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def num_operators(self) -> int:
        return len(self._ops)

    @property
    def operators(self) -> List[Operator]:
        return list(self._ops.values())

    @property
    def tensors(self) -> List[DataTensor]:
        return list(self._tensors.values())

    def producer_of(self, tensor: DataTensor) -> Optional[Operator]:
        """The operator producing a tensor (None for inputs/constants)."""
        return self._producer.get(tensor.uid)

    def consumers_of(self, tensor: DataTensor) -> List[Operator]:
        """All operators consuming a tensor."""
        return list(self._consumers.get(tensor.uid, []))

    def predecessors(self, op: Operator) -> List[Operator]:
        """Operators feeding ``op``."""
        return [self._ops[uid] for uid in self._pred[op.uid]]

    def successors(self, op: Operator) -> List[Operator]:
        """Operators fed by ``op``."""
        return [self._ops[uid] for uid in self._succ[op.uid]]

    def operators_topological(self) -> List[Operator]:
        """Depth-first topological order with constant affinity.

        Two rules shape the order, both in service of the scheduler's
        contiguous-window grouping:

        * depth-first (LIFO) — following a producer's consumers before
          starting sibling chains keeps tensor liveness low, so chains
          are grouped contiguously instead of interleaving breadth-first;
        * constant affinity — among ready operators, one sharing a
          constant input (e.g. the same evk) with the previously emitted
          operator goes first, placing same-constant consumers in the
          same window so the fetch is shared (fine-grained spatial
          sharing, Section V-A).

        The traversal is pure in the graph's structure, so the order is
        computed once and cached until the operator count changes (every
        split candidate of a DP search, every replay, and several
        analysis passes re-request it); callers get a fresh list.
        """
        cached = self.__dict__.get("_topo_cache")
        if cached is not None and cached[0] == len(self._ops):
            return list(cached[1])
        order = self._operators_topological_uncached()
        self._topo_cache = (len(self._ops), tuple(order))
        return order

    def _operators_topological_uncached(self) -> List[Operator]:
        ops = self._ops
        indegree = {uid: len(preds) for uid, preds in self._pred.items()}
        ready = [op for uid, op in ops.items() if indegree[uid] == 0]
        order: List[Operator] = []
        last_constants: Set[int] = set()
        while ready:
            pick_index = len(ready) - 1
            if last_constants:
                for i in range(len(ready) - 1, -1, -1):
                    consts = {
                        t.uid for t in ready[i].inputs if t.is_constant
                    }
                    if consts & last_constants:
                        pick_index = i
                        break
            op = ready.pop(pick_index)
            order.append(op)
            last_constants = {t.uid for t in op.inputs if t.is_constant}
            for succ in self._succ[op.uid]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(ops[succ])
        if len(order) != len(ops):
            stuck = sorted(
                ops[uid].name for uid, n in indegree.items() if n > 0
            )
            raise GraphInvariantError(
                "topological traversal stalled: graph has a cycle",
                graph=self.name, operators=stuck[:8],
            )
        return order

    def edge_tensor(self, producer: Operator, consumer: Operator) -> DataTensor:
        """The tensor carried on a producer->consumer edge."""
        return self._succ[producer.uid][consumer.uid]

    def graph_inputs(self) -> List[DataTensor]:
        """Tensors with no producer that some operator consumes."""
        return [
            self._tensors[uid]
            for uid in self._consumers
            if uid not in self._producer
        ]

    def constant_tensors(self) -> List[DataTensor]:
        """All auxiliary constant tensors referenced by the graph."""
        return [t for t in self._tensors.values() if t.is_constant]

    # ------------------------------------------------------------------
    # Scheduling support
    # ------------------------------------------------------------------

    def subgraph_signature(self, ops: Sequence[Operator]) -> Tuple:
        """Structural signature of an operator window (for memoization).

        Two windows with identical signatures have the same operator
        structure and internal connectivity, so one search result serves
        both — the paper's redundant-subgraph merging.
        """
        index = {op.uid: i for i, op in enumerate(ops)}
        parts = []
        for i, op in enumerate(ops):
            edges = tuple(
                sorted(
                    index[succ]
                    for succ in self._succ[op.uid]
                    if succ in index
                )
            )
            parts.append((op.signature(), edges))
        return tuple(parts)

    def internal_tensors(
        self, ops: Sequence[Operator]
    ) -> List[DataTensor]:
        """Tensors produced and consumed entirely inside ``ops``."""
        uids = {op.uid for op in ops}
        out = []
        for t_uid, producer in self._producer.items():
            if producer.uid not in uids:
                continue
            consumers = self._consumers.get(t_uid, [])
            if consumers and all(c.uid in uids for c in consumers):
                out.append(self._tensors[t_uid])
        return out

    def __repr__(self) -> str:
        return (
            f"<OperatorGraph {self.name}: {self.num_operators} ops, "
            f"{len(self._tensors)} tensors>"
        )


# ---------------------------------------------------------------------------
# Structural equality (uid- and name-free)
# ---------------------------------------------------------------------------

def structural_mismatch(
    a: OperatorGraph, b: OperatorGraph
) -> Optional[str]:
    """First structural difference between two graphs, or ``None``.

    Two graphs are structurally equal when their insertion-order
    operator sequences match pairwise on :meth:`~repro.ir.operators.
    Operator.signature` and tag, their tensors agree on (kind, shape,
    word size) position by position, and the tensor *sharing pattern*
    is a bijection — the i-th operator's j-th input is the same tensor
    object in ``a`` exactly when it is in ``b``.  Names and uids are
    ignored; this is the relation the lowering pipeline's byte-identity
    guarantee rests on (equal structure implies an equal deterministic
    topological order, hence equal windows and schedules).
    """
    if a.num_operators != b.num_operators:
        return (
            f"operator count differs: {a.num_operators} vs "
            f"{b.num_operators}"
        )
    forward: Dict[int, int] = {}
    backward: Dict[int, int] = {}
    for i, (op_a, op_b) in enumerate(zip(a.operators, b.operators)):
        where = f"operator #{i} ({op_a.name} / {op_b.name})"
        if op_a.signature() != op_b.signature():
            return f"{where}: signatures differ"
        if op_a.tag != op_b.tag:
            return f"{where}: tags differ ({op_a.tag!r} vs {op_b.tag!r})"
        pairs = list(zip(op_a.inputs, op_b.inputs))
        pairs += list(zip(op_a.outputs, op_b.outputs))
        for t_a, t_b in pairs:
            if (t_a.kind, t_a.shape, t_a.word_bytes) != (
                t_b.kind, t_b.shape, t_b.word_bytes
            ):
                return (
                    f"{where}: tensor {t_a.name} vs {t_b.name} differ "
                    "in kind/shape"
                )
            seen = forward.get(t_a.uid)
            if seen is None:
                if t_b.uid in backward:
                    return (
                        f"{where}: tensor sharing diverges at "
                        f"{t_a.name} / {t_b.name}"
                    )
                forward[t_a.uid] = t_b.uid
                backward[t_b.uid] = t_a.uid
            elif seen != t_b.uid:
                return (
                    f"{where}: tensor sharing diverges at "
                    f"{t_a.name} / {t_b.name}"
                )
    return None


def graphs_structurally_equal(a: OperatorGraph, b: OperatorGraph) -> bool:
    """Whether two graphs are structurally identical (uid/name-free)."""
    return structural_mismatch(a, b) is None
