"""Canonical content-addressed fingerprints for DSE artifacts.

A fingerprint is the sha256 of a canonical JSON rendering (sorted keys,
no whitespace) of everything that determines an artifact's value — and
*nothing* that does not.  In particular no process-dependent state may
leak in: operator and tensor uids come from a global counter and differ
between processes, so graph identity uses the structural
``subgraph_signature`` over the deterministic topological order plus a
uid-free description of input/constant sharing.

Every payload carries :data:`FORMAT_VERSION` as a salt, so a format
change invalidates the whole store at once instead of mixing schemas.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Any, Dict, Optional, Tuple

from repro.fhe.params import CKKSParams
from repro.hw.config import HardwareConfig
from repro.ir.graph import OperatorGraph
from repro.sched.scheduler import SchedulerConfig

__all__ = [
    "FORMAT_VERSION",
    "canonical_json",
    "digest",
    "config_payload",
    "graph_fingerprint",
    "hw_payload",
    "params_payload",
    "result_fingerprint",
    "schedule_fingerprint",
]

#: Salt baked into every fingerprint and on-disk envelope.  Bump on any
#: change to payload composition or serialized artifact schema: old
#: entries then read as stale and degrade to misses (never mis-hits).
FORMAT_VERSION = 1

#: Memoization slot stashed on graph objects (builds are memoized and
#: graphs immutable once built, so the structural hash is stable).
_GRAPH_FP_ATTR = "_dse_fingerprint"


def canonical_json(payload: Any) -> str:
    """Render ``payload`` as canonical JSON (sorted keys, compact)."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=_coerce
    )


def _coerce(obj: Any) -> Any:
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    from repro.resilience.errors import InvariantViolation

    raise InvariantViolation(
        "repro.dse.fingerprint.canonical_json",
        f"not canonically serializable: {type(obj).__name__}",
    )


def digest(payload: Any) -> str:
    """sha256 hex digest of the canonical JSON rendering."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def hw_payload(hw: HardwareConfig) -> Dict[str, Any]:
    """Every cost-relevant hardware field (the full frozen dataclass)."""
    return asdict(hw)


def params_payload(params: CKKSParams) -> Dict[str, Any]:
    """Every field of the CKKS parameter set."""
    return asdict(params)


def config_payload(config: SchedulerConfig) -> Dict[str, Any]:
    """Every scheduler knob, including search budgets and the verify
    gate — two searches under different budgets may legitimately land on
    different (degraded vs optimal) schedules."""
    return asdict(config)


def graph_fingerprint(graph: OperatorGraph) -> str:
    """Structural hash of an operator graph, uid-free and memoized.

    Combines the window :meth:`~repro.ir.graph.OperatorGraph.
    subgraph_signature` over the full topological order (operator
    structure + internal producer/consumer edges by local index) with a
    description of *input sharing*: which producerless tensors
    (constants, external inputs) feed which operators.  Sharing matters
    to cost — a constant consumed by two operators is fetched once —
    but is invisible to the edge signature alone.
    """
    cached = getattr(graph, _GRAPH_FP_ATTR, None)
    if cached is not None:
        return cached
    order = graph.operators_topological()
    index = {op.uid: i for i, op in enumerate(order)}
    shared = []
    for tensor in graph.tensors:
        if graph.producer_of(tensor) is not None:
            continue
        consumers = sorted(index[op.uid] for op in graph.consumers_of(tensor))
        shared.append([tensor.kind.value, tensor.bytes, consumers])
    shared.sort()
    fp = digest({
        "signature": graph.subgraph_signature(tuple(order)),
        "shared_inputs": shared,
    })
    setattr(graph, _GRAPH_FP_ATTR, fp)
    return fp


def schedule_fingerprint(
    graph: OperatorGraph,
    hw: HardwareConfig,
    dataflow: str,
    config: SchedulerConfig,
    n_split: Optional[Tuple[int, int]],
) -> str:
    """Key for one segment schedule: everything the DP search reads."""
    return digest({
        "kind": "schedule",
        "version": FORMAT_VERSION,
        "graph": graph_fingerprint(graph),
        "hw": hw_payload(hw),
        "dataflow": dataflow,
        "scheduler": config_payload(config),
        "n_split": list(n_split) if n_split else None,
    })


def result_fingerprint(
    design_payload: Dict[str, Any],
    workload: str,
    params: CKKSParams,
    config: SchedulerConfig,
) -> str:
    """Key for one full (design, workload, params) evaluation.

    ``design_payload`` describes the :class:`~repro.experiments.common.
    DesignPoint` (dataflow knobs + hardware payload); the graph hash is
    deliberately absent — graphs are *derived* from (workload, params,
    design) by deterministic builders, and hashing at this level lets a
    warm run skip building them entirely.
    """
    return digest({
        "kind": "result",
        "version": FORMAT_VERSION,
        "workload": workload,
        "params": params_payload(params),
        "design": design_payload,
        "scheduler": config_payload(config),
    })
