"""Exporters: span trees and simulator traces to text / JSON / Perfetto.

Two time domains live here and are exported separately:

* **spans** carry wall-clock ``perf_counter`` times — where scheduler
  search and simulator wall-time actually goes;
* **simulator events** (:class:`~repro.sim.trace.TraceEvent`) carry
  *simulated* cycles — where the modeled hardware time goes.

Both Perfetto renderings use the Chrome ``trace_json`` format
(``{"traceEvents": [...]}`` with ``ph``/``ts``/``dur`` complete
events), which https://ui.perfetto.dev opens directly.  Simulated
timelines get one lane ("thread") per scheduled group, so the per-group
OP/NoC/DRAM slices line up the way Figure 11's attribution story reads.
"""

from __future__ import annotations

import functools
import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Sequence

from repro.obs.tracer import Span
from repro.sim.trace import TraceEvent

if TYPE_CHECKING:  # import cycle stays lazy: fleet imports metrics only
    from repro.obs.fleet import FleetTracer, VSpan

__all__ = [
    "render_span_tree",
    "spans_to_json",
    "spans_to_perfetto",
    "events_to_perfetto",
    "fleet_to_perfetto",
    "render_json_stable",
    "write_json",
    "write_json_stable",
]


# ---------------------------------------------------------------------------
# Span exports
# ---------------------------------------------------------------------------

def render_span_tree(roots: Sequence[Span]) -> str:
    """Indented text rendering of finished span trees."""
    lines: List[str] = []

    def visit(sp: Span, depth: int) -> None:
        attrs = ""
        if sp.attrs:
            attrs = "  " + " ".join(
                f"{k}={v!r}" for k, v in sorted(sp.attrs.items())
            )
        lines.append(
            f"{'  ' * depth}{sp.name:<{max(1, 32 - 2 * depth)}s}"
            f"{sp.duration * 1e3:10.3f} ms{attrs}"
        )
        for child in sp.children:
            visit(child, depth + 1)

    for root in roots:
        visit(root, 0)
    return "\n".join(lines) if lines else "(no spans recorded)"


def spans_to_json(roots: Sequence[Span]) -> Dict[str, object]:
    """JSON-serializable span forest."""
    return {"version": 1, "spans": [sp.to_dict() for sp in roots]}


def _walk(roots: Sequence[Span]) -> Iterable[Span]:
    stack = list(roots)
    while stack:
        sp = stack.pop()
        yield sp
        stack.extend(sp.children)


def spans_to_perfetto(
    roots: Sequence[Span], process_name: str = "repro"
) -> Dict[str, object]:
    """Chrome/Perfetto ``trace_json`` for wall-clock span trees.

    Timestamps are re-based onto the earliest span start; one lane per
    recording thread.
    """
    spans = list(_walk(roots))
    origin = min((sp.start for sp in spans), default=0.0)
    trace_events: List[Dict[str, object]] = [{
        "ph": "M", "pid": 1, "tid": 0, "name": "process_name",
        "args": {"name": process_name},
    }]
    for sp in spans:
        trace_events.append({
            "ph": "X",
            "pid": 1,
            "tid": sp.thread_id % 2**31,
            "name": sp.name,
            "ts": (sp.start - origin) * 1e6,
            "dur": sp.duration * 1e6,
            "args": {k: repr(v) for k, v in sp.attrs.items()},
        })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


# ---------------------------------------------------------------------------
# Simulator-event exports
# ---------------------------------------------------------------------------

#: Microseconds of simulated time per cycle at the export's nominal
#: 1 GHz: Perfetto timestamps are integers in µs, so one cycle maps to
#: one "µs" tick — the *relative* timeline is what matters.
_US_PER_CYCLE = 1.0


def events_to_perfetto(
    events: Sequence[TraceEvent],
    process_name: str = "CROPHE simulation",
    pid: int = 1,
) -> Dict[str, object]:
    """Chrome/Perfetto ``trace_json`` for a simulated event stream.

    One lane per scheduled group; each OP / NoC / DRAM / SRAM /
    transpose event becomes a complete slice (``ph="X"``) whose ``ts``
    is its stamped ``start_cycle`` and ``dur`` its cycle count.  Events
    from traces predating the ``start_cycle`` stamp are laid out
    sequentially per group so old traces still open.
    """
    trace_events: List[Dict[str, object]] = [{
        "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
        "args": {"name": process_name},
    }]
    groups = sorted({e.group for e in events})
    for group in groups:
        trace_events.append({
            "ph": "M", "pid": pid, "tid": group + 1,
            "name": "thread_name",
            "args": {"name": f"group {group}"},
        })
    stamped = any(e.start_cycle for e in events)
    cursor: Dict[int, int] = {}
    for event in events:
        if stamped:
            ts = event.start_cycle
        else:
            ts = cursor.get(event.group, 0)
            cursor[event.group] = ts + max(event.cycles, 1)
        trace_events.append({
            "ph": "X",
            "pid": pid,
            "tid": event.group + 1,
            "name": f"{event.kind.value}:{event.name}",
            "cat": event.kind.value,
            "ts": int(ts * _US_PER_CYCLE),
            "dur": int(max(event.cycles, 1) * _US_PER_CYCLE),
            "args": {
                "bytes": event.bytes,
                "cycles": event.cycles,
                "hops": event.hops,
                "num_pes": len(event.pes),
            },
        })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


# ---------------------------------------------------------------------------
# Fleet (virtual-clock) exports
# ---------------------------------------------------------------------------

#: Microseconds of Perfetto time per virtual second.  Perfetto ``ts``
#: values are microseconds; the serving clock counts seconds.
_US_PER_VIRTUAL_SECOND = 1e6


def fleet_to_perfetto(
    tracer: "FleetTracer",
    process_name: str = "repro.serve fleet",
    pid: int = 1,
) -> Dict[str, object]:
    """Chrome/Perfetto ``trace_json`` for one serving run.

    Layout mirrors how the chaos story reads:

    * one named track ("thread") per accelerator node carrying the
      batch slices that occupied it (``ph="X"``, cancellations and
      crash truncations tagged in ``args``);
    * one *async* span tree per request (``ph="b"``/``"e"`` with the
      request index as ``id``) — root ``request`` span with queue /
      service / backoff / hedge child phases;
    * one *flow* per request (``ph="s"``/``"t"``/``"f"``) threading its
      service attempts across node tracks, so a retried or hedged
      request draws arrows from node to node.

    Timestamps are virtual-clock microseconds.  Everything is emitted
    in a deterministic order (nodes and request ids sorted, batches in
    dispatch order), so two same-seed runs export byte-identical
    traces — CI ``cmp``'s them.
    """
    nodes = sorted({b.track for b in tracer.batches if b.track})
    node_tid = {name: i + 1 for i, name in enumerate(nodes)}
    trace_events: List[Dict[str, object]] = [{
        "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
        "args": {"name": process_name},
    }]
    for name in nodes:
        trace_events.append({
            "ph": "M", "pid": pid, "tid": node_tid[name],
            "name": "thread_name", "args": {"name": f"node {name}"},
        })

    def us(t: float) -> int:
        return int(round(t * _US_PER_VIRTUAL_SECOND))

    def args_of(span: "VSpan") -> Dict[str, object]:
        return {k: span.attrs[k] for k in sorted(span.attrs)}

    for batch in tracer.batches:
        trace_events.append({
            "ph": "X",
            "pid": pid,
            "tid": node_tid.get(batch.track, 0),
            "name": batch.name,
            "cat": "batch",
            "ts": us(batch.start),
            "dur": max(us(batch.start + batch.duration) - us(batch.start), 1),
            "args": args_of(batch),
        })

    for index, rid in enumerate(sorted(tracer.requests)):
        root = tracer.requests[rid].root
        common = {"pid": pid, "tid": 0, "cat": "request", "id": index}
        trace_events.append(dict(
            common, ph="b", name="request", ts=us(root.start),
            args=args_of(root),
        ))
        service_marks: List[Tuple[int, str]] = []
        for child in root.children:
            end = child.end if child.end is not None else root.end
            trace_events.append(dict(
                common, ph="b", name=child.name, ts=us(child.start),
                args=args_of(child),
            ))
            trace_events.append(dict(
                common, ph="e", name=child.name,
                ts=us(end if end is not None else child.start),
            ))
            if child.kind in ("service", "hedge"):
                node = str(child.attrs.get("node", ""))
                if node in node_tid:
                    service_marks.append((us(child.start), node))
        root_end = root.end if root.end is not None else root.start
        trace_events.append(dict(
            common, ph="e", name="request", ts=us(root_end),
        ))
        flow = {"pid": pid, "cat": "flow", "id": index, "name": rid}
        for mark, (ts, node) in enumerate(service_marks):
            ph = "s" if mark == 0 else "t"
            trace_events.append(dict(
                flow, ph=ph, tid=node_tid[node], ts=ts,
            ))
        if service_marks:
            trace_events.append(dict(
                flow, ph="f", bp="e", tid=node_tid[service_marks[-1][1]],
                ts=us(root_end),
            ))
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


# ---------------------------------------------------------------------------
# Stable JSON
# ---------------------------------------------------------------------------

_INDENT = "  "
_CONTAINERS = (dict, list, tuple)


@functools.lru_cache(maxsize=None)
def _flat_encoder(depth: int) -> Callable[[Any], str]:
    """The C encoder json.dumps uses when it has no indent, sorting
    keys, with the newline and indent of a container opened at
    ``depth`` carried in its item separator.  No circular-reference
    markers: a flat container cannot hold a cycle."""
    spec = json.JSONEncoder(
        sort_keys=True, separators=(",\n" + _INDENT * (depth + 1), ": "),
    )
    c_encode = c_make_encoder(
        None, spec.default, encode_basestring_ascii, None,
        spec.key_separator, spec.item_separator, True, False, True,
    )

    def encode(obj: Any) -> str:
        return c_encode(obj, 0)[0]

    return encode


def _key_text(key: Any, encode: Callable[[Any], str]) -> str:
    """A dict key as json.dumps writes it."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    # The C encoder stringifies a non-str scalar key (1 -> "1") and
    # rejects any other key with json.dumps's own TypeError.
    return encode({key: None})[1:-len(": null}")]


def _render(obj: Any, depth: int, out: List[str]) -> None:
    """Append the pieces of ``obj`` opened at ``depth`` to ``out``."""
    encode = _flat_encoder(depth)
    if isinstance(obj, dict):
        opener, closer, values = "{", "}", obj.values()
    elif isinstance(obj, (list, tuple)):
        opener, closer, values = "[", "]", obj
    else:
        out.append(encode(obj))
        return
    if not obj:
        out.append(opener + closer)
        return
    inner = "\n" + _INDENT * (depth + 1)
    outer = "\n" + _INDENT * depth
    for value in values:
        if isinstance(value, _CONTAINERS):
            break
    else:  # all scalars: one C call; the separator carries the indent
        out.append(f"{opener}{inner}{encode(obj)[1:-1]}{outer}{closer}")
        return
    sep = opener + inner
    if opener == "{":
        for key, value in sorted(obj.items()):
            out.append(sep)
            out.append(_key_text(key, encode))
            out.append(": ")
            _render(value, depth + 1, out)
            sep = "," + inner
    else:
        for value in obj:
            out.append(sep)
            _render(value, depth + 1, out)
            sep = "," + inner
    out.append(outer + closer)


def render_json_stable(obj: Any) -> str:
    """Exactly ``json.dumps(obj, sort_keys=True, indent=2)``, faster.

    The indented encoder CPython ships is pure Python; this hands every
    all-scalar dict or list to the C encoder in one call, recurses in
    Python only over nested containers, and joins the pieces once.
    Byte-stable summaries, snapshots and postmortems render through it.
    """
    out: List[str] = []
    _render(obj, 0, out)
    return "".join(out)


def write_json(payload: Dict[str, object], path: str) -> None:
    """Write one JSON document (UTF-8, trailing newline)."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def write_json_stable(payload: Dict[str, object], path: str) -> None:
    """Write one JSON document with sorted keys (byte-diffable in CI)."""
    with open(path, "w") as handle:
        handle.write(render_json_stable(payload))
        handle.write("\n")
