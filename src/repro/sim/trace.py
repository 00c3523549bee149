"""Execution trace records.

The mapper's output drives the simulator through these records; they are
also serializable for offline inspection (the paper's "trace files").

Reading is hardened for traces of unknown provenance: malformed lines,
unknown event kinds, and missing/unexpected fields raise a typed
:class:`~repro.resilience.errors.TraceError` naming the file and line
number.  :func:`iter_trace` streams events one line at a time so a
multi-gigabyte trace never needs full materialization;
:func:`load_trace` keeps the historical list-returning contract.
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, List, Tuple

from repro.resilience.errors import TraceError


class EventKind(enum.Enum):
    OP_EXECUTE = "op"
    NOC_TRANSFER = "noc"
    DRAM_READ = "dram_rd"
    DRAM_WRITE = "dram_wr"
    SRAM_ACCESS = "sram"
    TRANSPOSE = "transpose"
    BARRIER = "barrier"


@dataclass
class TraceEvent:
    """One simulated event: what, where, and how much.

    ``start_cycle`` places the event on the simulated timeline (the
    engine stamps it when collecting a trace); older traces without the
    field load with 0 and exporters fall back to sequential placement.
    """

    kind: EventKind
    group: int
    name: str
    bytes: int = 0
    cycles: int = 0
    pes: Tuple[int, ...] = ()
    hops: int = 0
    start_cycle: int = 0

    def to_json(self) -> str:
        """One-line JSON rendering of the event."""
        d = asdict(self)
        d["kind"] = self.kind.value
        return json.dumps(d)


def dump_trace(events: Iterable[TraceEvent], path: str) -> None:
    """Write a trace as JSON lines."""
    with open(path, "w") as f:
        for e in events:
            f.write(e.to_json() + "\n")


#: Fields a serialized event may carry beyond the required three.
_OPTIONAL_FIELDS = ("bytes", "cycles", "hops", "start_cycle")
_KNOWN_FIELDS = frozenset(
    ("kind", "group", "name", "pes") + _OPTIONAL_FIELDS
)


def _parse_event(d: object, path: str, lineno: int) -> TraceEvent:
    """Build one event from a decoded line, or raise :class:`TraceError`."""
    if not isinstance(d, dict):
        raise TraceError(
            f"trace record must be a JSON object, got {type(d).__name__}",
            path=path, line=lineno,
        )
    unknown = set(d) - _KNOWN_FIELDS
    if unknown:
        raise TraceError(
            f"unexpected trace field(s): {', '.join(sorted(unknown))}",
            path=path, line=lineno,
        )
    for required in ("kind", "group", "name"):
        if required not in d:
            raise TraceError(
                f"trace record missing required field {required!r}",
                path=path, line=lineno,
            )
    try:
        kind = EventKind(d["kind"])
    except ValueError:
        known = ", ".join(k.value for k in EventKind)
        raise TraceError(
            f"unknown event kind {d['kind']!r} (known: {known})",
            path=path, line=lineno,
        ) from None
    try:
        return TraceEvent(
            kind=kind,
            group=int(d["group"]),
            name=str(d["name"]),
            bytes=int(d.get("bytes", 0)),
            cycles=int(d.get("cycles", 0)),
            pes=tuple(int(p) for p in d.get("pes", ())),
            hops=int(d.get("hops", 0)),
            start_cycle=int(d.get("start_cycle", 0)),
        )
    except (TypeError, ValueError) as exc:
        raise TraceError(
            f"trace field has the wrong type: {exc}",
            path=path, line=lineno,
        ) from exc


def iter_trace(path: str) -> Iterator[TraceEvent]:
    """Stream a JSON-lines trace one event at a time.

    Blank lines are skipped; anything else that fails to parse raises
    :class:`~repro.resilience.errors.TraceError` with the file and
    1-based line number, as does a file that cannot be opened (without
    a line number).
    """
    try:
        handle = open(path)
    except OSError as exc:
        raise TraceError(f"cannot read: {exc.strerror}", path=path) from exc
    with handle as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                decoded = json.loads(line)
            except ValueError as exc:
                raise TraceError(
                    f"malformed JSON: {exc}", path=path, line=lineno
                ) from exc
            yield _parse_event(decoded, path, lineno)


def load_trace(path: str) -> List[TraceEvent]:
    """Read a JSON-lines trace written by :func:`dump_trace`."""
    return list(iter_trace(path))
