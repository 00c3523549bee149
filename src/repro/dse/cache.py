"""The persistent content-addressed artifact cache.

:class:`ArtifactCache` is the disk store: a content-addressed JSON store
laid out as ``<root>/<kind>/<fp[:2]>/<fp>.json``, written via temp-file +
atomic rename so readers never observe a half-written entry.  The
in-memory tier sits in front of it, in the evaluation pipeline's live
maps (:mod:`repro.experiments.common`) and the plan memo's entries
(:mod:`repro.sched.plan_memo`), which answer every in-process repeat
before the store is asked.  With no root configured every lookup
misses and a write is only counted.

Robustness contract (tested): a truncated file, garbage JSON, a stale
:data:`~repro.dse.fingerprint.FORMAT_VERSION`, or a kind/fingerprint
mismatch **degrades to a miss** — a :class:`~repro.resilience.errors.
CacheError` warning is emitted, ``dse.cache.corrupt`` is counted, and
the caller recomputes.  The cache never crashes an evaluation.  The
offending file is **quarantined** to ``<root>/quarantine/`` on the
first failed read, so later runs see a clean miss instead of
re-parsing and re-warning about the same bad bytes; the recompute's
``put`` repairs the entry in place.

Because evaluations run in crash-isolated child processes (which never
run ``atexit`` handlers — they exit via ``os._exit``), per-process hit/
miss counts are flushed eagerly to small sidecar files under
``<root>/stats/``; :func:`aggregate_stats` sums them so the runner can
report a whole run's cache behaviour in ``--metrics-json``.
"""

from __future__ import annotations

import json
import os
import tempfile
import uuid
import warnings
from typing import Any, Dict, Iterator, Optional

from repro.dse.fingerprint import FORMAT_VERSION
from repro.obs.metrics import REGISTRY as _METRICS
from repro.resilience.errors import CacheError

__all__ = [
    "ArtifactCache",
    "CACHE",
    "CacheEntry",
    "aggregate_stats",
    "gc_cache",
    "scan_entries",
]

#: Environment variable naming the on-disk cache root.  Read *per
#: operation* (not at import) so the experiment runner — and the forked
#: cell subprocesses that inherit its environment — can point the
#: shared :data:`CACHE` at a directory with ``--cache-dir``.
CACHE_ENV = "REPRO_DSE_CACHE"

#: Artifact kinds the store recognises.
KINDS = ("result", "schedule", "plan")

_STAT_KEYS = ("hits", "misses", "writes", "corrupt", "evictions")

#: Sentinel: resolve the disk root dynamically from :data:`CACHE_ENV`.
_ENV = object()


class CacheEntry:
    """One on-disk entry as seen by ``scan``/``ls``/``gc``."""

    __slots__ = ("kind", "fingerprint", "path", "ok", "reason", "meta")

    def __init__(
        self,
        kind: str,
        fingerprint: str,
        path: str,
        ok: bool,
        reason: str,
        meta: Dict[str, Any],
    ):
        self.kind = kind
        self.fingerprint = fingerprint
        self.path = path
        self.ok = ok
        self.reason = reason
        self.meta = meta


class ArtifactCache:
    """Content-addressed on-disk artifact store.

    Args:
        root: on-disk root directory; ``None`` for no store (every
            lookup misses).  The module-level :data:`CACHE` instead
            resolves its root from :data:`CACHE_ENV` on every call.
        salt: format-version stamp for envelopes (tests inject stale
            values; production code leaves the default).
    """

    def __init__(self, root: Optional[str] = None, salt: int = FORMAT_VERSION):
        self._root = root
        self.salt = salt
        self._pid = os.getpid()
        self._stats_token: Optional[str] = None
        self.stats: Dict[str, int] = {k: 0 for k in _STAT_KEYS}

    # -- store plumbing ------------------------------------------------

    @property
    def root(self) -> Optional[str]:
        """The store's root, or ``None`` when no store is configured."""
        if self._root is _ENV:
            return os.environ.get(CACHE_ENV, "").strip() or None
        return self._root

    def entry_path(self, kind: str, fingerprint: str) -> Optional[str]:
        """Where the store keeps one entry (``None`` if no store)."""
        root = self.root
        if root is None:
            return None
        return os.path.join(root, kind, fingerprint[:2], f"{fingerprint}.json")

    def _after_fork(self) -> None:
        """Forked children inherit the parent's counters and sidecar
        token; zero them so child sidecars report only the child's own
        activity (the parent flushes its own)."""
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self._stats_token = None
            for key in _STAT_KEYS:
                self.stats[key] = 0

    def _bump(self, stat: str, amount: int = 1) -> None:
        self._after_fork()
        self.stats[stat] += amount
        if _METRICS.enabled:
            _METRICS.counter(f"dse.cache.{stat}").inc(amount)

    def bump(self, stat: str, amount: int = 1) -> None:
        """Count an event on behalf of a layered front tier.

        The evaluation pipeline keeps *live* schedule/result objects in
        front of this cache (documents cannot hold live plan objects);
        a hit there is still a cache hit and is counted through here so
        the ``dse.cache.*`` counters describe the whole hierarchy.
        """
        if stat not in self.stats:
            raise CacheError(
                f"unknown cache stat {stat!r}", reason="bad-stat"
            )
        self._bump(stat, amount)

    # -- read/write ----------------------------------------------------

    def get(self, kind: str, fingerprint: str) -> Optional[Any]:
        """Look up one artifact payload; ``None`` on a miss.

        Any unreadable or untrustworthy entry is treated as a miss after
        a :class:`CacheError` warning and a ``dse.cache.corrupt`` count
        — never an exception.
        """
        path = self.entry_path(kind, fingerprint)
        if path is not None and os.path.exists(path):
            payload = self._read_entry(kind, fingerprint, path)
            if payload is not None:
                self._bump("hits")
                return payload
        self._bump("misses")
        return None

    def _read_entry(
        self, kind: str, fingerprint: str, path: str
    ) -> Optional[Any]:
        try:
            with open(path, "r", encoding="utf-8") as fp:
                envelope = json.load(fp)
        except ValueError:
            self._corrupt(path, "garbage-json")
            return None
        except OSError as exc:
            self._corrupt(path, f"unreadable: {exc}")
            return None
        reason = _envelope_problem(envelope, kind, fingerprint, self.salt)
        if reason is not None:
            self._corrupt(path, reason)
            return None
        return envelope["payload"]

    def _corrupt(self, path: str, reason: str) -> None:
        self._bump("corrupt")
        quarantined = self._quarantine(path)
        message = "discarding untrusted cache entry (treated as a miss)"
        if quarantined is not None:
            message += f"; quarantined to {quarantined}"
        warnings.warn(
            CacheError(message, path=path, reason=reason),
            stacklevel=4,
        )

    def _quarantine(self, path: str) -> Optional[str]:
        """Move a bad entry to ``<root>/quarantine/`` (best effort).

        Quarantining is what keeps corruption a *one-time* incident:
        the next lookup sees a clean miss (no file, no re-parse, no
        repeat warning) and the recompute's ``put`` writes a fresh
        entry at the original address.  Returns the destination, or
        ``None`` when there was nothing on disk to move.
        """
        root = self.root
        if not root or not path:
            return None
        try:
            if not os.path.isfile(path):
                return None
            quarantine_dir = os.path.join(root, "quarantine")
            os.makedirs(quarantine_dir, exist_ok=True)
            base = os.path.basename(path)
            dest = os.path.join(quarantine_dir, base)
            suffix = 1
            while os.path.exists(dest):
                dest = os.path.join(quarantine_dir, f"{base}.{suffix}")
                suffix += 1
            os.replace(path, dest)
            return dest
        except OSError:
            return None  # an unmovable file must not fail the lookup

    def put(
        self,
        kind: str,
        fingerprint: str,
        payload: Any,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Store one artifact (best-effort; counted even with no store)."""
        self._bump("writes")
        path = self.entry_path(kind, fingerprint)
        if path is None:
            return
        envelope = {
            "version": self.salt,
            "kind": kind,
            "fingerprint": fingerprint,
            "meta": meta or {},
            "payload": payload,
        }
        try:
            _atomic_write_json(path, envelope)
        except OSError as exc:
            # A full or read-only disk degrades persistence, not runs.
            warnings.warn(
                CacheError(
                    "cache write failed (entry not persisted)",
                    path=path,
                    reason=str(exc),
                ),
                stacklevel=3,
            )

    # -- stats ---------------------------------------------------------

    def flush_stats(self) -> None:
        """Persist this process's counters to its stats sidecar.

        Called eagerly after each evaluation because forked workers
        bypass ``atexit``.  Idempotent: the sidecar is rewritten in
        place (one file per process) with cumulative counts.
        """
        self._after_fork()
        root = self.root
        if root is None or not any(self.stats.values()):
            return
        if self._stats_token is None:
            self._stats_token = f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
        path = os.path.join(root, "stats", f"{self._stats_token}.json")
        try:
            _atomic_write_json(path, dict(self.stats))
        except OSError:
            pass  # stats are advisory; never fail an evaluation


def _envelope_problem(
    envelope: Any, kind: str, fingerprint: str, salt: int
) -> Optional[str]:
    """Why an envelope cannot be trusted (``None`` when it can)."""
    if not isinstance(envelope, dict):
        return "not-an-object"
    if envelope.get("version") != salt:
        return f"stale-version: {envelope.get('version')!r} != {salt}"
    if envelope.get("kind") != kind or envelope.get("fingerprint") != fingerprint:
        return "address-mismatch"
    if "payload" not in envelope:
        return "truncated"
    return None


def _atomic_write_json(path: str, document: Any) -> None:
    """Temp-file + rename so concurrent readers never see partial JSON."""
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fp:
            # dumps() takes the C-accelerated encoder; dump() streams
            # through the pure-Python one — measurably slower for the
            # thousands of plan-skeleton writes a cold search makes.
            fp.write(json.dumps(document, sort_keys=True))
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


#: The process-wide cache the evaluation pipeline talks to; its root
#: follows :data:`CACHE_ENV` dynamically.
CACHE = ArtifactCache(root=_ENV)  # type: ignore[arg-type]


# ---------------------------------------------------------------------
# Store maintenance (python -m repro.dse stat/ls/gc)
# ---------------------------------------------------------------------


def scan_entries(root: str) -> Iterator[CacheEntry]:
    """Walk a cache root yielding every entry with its validity."""
    for kind in KINDS:
        kind_dir = os.path.join(root, kind)
        if not os.path.isdir(kind_dir):
            continue
        for shard in sorted(os.listdir(kind_dir)):
            shard_dir = os.path.join(kind_dir, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if not name.endswith(".json"):
                    continue
                path = os.path.join(shard_dir, name)
                fingerprint = name[: -len(".json")]
                try:
                    with open(path, "r", encoding="utf-8") as fp:
                        envelope = json.load(fp)
                except (OSError, ValueError):
                    yield CacheEntry(kind, fingerprint, path, False,
                                     "garbage-json", {})
                    continue
                reason = _envelope_problem(
                    envelope, kind, fingerprint, FORMAT_VERSION
                )
                meta = (
                    envelope.get("meta", {})
                    if isinstance(envelope, dict) else {}
                )
                yield CacheEntry(
                    kind, fingerprint, path, reason is None,
                    reason or "", meta if isinstance(meta, dict) else {},
                )


def gc_cache(root: str, cache: Optional[ArtifactCache] = None) -> int:
    """Remove every invalid (corrupt/stale/mismatched) entry.

    Returns the eviction count; counted as ``dse.cache.evictions`` on
    ``cache`` (the shared :data:`CACHE` by default).
    """
    cache = cache if cache is not None else CACHE
    evicted = 0
    for entry in scan_entries(root):
        if entry.ok:
            continue
        try:
            os.unlink(entry.path)
        except OSError:
            continue
        evicted += 1
    if evicted:
        cache._bump("evictions", evicted)
        cache.flush_stats()
    return evicted


def aggregate_stats(root: Optional[str]) -> Dict[str, int]:
    """Sum every process's stats sidecar under ``root``."""
    totals = {k: 0 for k in _STAT_KEYS}
    if not root:
        return totals
    stats_dir = os.path.join(root, "stats")
    if not os.path.isdir(stats_dir):
        return totals
    for name in sorted(os.listdir(stats_dir)):
        if not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(stats_dir, name), encoding="utf-8") as fp:
                doc = json.load(fp)
        except (OSError, ValueError):
            continue
        if not isinstance(doc, dict):
            continue
        for key in _STAT_KEYS:
            value = doc.get(key, 0)
            if isinstance(value, int):
                totals[key] += value
    return totals
