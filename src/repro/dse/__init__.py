"""Design-space exploration: persistent, content-addressed caching.

CROPHE's results come from sweeping a large cross-operator dataflow
space; the expensive inner step — the DP schedule search — recurs on
identical (graph, hardware, dataflow, knobs) tuples across cells, runs,
and machines.  This package eliminates the recomputation:

* :mod:`repro.dse.fingerprint` — canonical content-addressed keys over
  (graph structural hash, FHE params, hardware, scheduler knobs,
  dataflow variant, format-version salt).  Fingerprints never embed
  process-dependent state (operator uids, object ids, clock values).
* :mod:`repro.dse.cache` — the on-disk JSON artifact store behind the
  pipeline's in-memory live maps (atomic renames, corrupt entries
  degrade to misses with a typed
  :class:`~repro.resilience.errors.CacheError` warning, hit/miss/
  corruption counters through :mod:`repro.obs`).

Sweeps run through the experiment runner
(``python -m repro.experiments.runner all --jobs N --cache-dir DIR``),
whose cells evaluate through this cache.  ``python -m repro.dse``
exposes ``stat`` / ``ls`` / ``gc`` over a cache root.
"""

from repro.dse.cache import ArtifactCache, CACHE, aggregate_stats
from repro.dse.fingerprint import (
    FORMAT_VERSION,
    canonical_json,
    digest,
    graph_fingerprint,
    result_fingerprint,
    schedule_fingerprint,
)

__all__ = [
    "ArtifactCache",
    "CACHE",
    "FORMAT_VERSION",
    "aggregate_stats",
    "canonical_json",
    "digest",
    "graph_fingerprint",
    "result_fingerprint",
    "schedule_fingerprint",
]
