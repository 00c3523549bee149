"""Robustness of the persistent content-addressed cache.

Satellite contract: a truncated file, garbage JSON, or a stale
format-version must degrade to a **miss** — with a ``CacheError``
-classified warning and a ``dse.cache.corrupt`` increment — and must
never raise into the caller.
"""

import json
import os
import warnings

import pytest

from repro.dse.cache import (
    ArtifactCache,
    aggregate_stats,
    gc_cache,
    scan_entries,
)
from repro.dse.fingerprint import FORMAT_VERSION, digest
from repro.resilience.errors import CacheError

FP = digest({"probe": 1})


@pytest.fixture()
def cache(tmp_path):
    return ArtifactCache(root=str(tmp_path))


class TestHitMissWrite:
    def test_miss_then_hit(self, cache):
        assert cache.get("result", FP) is None
        cache.put("result", FP, {"value": 42})
        assert cache.get("result", FP) == {"value": 42}
        assert cache.stats["misses"] == 1
        assert cache.stats["writes"] == 1
        assert cache.stats["hits"] == 1

    def test_disk_round_trip(self, cache):
        cache.put("result", FP, {"value": 42}, meta={"label": "x"})
        assert cache.get("result", FP) == {"value": 42}
        path = cache.entry_path("result", FP)
        with open(path, encoding="utf-8") as fp:
            envelope = json.load(fp)
        assert envelope["version"] == FORMAT_VERSION
        assert envelope["kind"] == "result"
        assert envelope["fingerprint"] == FP
        assert envelope["meta"] == {"label": "x"}

    def test_no_root_misses_and_counts_writes(self):
        cache = ArtifactCache(root=None)
        cache.put("result", FP, {"value": 1})
        assert cache.entry_path("result", FP) is None
        assert cache.get("result", FP) is None
        assert cache.stats["writes"] == 1
        assert cache.stats["misses"] == 1

    def test_kinds_do_not_collide(self, cache):
        cache.put("result", FP, {"value": 1})
        assert cache.get("schedule", FP) is None

    def test_bump_front_tier(self, cache):
        cache.bump("hits")
        assert cache.stats["hits"] == 1
        with pytest.raises(CacheError):
            cache.bump("no-such-stat")

    def test_no_file_left_behind_on_write(self, cache):
        cache.put("result", FP, {"value": 1})
        shard = os.path.dirname(cache.entry_path("result", FP))
        assert sorted(os.listdir(shard)) == [f"{FP}.json"]


def _expect_corrupt_miss(cache, reason_fragment):
    """A poisoned entry reads as a miss with exactly one corrupt count."""
    before = cache.stats["corrupt"]
    with pytest.warns(CacheError, match="treated as a miss") as record:
        assert cache.get("result", FP) is None
    assert cache.stats["corrupt"] == before + 1
    assert any(reason_fragment in str(w.message.reason) for w in record)


class TestCorruptionIsAMiss:
    def _poison(self, cache, text):
        path = cache.entry_path("result", FP)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text)

    def test_truncated_file(self, cache):
        cache.put("result", FP, {"value": 42})
        path = cache.entry_path("result", FP)
        with open(path, encoding="utf-8") as fp:
            text = fp.read()
        self._poison(cache, text[: len(text) // 2])
        _expect_corrupt_miss(cache, "garbage-json")

    def test_garbage_json(self, cache):
        self._poison(cache, "{not json at all")
        _expect_corrupt_miss(cache, "garbage-json")

    def test_stale_format_version(self, cache, tmp_path):
        stale = ArtifactCache(root=str(tmp_path), salt=FORMAT_VERSION + 1)
        stale.put("result", FP, {"value": 42})
        _expect_corrupt_miss(cache, "stale-version")

    def test_envelope_missing_payload(self, cache):
        self._poison(cache, json.dumps({
            "version": FORMAT_VERSION, "kind": "result", "fingerprint": FP,
        }))
        _expect_corrupt_miss(cache, "truncated")

    def test_address_mismatch(self, cache):
        self._poison(cache, json.dumps({
            "version": FORMAT_VERSION, "kind": "result",
            "fingerprint": "0" * 64, "payload": {"value": 7},
        }))
        _expect_corrupt_miss(cache, "address-mismatch")

    def test_not_an_object(self, cache):
        self._poison(cache, json.dumps([1, 2, 3]))
        _expect_corrupt_miss(cache, "not-an-object")

    def test_recompute_after_corruption_repairs_entry(self, cache):
        self._poison(cache, "{broken")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CacheError)
            assert cache.get("result", FP) is None
        cache.put("result", FP, {"value": 42})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning now fails the test
            assert cache.get("result", FP) == {"value": 42}


class TestMaintenance:
    def test_scan_classifies_entries(self, cache):
        cache.put("result", FP, {"value": 1}, meta={"label": "good"})
        bad_fp = digest({"probe": 2})
        path = cache.entry_path("result", bad_fp)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fp:
            fp.write("{broken")
        entries = {e.fingerprint: e for e in scan_entries(cache.root)}
        assert entries[FP].ok
        assert entries[FP].meta == {"label": "good"}
        assert not entries[bad_fp].ok

    def test_gc_evicts_only_invalid(self, cache):
        cache.put("result", FP, {"value": 1})
        bad_fp = digest({"probe": 2})
        path = cache.entry_path("result", bad_fp)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fp:
            fp.write("{broken")
        assert gc_cache(cache.root, cache=cache) == 1
        assert not os.path.exists(path)
        assert os.path.exists(cache.entry_path("result", FP))
        assert cache.stats["evictions"] == 1

    def test_aggregate_stats_sums_sidecars(self, cache):
        cache.put("result", FP, {"value": 1})
        cache.get("result", FP)
        cache.flush_stats()
        totals = aggregate_stats(cache.root)
        assert totals["writes"] == 1
        assert totals["hits"] == 1
        # A second flush rewrites the same sidecar; no double counting.
        cache.get("result", FP)
        cache.flush_stats()
        assert aggregate_stats(cache.root)["hits"] == 2

    def test_aggregate_stats_without_root(self):
        assert aggregate_stats(None) == {
            "hits": 0, "misses": 0, "writes": 0, "corrupt": 0, "evictions": 0,
        }
