"""Quarantine of corrupt cache entries."""

import os
import warnings

import pytest

from repro.dse.cache import ArtifactCache
from repro.dse.fingerprint import digest
from repro.resilience.errors import CacheError

FP = digest({"probe": "faults"})


@pytest.fixture()
def cache(tmp_path):
    return ArtifactCache(root=str(tmp_path))


def _poison(cache, text="{broken"):
    path = cache.entry_path("result", FP)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(text)
    return path


class TestQuarantine:
    def test_corrupt_entry_moved_to_quarantine(self, cache):
        path = _poison(cache)
        with pytest.warns(CacheError, match="quarantined"):
            assert cache.get("result", FP) is None
        assert not os.path.exists(path)
        qdir = os.path.join(cache.root, "quarantine")
        assert os.listdir(qdir) == [f"{FP}.json"]

    def test_second_read_is_clean_miss(self, cache):
        _poison(cache)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CacheError)
            assert cache.get("result", FP) is None
        # The corpse is gone: no re-warning, no second corrupt count.
        before = cache.stats["corrupt"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.get("result", FP) is None
        assert cache.stats["corrupt"] == before

    def test_quarantine_names_do_not_collide(self, cache):
        for expected in [f"{FP}.json", f"{FP}.json.1"]:
            _poison(cache)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CacheError)
                cache.get("result", FP)
            qdir = os.path.join(cache.root, "quarantine")
            assert expected in os.listdir(qdir)

    def test_recompute_repairs_after_quarantine(self, cache):
        _poison(cache)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CacheError)
            assert cache.get("result", FP) is None
        cache.put("result", FP, {"value": 42})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.get("result", FP) == {"value": 42}

    def test_quarantined_payload_preserved_for_forensics(self, cache):
        _poison(cache, '{"evidence": true')
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CacheError)
            cache.get("result", FP)
        qpath = os.path.join(cache.root, "quarantine", f"{FP}.json")
        with open(qpath, encoding="utf-8") as fp:
            assert fp.read() == '{"evidence": true'


def test_quarantine_dir_excluded_from_scan(cache):
    """scan_entries must not treat quarantined corpses as entries."""
    from repro.dse.cache import scan_entries

    _poison(cache, "{broken")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CacheError)
        cache.get("result", FP)
    # The only entry was quarantined; the kind shards are empty and
    # the quarantine directory itself is invisible to the scanner.
    assert list(scan_entries(cache.root)) == []
    assert os.listdir(os.path.join(cache.root, "quarantine"))
