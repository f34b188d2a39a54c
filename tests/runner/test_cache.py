"""The on-disk cache: round trips, safe misses, atomic writes."""

from __future__ import annotations

import json

from repro.runner.cache import ResultCache
from repro.runner.digest import SCHEMA_VERSION, digest_of


def test_store_load_round_trip(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = digest_of("entry")
    payload = {"feasible": True, "lp_cost": 12.5, "nested": {"a": [1, 2]}}
    cache.store(key, "bound", payload, seconds=0.25)
    assert cache.load(key, "bound") == payload
    assert len(cache) == 1


def test_missing_key_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.load(digest_of("absent"), "bound") is None


def test_kind_mismatch_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    key = digest_of("entry")
    cache.store(key, "bound", {"x": 1}, seconds=0.0)
    assert cache.load(key, "simulate") is None
    assert cache.load(key, "bound") == {"x": 1}


def test_schema_mismatch_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    key = digest_of("entry")
    cache.store(key, "bound", {"x": 1}, seconds=0.0)
    path = cache._path(key)
    entry = json.loads(path.read_text())
    entry["schema"] = SCHEMA_VERSION + "-stale"
    path.write_text(json.dumps(entry))
    assert cache.load(key, "bound") is None


def test_corrupt_file_is_a_miss_and_recoverable(tmp_path):
    cache = ResultCache(tmp_path)
    key = digest_of("entry")
    cache.store(key, "bound", {"x": 1}, seconds=0.0)
    cache._path(key).write_text("{not json")
    assert cache.load(key, "bound") is None
    cache.store(key, "bound", {"x": 2}, seconds=0.0)
    assert cache.load(key, "bound") == {"x": 2}


def test_store_leaves_no_temp_files(tmp_path):
    cache = ResultCache(tmp_path)
    for i in range(5):
        cache.store(digest_of("k", i), "bound", {"i": i}, seconds=0.0)
    leftovers = list(tmp_path.rglob("*.tmp"))
    assert leftovers == []
    assert len(cache) == 5


def test_store_writes_exactly_json_dumps_of_the_entry(tmp_path):
    """The file holds the C encoder's compact output: one ``json.dumps`` of
    the entry, nothing streamed piecewise, no trailing newline."""
    cache = ResultCache(tmp_path)
    key = digest_of("entry")
    payload = {"lp_cost": 0.1 + 0.2, "store": [[0.0, 1.0], [1e-300, -0.0]], "s": "é\n"}
    cache.store(key, "bound", payload, seconds=1.5)
    entry = {
        "schema": SCHEMA_VERSION,
        "kind": "bound",
        "key": key,
        "seconds": 1.5,
        "payload": payload,
    }
    assert cache._path(key).read_text() == json.dumps(entry)
