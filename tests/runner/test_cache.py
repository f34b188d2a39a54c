"""The on-disk cache: round trips, safe misses, atomic writes."""

from __future__ import annotations

import json

import pytest

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


def test_json_text_payload_writes_the_same_bytes(tmp_path):
    """The scheduler hands the cache the payload's JSON text; the entry on
    disk is byte-identical to storing the dict."""
    key = digest_of("entry")
    payload = {"lp_cost": 0.1 + 0.2, "store": {"dtype": "float64", "zlib": "eJw="}}
    as_dict, as_text = ResultCache(tmp_path / "dict"), ResultCache(tmp_path / "text")
    as_dict.store(key, "bound", payload, seconds=1.5)
    as_text.store(key, "bound", json.dumps(payload), seconds=1.5)
    assert as_text._path(key).read_text() == as_dict._path(key).read_text()
    assert as_text.load(key, "bound") == payload


# -- entries from older code and garbled arrays ------------------------------


def rounded_task(web_problem):
    from repro.analysis.sweep import sweep_tasks
    from repro.core.classes import get_class

    return sweep_tasks(
        web_problem, [0.5], [get_class("general")], do_rounding=True, backend="scipy"
    )[0]


def test_schema_2_dense_entry_is_a_miss_and_is_overwritten(web_problem, tmp_path):
    from repro.runner import ExperimentRunner
    from tests.runner.dense_codec import dense_array_to_jsonable

    task = rounded_task(web_problem)
    key = task.cache_key()
    result = task.run()
    old = task.encode(result)
    old["rounding"]["store"] = dense_array_to_jsonable(result.rounding.store)
    cache = ResultCache(tmp_path)
    path = cache._path(key)
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(
        {"schema": "2", "kind": task.kind, "key": key, "seconds": 1.0, "payload": old}
    ))
    assert cache.load(key, task.kind) is None

    runner = ExperimentRunner(cache=cache)
    (again,) = runner.map([task])
    assert (runner.executed, runner.cache_hits) == (1, 0)
    entry = json.loads(path.read_text())
    assert entry["schema"] == SCHEMA_VERSION
    assert "zlib" in entry["payload"]["rounding"]["store"]
    assert again.rounding.store.tobytes() == result.rounding.store.tobytes()


@pytest.mark.parametrize("garble", ["bad-base64", "zlib-error", "byte-count"])
def test_garbled_store_blob_is_re_solved_not_a_crash(web_problem, tmp_path, garble):
    import base64
    import zlib

    from repro.runner import ExperimentRunner

    task = rounded_task(web_problem)
    key = task.cache_key()
    cache = ResultCache(tmp_path)
    ExperimentRunner(cache=cache).map([task])
    entry = json.loads(cache._path(key).read_text())
    blob = entry["payload"]["rounding"]["store"]
    raw = zlib.decompress(base64.b64decode(blob["zlib"]))
    blob["zlib"] = {
        "bad-base64": "%%" + blob["zlib"],
        "zlib-error": base64.b64encode(b"\x78\x9c garbage").decode(),
        "byte-count": base64.b64encode(zlib.compress(raw[:-8])).decode(),
    }[garble]
    cache._path(key).write_text(json.dumps(entry))

    runner = ExperimentRunner(cache=cache)
    (result,) = runner.map([task])
    assert (runner.executed, runner.cache_hits) == (1, 0)
    assert result.rounding.store.size == len(raw) // 8
    # The re-solved result overwrote the garbled entry.
    warm = ExperimentRunner(cache=cache)
    warm.map([task])
    assert warm.cache_hits == 1
