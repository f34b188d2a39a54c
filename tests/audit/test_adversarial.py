"""Adversarial cache corruption: the cache-hit audit must catch tampering.

These tests hand-corrupt cached result files the way bit rot or a bad merge
would, then assert the runner's cache-hit audit quarantines the entry and
re-solves instead of serving poison.
"""

from __future__ import annotations

import json

import pytest

from repro.core.classes import get_class
from repro.runner import make_runner
from repro.runner.tasks import BoundTask


@pytest.fixture()
def task(web_problem):
    return BoundTask(
        problem=web_problem,
        properties=get_class("storage-constrained").properties,
        backend="scipy",
        audit="fast",
        label="adversarial",
    )


def cache_file(cache_dir, task):
    key = task.cache_key()
    path = cache_dir / key[:2] / f"{key}.json"
    assert path.exists(), "task was not cached"
    return path


def test_clean_cache_hit_re_audits_and_serves(tmp_path, task):
    cache_dir = tmp_path / "cache"
    [first] = make_runner(cache_dir=cache_dir).map([task])

    warm = make_runner(cache_dir=cache_dir)
    [second] = warm.map([task])
    assert warm.cache_hits == 1
    assert warm.audit_quarantined == 0
    assert second.lp_cost == pytest.approx(first.lp_cost)


def test_flipped_coefficient_is_quarantined_and_resolved(tmp_path, task):
    cache_dir = tmp_path / "cache"
    [honest] = make_runner(cache_dir=cache_dir).map([task])

    path = cache_file(cache_dir, task)
    entry = json.loads(path.read_text())
    entry["payload"]["lp_cost"] = entry["payload"]["lp_cost"] * 3.0 + 1.0
    path.write_text(json.dumps(entry))

    warm = make_runner(cache_dir=cache_dir)
    [result] = warm.map([task])

    assert warm.audit_quarantined == 1
    assert warm.executed == 1
    assert path.with_name(path.name + ".quarantined").exists()
    assert result.lp_cost == pytest.approx(honest.lp_cost)
    assert "audit_quarantined=1" in warm.summary()

    # The re-solve overwrote the entry, so a third run is a clean hit again.
    third = make_runner(cache_dir=cache_dir)
    [again] = third.map([task])
    assert third.cache_hits == 1
    assert third.audit_quarantined == 0
    assert again.lp_cost == pytest.approx(honest.lp_cost)


def test_corrupted_rounding_storage_is_caught(tmp_path, web_problem):
    rounded = BoundTask(
        problem=web_problem,
        properties=get_class("storage-constrained").properties,
        backend="scipy",
        do_rounding=True,
        audit="fast",
    )
    cache_dir = tmp_path / "cache"
    [honest] = make_runner(cache_dir=cache_dir).map([rounded])
    assert honest.feasible_cost is not None

    path = cache_file(cache_dir, rounded)
    entry = json.loads(path.read_text())
    entry["payload"]["feasible_cost"] = honest.feasible_cost / 10.0
    path.write_text(json.dumps(entry))

    warm = make_runner(cache_dir=cache_dir)
    [result] = warm.map([rounded])
    assert warm.audit_quarantined == 1
    assert result.feasible_cost == pytest.approx(honest.feasible_cost)


def test_truncated_json_is_a_plain_miss(tmp_path, task):
    cache_dir = tmp_path / "cache"
    make_runner(cache_dir=cache_dir).map([task])

    path = cache_file(cache_dir, task)
    path.write_text(path.read_text()[: len(path.read_text()) // 2])

    warm = make_runner(cache_dir=cache_dir)
    [result] = warm.map([task])
    # Undecodable bytes never reach the audit: decode fails, plain miss.
    assert warm.cache_hits == 0
    assert warm.audit_quarantined == 0
    assert warm.executed == 1
    assert result.feasible


def test_audit_off_serves_corrupted_entry(tmp_path, web_problem):
    """Without auditing the tampered value is served verbatim — the audit is
    what buys detection, and this pins down the contrast."""
    unaudited = BoundTask(
        problem=web_problem,
        properties=get_class("storage-constrained").properties,
        backend="scipy",
        audit="off",
    )
    cache_dir = tmp_path / "cache"
    [honest] = make_runner(cache_dir=cache_dir).map([unaudited])

    path = cache_file(cache_dir, unaudited)
    entry = json.loads(path.read_text())
    entry["payload"]["lp_cost"] = entry["payload"]["lp_cost"] * 3.0 + 1.0
    path.write_text(json.dumps(entry))

    warm = make_runner(cache_dir=cache_dir)
    [served] = warm.map([unaudited])
    assert warm.cache_hits == 1
    assert served.lp_cost != pytest.approx(honest.lp_cost)


def test_creation_at_a_forbidden_interval_is_quarantined(tmp_path, web_problem):
    """A cached caching-class placement that creates a replica where the
    class may not (no local access that interval) is refused, even with
    its stored costs made consistent with the forged store."""
    import dataclasses

    import numpy as np

    from repro.core.evaluate import solution_cost
    from repro.core.formulation import compute_allowed_create

    props = get_class("caching").properties
    # Caching covers at most ~0.8 of this trace's reads within Tlat.
    problem = dataclasses.replace(
        web_problem, goal=dataclasses.replace(web_problem.goal, fraction=0.7)
    )
    rounded = BoundTask(
        problem=problem, properties=props, backend="scipy",
        do_rounding=True, audit="fast",
    )
    cache_dir = tmp_path / "cache"
    [honest] = make_runner(cache_dir=cache_dir).map([rounded])
    assert honest.rounding is not None and honest.rounding.feasible

    # The first empty cell after an empty one (so setting it is a creation)
    # where the class forbids creating.
    instance = problem.instance(props)
    allowed = compute_allowed_create(instance, props)
    store = np.array(honest.rounding.store, dtype=float)
    prev = np.concatenate([np.zeros_like(store[:, :1]), store[:, :-1]], axis=1)
    ns, i, k = np.argwhere((store == 0) & (prev == 0) & ~allowed)[0]
    store[ns, i, k] = 1.0
    cost = solution_cost(instance, props, problem.costs, store, goal=problem.goal)
    forged = dataclasses.replace(
        honest,
        rounding=dataclasses.replace(honest.rounding, store=store, cost=cost),
        feasible_cost=cost.total,
    )
    report = rounded.audit_cached(forged)
    assert [v.message for v in report.violations] == [
        f"creation at store[{ns},{i},{k}] violates the class's "
        "history/knowledge restriction"
    ]

    path = cache_file(cache_dir, rounded)
    entry = json.loads(path.read_text())
    entry["payload"] = rounded.encode(forged)
    path.write_text(json.dumps(entry))

    warm = make_runner(cache_dir=cache_dir)
    [result] = warm.map([rounded])
    assert warm.audit_quarantined == 1
    assert warm.executed == 1
    assert path.with_name(path.name + ".quarantined").exists()
    np.testing.assert_array_equal(result.rounding.store, honest.rounding.store)
