"""The HTTP front-end: endpoints, caching, shedding, degradation, chaos."""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.runner.tasks import ContinuousTask, HeuristicSpec
from repro.service import (
    AdmissionQueue,
    CheckpointStore,
    CircuitBreaker,
    PlacementDaemon,
    PlacementService,
    ServiceChaos,
    ServiceClient,
)
from repro.service.client import ServiceConnectionError
from repro.solvers.registry import SolverBackend, register_backend
from repro.topology.generators import line_topology
from repro.topology.graph import Topology


def zoned_topology():
    base = line_topology(num_nodes=6, hop_latency_ms=40.0)
    return Topology(
        latency=base.latency,
        origin=base.origin,
        populations=base.populations,
        zones=np.asarray([0, 0, 1, 1, 2, 2]),
    )


def small_task(**overrides):
    params = dict(
        topology=zoned_topology(),
        heuristic=HeuristicSpec("qiu", replicas=1, period_s=600.0, tlat_ms=80.0),
        epochs=2,
        epoch_s=1800.0,
        requests_per_epoch=200,
        num_objects=8,
        workload_seed=3,
        slo=0.9,
        faults="zonepart:zone=1,at=300,down=300",
    )
    params.update(overrides)
    return ContinuousTask(**params)


class Harness:
    """A service on a background event loop, driven by the blocking client."""

    def __init__(self, service: PlacementService):
        self.service = service
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        host, port = asyncio.run_coroutine_threadsafe(
            service.start(), self.loop
        ).result(10)
        self.client = ServiceClient(host, port, timeout_s=10.0)
        self.host, self.port = host, port

    def close(self):
        asyncio.run_coroutine_threadsafe(self.service.stop(), self.loop).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()


def make_service(tmp_path, *, run_epochs=True, task=None, **service_kwargs):
    task = task or small_task()
    store = CheckpointStore(tmp_path / "state", task.cache_key())
    daemon = PlacementDaemon(task, store)
    if run_epochs:
        while daemon.run_epoch():
            pass
    return PlacementService(daemon, **service_kwargs)


@pytest.fixture()
def harness(tmp_path):
    h = Harness(make_service(tmp_path))
    yield h
    h.close()


def test_health_always_ok(tmp_path):
    h = Harness(make_service(tmp_path, run_epochs=False))
    try:
        assert h.client.health().payload == {"ok": True}
    finally:
        h.close()


def test_readiness_flips_after_first_epoch(tmp_path):
    h = Harness(make_service(tmp_path, run_epochs=False))
    try:
        first = h.client.ready()
        assert first.status == 503
        assert first.payload["ready"] is False
        h.service.daemon.run_epoch()
        second = h.client.ready()
        assert second.ok
        assert second.payload["ready"] is True
    finally:
        h.close()


def test_placement_query(harness):
    response = harness.client.placement()
    assert response.ok
    assert response.payload["epoch"] == 2
    assert response.payload["done"] is True
    assert response.payload["stale"] is False
    assert isinstance(response.payload["placement"], list)


def test_cost_query(harness):
    response = harness.client.cost()
    assert response.ok
    assert response.payload["reads"] > 0
    assert 0.0 <= response.payload["availability"] <= 1.0


def test_bound_query_solves_then_caches(harness):
    first = harness.client.bound("general", qos=0.9)
    assert first.ok, first.payload
    assert first.payload["feasible"] is True
    assert first.payload["cached"] is False
    second = harness.client.bound("general", qos=0.9)
    assert second.ok
    assert second.payload["cached"] is True
    assert second.payload["lp_cost"] == first.payload["lp_cost"]
    stats = harness.client.stats().payload
    assert stats["cache"]["hits"] == 1
    assert stats["cache"]["misses"] == 1


def test_second_bound_solve_of_a_class_starts_warm(harness):
    """The per-class warm store hands the last solve's HiGHS snapshot to
    the next one, which enters setBasis without deriving statuses."""
    from repro.perf import PERF

    assert harness.client.bound("general", qos=0.9).ok
    warm0 = PERF.get("lp.simplex.warm_starts")
    derived0 = PERF.get("lp.basis.materialized")
    second = harness.client.bound("general", qos=0.8)
    assert second.ok, second.payload
    assert second.payload["cached"] is False
    assert PERF.get("lp.simplex.warm_starts") == warm0 + 1
    assert PERF.get("lp.basis.materialized") == derived0


def test_bound_query_validates_input(harness):
    assert harness.client.bound("no-such-class").status == 400
    assert harness.client.bound("general", qos=2.0).status == 400
    assert harness.client.bound("general", epoch=99).status == 400
    assert harness.client.query(kind="wat").status == 400
    assert harness.client._request("GET", "/nope").status == 404
    assert harness.client._request("GET", "/query").status == 405


def test_unknown_backend_is_rejected_before_any_work(harness):
    from repro.perf import PERF

    def build_counts():
        return PERF.get("form.build.vectorized")

    builds0, admitted0 = build_counts(), harness.service.admission.admitted
    for name in ("simplex", "bogus"):
        response = harness.client.bound("general", qos=0.9, backend=name)
        assert response.status == 400, response.payload
        assert name in response.payload["error"]
        assert {"auto", "scipy", "structure"} <= set(response.payload["known"])
        assert "simplex" not in response.payload["known"]
    assert build_counts() == builds0
    assert harness.service.admission.admitted == admitted0


def test_admission_sheds_with_retry_after(tmp_path):
    register_backend(
        SolverBackend(
            name="test-stall",
            solve=lambda model, **kw: time.sleep(2.0),
            description="stalls to hold an admission slot",
        )
    )
    h = Harness(
        make_service(tmp_path, admission=AdmissionQueue(limit=1, retry_after_s=0.25))
    )
    try:
        blocker = threading.Thread(
            target=lambda: h.client.bound("general", backend="test-stall", qos=0.5),
            daemon=True,
        )
        blocker.start()
        time.sleep(0.3)  # let the stalling solve occupy the only slot
        shed = h.client.bound("general", backend="test-stall", qos=0.6)
        assert shed.status == 429
        assert shed.retry_after_s == 0.25
        assert shed.payload["retry_after_s"] == 0.25
        blocker.join(10)
        assert h.service.admission.shed == 1
    finally:
        h.close()


def test_breaker_trips_and_serves_stale(tmp_path):
    register_backend(
        SolverBackend(
            name="test-broken",
            solve=lambda model, **kw: (_ for _ in ()).throw(RuntimeError("solver down")),
            description="always fails",
        )
    )
    h = Harness(
        make_service(tmp_path, breaker=CircuitBreaker(failure_threshold=2, cooldown_s=60.0))
    )
    try:
        # Populate last-known-good for the class with a healthy solve.
        good = h.client.bound("general", qos=0.9)
        assert good.ok
        for _ in range(2):
            assert h.client.bound("general", qos=0.95, backend="test-broken").status == 500
        assert h.service.breaker.state == "open"
        degraded = h.client.bound("general", qos=0.95, backend="test-broken")
        assert degraded.ok
        assert degraded.payload["stale"] is True
        assert degraded.payload["lp_cost"] == good.payload["lp_cost"]
        # A class with no LKG has nothing to degrade to.
        missing = h.client.bound("caching", qos=0.9)
        assert missing.status == 503
        stats = h.client.stats().payload
        assert stats["breaker"]["state"] == "open"
        assert stats["breaker"]["trips"] == 1
        assert stats["cache"]["stale_served"] == 1
    finally:
        h.close()


def test_deadline_expiry_is_504_and_counts_breaker_failure(tmp_path):
    register_backend(
        SolverBackend(
            name="test-slow",
            solve=lambda model, **kw: time.sleep(1.0),
            description="slower than any deadline",
        )
    )
    h = Harness(make_service(tmp_path, breaker=CircuitBreaker(failure_threshold=5)))
    try:
        response = h.client.bound("general", backend="test-slow", deadline_ms=100)
        assert response.status == 504
        assert h.service.breaker.failures_total == 1
        assert h.service.deadline_expired == 1
    finally:
        h.close()


def test_chaos_drop_closes_connection(tmp_path):
    h = Harness(make_service(tmp_path, chaos=ServiceChaos(drop=1.0)))
    try:
        with pytest.raises(ServiceConnectionError):
            h.client.health()
        assert h.service.dropped >= 1
    finally:
        h.close()


def test_single_flight_coalesces_identical_queries(tmp_path):
    calls = []

    def counting_solve(model, **kw):
        calls.append(1)
        time.sleep(0.4)
        from repro.lp.scipy_backend import solve_with_scipy

        return solve_with_scipy(model)

    register_backend(
        SolverBackend(name="test-count", solve=counting_solve, description="counts solves")
    )
    h = Harness(make_service(tmp_path))
    try:
        results = [None] * 4
        def issue(i):
            results[i] = h.client.bound("general", backend="test-count", qos=0.9)
        threads = [threading.Thread(target=issue, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
            time.sleep(0.02)  # arrive while the first solve is in flight
        for t in threads:
            t.join(20)
        assert all(r is not None and r.ok for r in results)
        assert len(calls) == 1, "identical in-flight queries must coalesce"
        assert h.service.coalesced == 3
    finally:
        h.close()


def test_stats_shape(harness):
    stats = harness.client.stats().payload
    assert {"requests", "admission", "breaker", "cache", "checkpoint", "perf"} <= set(stats)
    assert stats["checkpoint"]["journal_records"] >= 0
