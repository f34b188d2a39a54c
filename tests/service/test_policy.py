"""The degrade ladder: admission, breaker, LKG store and per-tier accounting.

The unit tests drive :class:`DegradePolicy` with a fake clock; the
accounting test drives one live service through every outcome of the
ladder and checks that ``/stats`` counts what the client saw.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.perf import PERF
from repro.service import BreakerOpenError, DegradePolicy
from repro.service.policy import (
    ADMISSION_FULL,
    APPROX,
    BREAKER_COOLDOWN_S,
    BREAKER_FAILURES,
    BREAKER_OPEN,
    CLOSED,
    EXACT,
    HALF_OPEN,
    OPEN,
    RETRY_AFTER_S,
    STALE_TTL_S,
)
from repro.solvers.registry import SolverBackend, register_backend
from tests.service.test_server import Harness, make_service


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


def tripped(clock) -> DegradePolicy:
    policy = DegradePolicy(clock=clock)
    for _ in range(BREAKER_FAILURES):
        policy.record_failure()
    return policy


# -- admission --------------------------------------------------------------


def test_admits_up_to_limit_then_sheds_with_retry_after():
    policy = DegradePolicy(limit=2)
    assert policy.enter() is None
    assert policy.enter() is None
    assert policy.enter() == ADMISSION_FULL
    status, payload = policy.degrade("general", ADMISSION_FULL)
    assert status == 429 and payload["retry_after_s"] == RETRY_AFTER_S
    assert policy.status()["in_flight"] == 2
    assert policy.shed_by_cause == {ADMISSION_FULL: 1, BREAKER_OPEN: 0}


def test_leave_restores_capacity_and_refusals_take_none():
    policy = DegradePolicy(limit=1)
    assert policy.enter() is None
    for _ in range(3):
        assert policy.enter() == ADMISSION_FULL
    policy.leave()
    assert policy.enter() is None
    assert policy.admitted == 2
    policy.leave()
    policy.leave()  # an extra leave never drives the count negative
    assert policy.status()["in_flight"] == 0


def test_rejects_nonpositive_limit():
    with pytest.raises(ValueError):
        DegradePolicy(limit=0)


def test_slots_survive_concurrent_enter_and_leave():
    """Solver threads give slots back while the loop takes them: no lost update."""
    policy = DegradePolicy(limit=3)
    taken = [0] * 8

    def worker(i):
        for _ in range(2000):
            if policy.enter() is None:
                taken[i] += 1
                policy.leave()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert policy.status()["in_flight"] == 0
    assert policy.admitted == sum(taken) > 0


# -- the approx tier ----------------------------------------------------------


def test_solve_tier_tracks_admission_depth():
    policy = DegradePolicy(limit=4)
    assert policy.solve_tier() == EXACT
    policy.enter()
    assert policy.solve_tier() == EXACT  # 1/4 below the depth
    policy.enter()
    assert policy.solve_tier() == APPROX  # 2/4 at the depth
    policy.enter()
    policy.enter()
    assert policy.solve_tier() == APPROX and policy.enter() == ADMISSION_FULL
    for _ in range(3):
        policy.leave()
    assert policy.solve_tier() == EXACT


def test_answer_labels_and_counts_its_tier():
    policy = DegradePolicy()
    status, exact = policy.answer({"lp_cost": 2.0, "approx": False}, cached=False)
    assert status == 200
    assert (exact["tier"], exact["stale"], exact["cached"]) == (EXACT, False, False)
    _, approx = policy.answer({"lp_cost": 1.0, "approx": True}, cached=True)
    assert (approx["tier"], approx["cached"]) == (APPROX, True)
    assert policy.tiers == {"exact": 1, "approx": 1, "stale": 0, "shed": 0}


# -- the breaker ----------------------------------------------------------------


def test_stays_closed_below_threshold():
    policy = DegradePolicy()
    for _ in range(BREAKER_FAILURES - 1):
        policy.record_failure()
    assert policy.breaker == CLOSED
    assert policy.allow() and policy.enter() is None


def test_success_resets_the_failure_streak():
    policy = DegradePolicy()
    for _ in range(BREAKER_FAILURES - 1):
        policy.record_failure()
    policy.record_success()
    policy.record_failure()
    assert policy.breaker == CLOSED


def test_trips_at_threshold_and_refuses(clock):
    policy = tripped(clock)
    assert policy.breaker == OPEN
    assert not policy.allow()
    assert policy.enter() == BREAKER_OPEN
    assert policy.trips == 1 and policy.failures == BREAKER_FAILURES


def test_half_open_grants_exactly_one_probe(clock):
    policy = tripped(clock)
    clock.advance(BREAKER_COOLDOWN_S)
    assert policy.breaker == HALF_OPEN
    assert policy.enter() is None  # half-open admits the query; the guard picks the probe
    assert policy.allow()  # the probe slot
    assert not policy.allow()  # everyone else keeps being refused


def test_probe_success_closes(clock):
    policy = tripped(clock)
    clock.advance(BREAKER_COOLDOWN_S)
    assert policy.allow()
    policy.record_success()
    assert policy.breaker == CLOSED
    assert policy.allow()


def test_probe_failure_reopens_and_rearms_cooldown(clock):
    policy = tripped(clock)
    clock.advance(BREAKER_COOLDOWN_S)
    assert policy.allow()
    policy.record_failure()
    assert policy.breaker == OPEN
    assert policy.trips == 2
    clock.advance(BREAKER_COOLDOWN_S / 2)
    assert policy.breaker == OPEN
    clock.advance(BREAKER_COOLDOWN_S / 2)
    assert policy.breaker == HALF_OPEN


def test_guard_accounts_and_raises_fast_when_open(clock):
    with pytest.raises(BreakerOpenError):
        tripped(clock).guard("scipy", lambda: 42)
    policy = DegradePolicy()
    for _ in range(BREAKER_FAILURES):
        with pytest.raises(ValueError):
            policy.guard("scipy", lambda: (_ for _ in ()).throw(ValueError("solver died")))
    assert policy.breaker == OPEN


def test_guard_wired_through_solver_registry():
    """With the guard installed, LP dispatch trips and then refuses."""
    from repro.lp.model import LinearProgram
    from repro.solvers.registry import install_solve_guard, solve_lp

    policy = DegradePolicy()
    install_solve_guard(policy.guard)
    try:
        lp = LinearProgram()
        lp.var("x", obj=1.0)
        lp.add_row([0], [1.0], ">=", 1.0)
        result = solve_lp(lp, backend="scipy")
        assert result.objective == pytest.approx(1.0)
        assert policy.failures == 0
        for _ in range(BREAKER_FAILURES):
            with pytest.raises(Exception):
                solve_lp(None, backend="scipy")  # None model crashes the solver
        assert policy.breaker == OPEN
        with pytest.raises(BreakerOpenError):
            solve_lp(lp, backend="scipy")
    finally:
        install_solve_guard(None)


# -- the last-known-good store ------------------------------------------------


def test_stale_answer_respects_the_ttl_and_reports_its_age(clock):
    policy = DegradePolicy(clock=clock)
    assert policy.degrade("general", BREAKER_OPEN)[0] == 503  # nothing recorded yet
    policy.remember("general", {"cost": 1.5, "epoch": 1, "qos": 0.9})
    clock.advance(STALE_TTL_S - 1.0)
    status, payload = policy.degrade("general", BREAKER_OPEN)
    assert status == 200
    assert payload == {
        "cost": 1.5, "epoch": 1, "qos": 0.9, "cached": True, "stale": True,
        "tier": "stale", "age_s": STALE_TTL_S - 1.0, "cause": BREAKER_OPEN,
    }
    clock.advance(2.0)
    assert policy.degrade("general", ADMISSION_FULL)[0] == 429
    assert policy.tiers["stale"] == 1 and policy.tiers["shed"] == 2
    assert policy.stale_expired == 1


def test_fresh_result_resets_the_ttl_clock(clock):
    policy = DegradePolicy(clock=clock)
    policy.remember("general", {"cost": 1.0})
    clock.advance(STALE_TTL_S / 2 + 5.0)
    policy.remember("general", {"cost": 2.0})
    clock.advance(STALE_TTL_S / 2 + 5.0)  # past the TTL of the first, not of the newest
    status, payload = policy.degrade("general", ADMISSION_FULL)
    assert status == 200 and payload["cost"] == 2.0
    assert payload["age_s"] == STALE_TTL_S / 2 + 5.0


def test_lkg_is_per_class(clock):
    policy = DegradePolicy(clock=clock)
    policy.remember("gold", {"cost": 1.0})
    assert policy.degrade("bronze", BREAKER_OPEN)[0] == 503
    assert policy.degrade("gold", BREAKER_OPEN)[1]["cost"] == 1.0


def test_status_snapshot(clock):
    policy = DegradePolicy(limit=2, clock=clock)
    policy.remember("general", {"cost": 1.0})
    policy.enter()
    policy.answer({"approx": True}, cached=False)
    policy.degrade("general", ADMISSION_FULL)
    clock.advance(STALE_TTL_S + 1.0)
    policy.degrade("general", ADMISSION_FULL)
    assert policy.status() == {
        "limit": 2,
        "in_flight": 1,
        "admitted": 1,
        "breaker": CLOSED,
        "trips": 0,
        "failures": 0,
        "tiers": {"exact": 0, "approx": 1, "stale": 1, "shed": 1},
        "shed_by_cause": {ADMISSION_FULL: 1, BREAKER_OPEN: 0},
        "stale_expired": 1,
        "lkg_classes": ["general"],
    }


# -- one service through every outcome ----------------------------------------

#: The counters a bound response bumps: exactly one of them, once.
OUTCOME_COUNTERS = (
    "service.tier.exact", "service.tier.approx", "service.tier.stale",
    "service.tier.shed", "service.deadline", "service.error",
)


def test_every_ladder_outcome_is_counted_once_as_the_client_saw_it(tmp_path, clock):
    gate = threading.Event()

    def gated_solve(model, **kw):
        gate.wait(30)
        from repro.lp.scipy_backend import solve_with_scipy

        return solve_with_scipy(model)

    register_backend(SolverBackend(name="test-gate", solve=gated_solve, description="stalls"))
    register_backend(
        SolverBackend(
            name="test-broken",
            solve=lambda model, **kw: (_ for _ in ()).throw(RuntimeError("solver down")),
            description="always fails",
        )
    )
    h = Harness(make_service(tmp_path, policy=DegradePolicy(limit=4, clock=clock)))
    policy = h.service.policy
    seen = []

    def ask(cls, qos, **kw):
        before = {name: PERF.get(name) for name in OUTCOME_COUNTERS}
        response = h.client.bound(cls, qos=qos, **kw)
        bumped = {name: PERF.get(name) - n for name, n in before.items() if PERF.get(name) != n}
        assert len(bumped) == 1 and set(bumped.values()) == {1}, (response.payload, bumped)
        payload = response.payload
        if response.status == 200:
            assert payload["tier"] == ("stale" if payload["stale"] else
                                       "approx" if payload["approx"] else "exact")
            seen.append(payload["tier"])
        else:
            seen.append(response.status)
        return response

    def hold(slots):
        for _ in range(slots):
            assert policy.enter() is None

    def free(slots):
        for _ in range(slots):
            policy.leave()

    try:
        exact = ask("general", 0.9)
        assert exact.payload["tier"] == "exact"

        hold(2)  # half the limit in flight: past the approx depth
        assert ask("caching", 0.8).payload["tier"] == "approx"
        free(2)

        hold(4)  # admission full
        clock.advance(7.0)
        stale = ask("general", 0.7).payload
        assert (stale["tier"], stale["cause"], stale["age_s"]) == ("stale", ADMISSION_FULL, 7.0)
        assert (stale["epoch"], stale["qos"]) == (exact.payload["epoch"], 0.9)
        assert stale["lp_cost"] == exact.payload["lp_cost"]
        shed = ask("storage-constrained", 0.9)
        assert shed.status == 429 and shed.retry_after_s == RETRY_AFTER_S
        clock.advance(STALE_TTL_S)  # general's LKG is now 67 s old
        assert ask("general", 0.6).status == 429
        free(4)

        assert ask("general", 0.75).payload["tier"] == "exact"  # a fresh LKG
        assert ask("general", 0.55, backend="test-gate", deadline_ms=100).status == 504
        for _ in range(BREAKER_FAILURES - 1):
            assert ask("general", 0.95, backend="test-broken").status == 500
        assert policy.breaker == OPEN

        clock.advance(2.0)
        stale = ask("general", 0.85).payload
        assert (stale["tier"], stale["cause"], stale["age_s"]) == ("stale", BREAKER_OPEN, 2.0)
        assert stale["qos"] == 0.75
        assert ask("storage-constrained", 0.85).status == 503

        assert seen == ["exact", "approx", "stale", 429, 429, "exact", 504, 500, 500,
                        "stale", 503]
        stats = h.client.stats().payload
        block = stats["policy"]
        assert block["tiers"] == {
            "exact": seen.count("exact"), "approx": seen.count("approx"),
            "stale": seen.count("stale"), "shed": seen.count(429) + seen.count(503),
        }
        assert block["shed_by_cause"] == {
            ADMISSION_FULL: seen.count(429), BREAKER_OPEN: seen.count(503),
        }
        assert block["stale_expired"] == 1
        assert block["trips"] == 1 and block["failures"] == BREAKER_FAILURES
        assert block["in_flight"] == 1  # only the stalled solve still holds a slot
        assert stats["cache"]["deadline_expired"] == seen.count(504)
        assert stats["admission"] == {"shed": seen.count(429)}
        assert stats["brownout"] == {"approx_served": 1, "stale_served": 2}
    finally:
        gate.set()
        deadline = time.monotonic() + 30
        while policy.status()["in_flight"] and time.monotonic() < deadline:
            time.sleep(0.05)
        h.close()
