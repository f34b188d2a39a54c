"""Circuit breaker: trip, cooldown, half-open probe, registry guard."""

from __future__ import annotations

import pytest

from repro.service import BreakerOpenError, CircuitBreaker
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def tripped_breaker(threshold=3, cooldown=10.0):
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=threshold, cooldown_s=cooldown, clock=clock)
    for _ in range(threshold):
        breaker.record_failure()
    return breaker, clock


def test_stays_closed_below_threshold():
    breaker = CircuitBreaker(failure_threshold=3)
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == CLOSED
    assert breaker.allow()


def test_success_resets_the_failure_streak():
    breaker = CircuitBreaker(failure_threshold=2)
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    assert breaker.state == CLOSED


def test_trips_at_threshold_and_refuses():
    breaker, _clock = tripped_breaker()
    assert breaker.state == OPEN
    assert not breaker.allow()
    assert breaker.trips == 1
    assert breaker.refused == 1


def test_half_open_grants_exactly_one_probe():
    breaker, clock = tripped_breaker(cooldown=10.0)
    clock.advance(10.0)
    assert breaker.state == HALF_OPEN
    assert breaker.allow()  # the probe slot
    assert not breaker.allow()  # everyone else keeps being refused


def test_probe_success_closes():
    breaker, clock = tripped_breaker()
    clock.advance(10.0)
    assert breaker.allow()
    breaker.record_success()
    assert breaker.state == CLOSED
    assert breaker.allow()


def test_probe_failure_reopens_and_rearms_cooldown():
    breaker, clock = tripped_breaker()
    clock.advance(10.0)
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == OPEN
    assert breaker.trips == 2
    clock.advance(5.0)  # half a cooldown: still open
    assert breaker.state == OPEN
    clock.advance(5.0)
    assert breaker.state == HALF_OPEN


def test_call_accounts_and_raises_fast_when_open():
    breaker, _clock = tripped_breaker()
    with pytest.raises(BreakerOpenError):
        breaker.call(lambda: 42)
    breaker2 = CircuitBreaker(failure_threshold=1)
    with pytest.raises(ValueError):
        breaker2.call(lambda: (_ for _ in ()).throw(ValueError("solver died")))
    assert breaker2.state == OPEN


def test_guard_wired_through_solver_registry():
    """With the guard installed, LP dispatch trips and then refuses."""
    from repro.lp.model import LinearProgram
    from repro.solvers.registry import install_solve_guard, solve_lp

    breaker = CircuitBreaker(failure_threshold=2)
    install_solve_guard(breaker.guard)
    try:
        lp = LinearProgram()
        lp.var("x", obj=1.0)
        lp.add_row([0], [1.0], ">=", 1.0)
        result = solve_lp(lp, backend="scipy")
        assert result.objective == pytest.approx(1.0)
        assert breaker.successes == 1
        for _ in range(2):
            with pytest.raises(Exception):
                solve_lp(None, backend="scipy")  # None model crashes the solver
        assert breaker.state == OPEN
        with pytest.raises(BreakerOpenError):
            solve_lp(lp, backend="scipy")
    finally:
        install_solve_guard(None)


def test_status_snapshot():
    breaker, _clock = tripped_breaker()
    status = breaker.status()
    assert status["state"] == OPEN
    assert status["trips"] == 1
    assert status["failures"] == 3
