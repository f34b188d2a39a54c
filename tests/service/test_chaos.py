"""REPRO_SERVICE_CHAOS parsing and deterministic draws."""

from __future__ import annotations

import pytest

from repro.service import SERVICE_CHAOS_ENV, ServiceChaos, parse_service_chaos


def test_unset_means_no_chaos(monkeypatch):
    monkeypatch.delenv(SERVICE_CHAOS_ENV, raising=False)
    assert parse_service_chaos() is None
    assert parse_service_chaos("") is None


def test_parse_full_spec():
    chaos = parse_service_chaos(
        "drop:p=0.25,seed=9;slow:p=0.5,ms=200,seed=9;crash:epoch=2;crash:checkpoint=3"
    )
    assert chaos == ServiceChaos(
        drop=0.25,
        slow=0.5,
        slow_ms=200.0,
        crash_at_epoch=2,
        crash_checkpoint_at=3,
        seed=9,
    )


def test_parse_reads_environment(monkeypatch):
    monkeypatch.setenv(SERVICE_CHAOS_ENV, "drop:p=0.5,seed=2")
    chaos = parse_service_chaos()
    assert chaos is not None
    assert chaos.drop == 0.5
    assert chaos.seed == 2


@pytest.mark.parametrize("raw", ["nope=1", "drop", "drop=abc", "=0.5"])
def test_bad_clause_raises(raw):
    with pytest.raises(ValueError):
        parse_service_chaos(raw)


def test_draws_are_deterministic_and_seed_sensitive():
    a = ServiceChaos(drop=0.5, seed=1)
    b = ServiceChaos(drop=0.5, seed=1)
    c = ServiceChaos(drop=0.5, seed=2)
    outcomes_a = [a.should_drop(i) for i in range(64)]
    assert outcomes_a == [b.should_drop(i) for i in range(64)]
    assert outcomes_a != [c.should_drop(i) for i in range(64)]
    # Drop and slow draws are independent sites.
    chaos = ServiceChaos(drop=0.5, slow=0.5, seed=1)
    assert [chaos.should_drop(i) for i in range(64)] != [
        chaos.should_slow(i) for i in range(64)
    ]


def test_rate_roughly_matches_probability():
    chaos = ServiceChaos(drop=0.3, seed=7)
    rate = sum(chaos.should_drop(i) for i in range(2000)) / 2000
    assert 0.25 < rate < 0.35


def test_zero_probability_never_fires():
    chaos = ServiceChaos()
    assert not any(chaos.should_drop(i) for i in range(100))
    assert not any(chaos.should_slow(i) for i in range(100))
    # Disabled crash epochs (-1) never match a real index.
    chaos.maybe_crash_epoch(0)
    chaos.maybe_crash_checkpoint(0)
