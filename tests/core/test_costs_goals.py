"""Tests for the cost model and performance goals."""

import math

import pytest

from repro.core.costs import CostModel
from repro.core.goals import AverageLatencyGoal, GoalScope, QoSGoal
from repro.errors import ValidationError

NON_FINITE = [math.nan, math.inf, -math.inf]


def test_paper_defaults():
    c = CostModel.paper_defaults()
    assert (c.alpha, c.beta) == (1.0, 1.0)
    assert (c.gamma, c.delta, c.zeta) == (0.0, 0.0, 0.0)


def test_deployment_defaults():
    c = CostModel.deployment_defaults()
    assert c.zeta == 10_000.0


def test_with_zeta_preserves_others():
    c = CostModel(alpha=2.0, beta=3.0, gamma=1.0).with_zeta(7.0)
    assert (c.alpha, c.beta, c.gamma, c.zeta) == (2.0, 3.0, 1.0, 7.0)


@pytest.mark.parametrize("field", ["alpha", "beta", "gamma", "delta", "zeta"])
def test_negative_costs_rejected(field):
    with pytest.raises(ValueError, match=field):
        CostModel(**{field: -1.0})


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("field", ["alpha", "beta", "gamma", "delta", "zeta"])
def test_non_finite_costs_rejected(field, value):
    with pytest.raises(ValidationError, match=f"^{field} must be finite"):
        CostModel(**{field: value})


def test_cost_model_frozen():
    c = CostModel()
    with pytest.raises(Exception):
        c.alpha = 5.0  # type: ignore[misc]


def test_qos_goal_validation():
    goal = QoSGoal(tlat_ms=150.0, fraction=0.99)
    assert goal.scope is GoalScope.PER_USER
    with pytest.raises(ValueError):
        QoSGoal(tlat_ms=-1.0, fraction=0.5)
    with pytest.raises(ValueError):
        QoSGoal(tlat_ms=100.0, fraction=0.0)
    with pytest.raises(ValueError):
        QoSGoal(tlat_ms=100.0, fraction=1.5)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("field", ["tlat_ms", "fraction"])
def test_qos_goal_non_finite_rejected(field, value):
    kwargs = {"tlat_ms": 150.0, "fraction": 0.9, field: value}
    with pytest.raises(ValidationError, match=f"^{field} must be finite"):
        QoSGoal(**kwargs)
    # A ValueError too, so every existing ``except ValueError`` catches it.
    with pytest.raises(ValueError):
        QoSGoal(**kwargs)


def test_qos_goal_scope_coercion():
    goal = QoSGoal(tlat_ms=100.0, fraction=0.9, scope="overall")
    assert goal.scope is GoalScope.OVERALL


def test_qos_goal_describe():
    text = QoSGoal(tlat_ms=250.0, fraction=0.99).describe()
    assert "250" in text and "99" in text


def test_avg_goal_defaults_tlat_to_tavg():
    goal = AverageLatencyGoal(tavg_ms=200.0)
    assert goal.tlat_ms == 200.0


def test_avg_goal_explicit_tlat():
    goal = AverageLatencyGoal(tavg_ms=200.0, tlat_ms=150.0)
    assert goal.tlat_ms == 150.0


def test_avg_goal_validation():
    with pytest.raises(ValueError):
        AverageLatencyGoal(tavg_ms=-5.0)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("field", ["tavg_ms", "tlat_ms"])
def test_avg_goal_non_finite_rejected(field, value):
    kwargs = {"tavg_ms": 200.0, field: value}
    with pytest.raises(ValidationError, match=f"^{field} must be finite"):
        AverageLatencyGoal(**kwargs)


def test_avg_goal_describe():
    assert "200" in AverageLatencyGoal(tavg_ms=200.0).describe()
