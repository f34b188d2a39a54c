"""The auto backend and infeasibility diagnostics."""

import pytest

from repro.core.bounds import compute_lower_bound
from repro.core.properties import HeuristicProperties, ReplicaConstraint
from repro.lp import (
    LinearProgram,
    SolveStatus,
    diagnose_infeasibility,
)
from repro.lp.diagnose import constraint_family


def two_var_model():
    lp = LinearProgram()
    x = lp.var("x", obj=1.0)
    y = lp.var("y", obj=2.0)
    lp.add_row([x, y], [1.0, 1.0], ">=", 2.0, name="qos[all]")
    return lp


def infeasible_model():
    """qos demands 3 units but upper bounds cap the total at 2."""
    lp = LinearProgram()
    a = lp.var("a", obj=1.0, upper=1.0)
    b = lp.var("b", obj=1.0, upper=1.0)
    lp.add_row([a, b], [1.0, 1.0], ">=", 3.0, name="qos[all]")
    lp.add_row([a], [1.0], "<=", 0.5, name="sc[n0,i0]")
    return lp


# -- the auto backend --------------------------------------------------------


def test_auto_backend_prefers_scipy():
    sol = two_var_model().solve(backend="auto")
    assert sol.is_optimal
    assert sol.backend == "scipy"
    assert sol.objective == pytest.approx(2.0)


def test_auto_backend_raises_solver_crash(monkeypatch):
    # No second solver to fall back to: a crash surfaces to the caller
    # (the runner's retry policy, the service's breaker).
    import repro.lp.scipy_backend as scipy_backend

    def crashing(model, **kwargs):
        raise RuntimeError("HiGHS exploded")

    monkeypatch.setattr(scipy_backend, "solve_with_scipy", crashing)
    with pytest.raises(RuntimeError, match="HiGHS exploded"):
        two_var_model().solve(backend="auto")


def test_explicit_backends_still_selectable():
    assert two_var_model().solve(backend="scipy").backend == "scipy"
    for retired in ("simplex", "cplex"):
        with pytest.raises(ValueError, match="unknown LP backend"):
            two_var_model().solve(backend=retired)


def test_backends_agree_on_both_model_fixtures():
    # Pinned from the retired pure-Python simplex: optimal at 2.0, and
    # infeasible.
    for backend in ("auto", "scipy"):
        sol = two_var_model().solve(backend=backend)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(2.0, abs=1e-9)
        assert infeasible_model().solve(backend=backend).status is SolveStatus.INFEASIBLE


# -- family extraction -------------------------------------------------------


def test_constraint_family_parses_prefixes():
    assert constraint_family("qos[3]") == "qos"
    assert constraint_family("sc[n0,i2]") == "sc"
    assert constraint_family("route-one[n1,i0,k2]") == "route-one"
    assert constraint_family("c17") == "coupling"  # auto-generated name
    assert constraint_family("cover[n0,i0,k0]") == "cover"
    assert constraint_family("") == "coupling"


# -- diagnosis ---------------------------------------------------------------


@pytest.mark.parametrize("backend", ["scipy"])
def test_diagnosis_names_binding_family(backend):
    model = infeasible_model()
    assert model.solve(backend=backend).status is SolveStatus.INFEASIBLE
    diagnosis = diagnose_infeasibility(model, backend=backend)
    # Dropping the qos row restores feasibility; dropping sc alone does not
    # (the variable upper bounds still cap the total at 2 < 3).
    assert diagnosis.binding == ["qos"]
    assert diagnosis.families == {"qos": 1, "sc": 1}
    assert "qos" in diagnosis.render()


def test_diagnosis_on_bound_only_conflict_reports_unisolated():
    """A conflict living entirely in variable bounds names no family."""
    lp = LinearProgram()
    x = lp.var("x", obj=1.0, upper=1.0)
    lp.add_row([x], [1.0], ">=", 5.0, name="qos[0]")
    lp.add_row([x], [1.0], ">=", 4.0, name="rc[0]")
    # Both rows must go to restore feasibility? No — removing either leaves
    # the other demanding more than the bound allows.
    diagnosis = diagnose_infeasibility(lp)
    assert diagnosis.binding == []
    assert not diagnosis.isolated
    assert "no single constraint family" in diagnosis.render()


def test_compute_lower_bound_diagnoses_lp_infeasibility(small_topology, web_demand):
    """An unreachable replica constraint makes the LP (not the structure)
    infeasible; diagnose=True names the binding families in the reason."""
    from repro.core.costs import CostModel
    from repro.core.formulation import build_formulation
    from repro.core.goals import QoSGoal
    from repro.core.problem import MCPerfProblem

    problem = MCPerfProblem(
        topology=small_topology,
        demand=web_demand,
        goal=QoSGoal(tlat_ms=150.0, fraction=0.96),
        costs=CostModel.paper_defaults(),
    )
    props = HeuristicProperties(replica_constraint=ReplicaConstraint.UNIFORM)
    # Freeze the replica count at zero: origin-only service cannot reach the
    # goal, so the qos and rc families conflict.
    form = build_formulation(problem, props)
    assert form.rep_index is not None
    form.lp.set_bounds(form.rep_index, 0.0, 0.0)
    result = compute_lower_bound(
        problem, props, do_rounding=False, formulation=form, diagnose=True
    )
    assert not result.feasible
    assert result.status == "infeasible"
    assert "binding constraint families" in result.reason
    assert "diagnosis" in result.extras
