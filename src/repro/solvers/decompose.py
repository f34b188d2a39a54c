"""Per-object decomposition of MC-PERF.

Objects couple in the monolithic LP only through shared resource rows —
storage-capacity rows (16), uniform replica rows (17), node-opening
variables (13)/(14) — and through QoS rows whose scope aggregates objects
(``PER_USER`` / ``OVERALL``).  When none of the resource couplings are
present (:func:`decomposition_applicable`), the problem splits by object:

* **Separable scopes** (``PER_OBJECT`` / ``PER_USER_OBJECT``): every QoS
  row mentions a single object, so the instance is *exactly* the sum of
  independent per-object MC-PERF instances.  Each becomes a
  :class:`~repro.runner.tasks.BoundTask` solved through the existing
  :class:`~repro.runner.execute.ExperimentRunner` pool; bounds, roundings
  and stores are summed/stitched back together.

* **Aggregating scopes** (``PER_USER`` / ``OVERALL``): the per-scope QoS
  rows are the only coupling, so Dantzig–Wolfe column generation applies.
  A small master LP chooses convex combinations of per-object placement
  columns subject to the aggregate coverage rows (with big-M slacks);
  pricing relaxes each object subproblem's own QoS rows to zero and
  re-prices its covered variables by the master's coverage duals through
  the incremental patch API (`set_objective`), so pricing re-solves are
  assembly-free.  On convergence the master optimum equals the monolithic
  LP optimum; if the round cap is hit first, the best Lagrangian bound
  ``L(λ) = Σ_s λ_s·rhs_s + Σ_k min_x (c_k(x) − λ·g_k(x))`` is reported —
  still a valid lower bound, flagged via ``extras``.

The monolithic LP is never assembled on this path, which is what opens the
1000-node / million-request scale; decomposed results can be differentially
audited against the monolith via
:func:`repro.audit.differential.audit_backend_agreement`.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.bounds import LowerBoundResult, compute_lower_bound
from repro.core.evaluate import CostBreakdown
from repro.core.goals import GoalScope, QoSGoal
from repro.core.problem import MCPerfProblem
from repro.core.properties import (
    HeuristicProperties,
    ReplicaConstraint,
    StorageConstraint,
)
from repro.core.rounding import RoundingResult
from repro.lp.solution import SolveStatus
from repro.solvers.registry import BACKEND_AUTO, BACKEND_DECOMPOSED

#: Worker processes for the separable per-object fan-out (0 = pick).
JOBS_ENV = "REPRO_DECOMPOSE_JOBS"

#: Column-generation safety caps.
MAX_PRICING_ROUNDS = 40
REDUCED_COST_EPS = 1e-7
SLACK_TOL = 1e-6
INITIAL_BIG_M = 1e6
MAX_BIG_M_ESCALATIONS = 3

_SEPARABLE_SCOPES = (GoalScope.PER_OBJECT, GoalScope.PER_USER_OBJECT)

_INFEASIBLE_REASON = "LP relaxation infeasible: the class cannot meet the goal"


def decomposition_applicable(
    problem: MCPerfProblem, properties: Optional[HeuristicProperties] = None
) -> Tuple[bool, str]:
    """Whether the instance splits by object (no shared resource rows).

    Returns ``(ok, reason)``; ``reason`` names the coupling that blocks the
    split.  Know/Hist/React create fixings are fine — the sphere-of-
    knowledge aggregation is per-object.  ``ReplicaConstraint.PER_OBJECT``
    is fine too (one replica-count variable per object).
    """
    props = properties or HeuristicProperties()
    if not isinstance(problem.goal, QoSGoal):
        return False, "decomposition needs a QoS goal (routing rows couple via scopes)"
    if props.storage_constraint is not StorageConstraint.NONE:
        return False, "storage-capacity rows couple objects on each node"
    if props.replica_constraint is ReplicaConstraint.UNIFORM:
        return False, "the uniform replica-count variable couples objects"
    if problem.costs.zeta > 0:
        return False, "node-opening variables couple objects on each node"
    return True, ""


def _object_problem(problem: MCPerfProblem, obj: int) -> MCPerfProblem:
    """The single-object slice of ``problem`` (object ``obj`` becomes index 0)."""
    demand = problem.demand.restrict_objects([obj])
    initial = None
    if problem.initial_placement is not None:
        initial = np.asarray(problem.initial_placement)[:, [obj]]
    return dataclasses.replace(problem, demand=demand, initial_placement=initial)


def _resolve_jobs(jobs: Optional[int], num_tasks: int) -> int:
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get(JOBS_ENV, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    if num_tasks >= 8:
        return min(4, os.cpu_count() or 1)
    return 1


def _remap_scope_key(key: object, obj: int) -> object:
    """Translate a single-object subproblem's scope key back to the monolith's."""
    if isinstance(key, tuple):
        if len(key) == 2 and key[0] == "k":
            return ("k", obj)
        if len(key) == 2:
            return (key[0], obj)
    return key


def _zero_result(
    problem: MCPerfProblem, props: HeuristicProperties, do_rounding: bool, keep_store: bool
) -> LowerBoundResult:
    """The trivial bound for a demandless instance: store nothing, cost zero."""
    result = LowerBoundResult(
        properties=props,
        feasible=True,
        lp_cost=0.0,
        status="optimal",
        backend_used=BACKEND_DECOMPOSED,
    )
    shape = (
        len(problem.storer_ids()),
        problem.demand.num_intervals,
        problem.demand.num_objects,
    )
    if keep_store:
        result.store_lp = np.zeros(shape)
    if do_rounding:
        result.rounding = RoundingResult(
            store=np.zeros(shape),
            cost=CostBreakdown(),
            feasible=True,
            fractional_units=0,
            rounded_up=0,
            rounded_down=0,
            repaired=0,
        )
        result.feasible_cost = 0.0
    result.extras["decomposition"] = {"mode": "empty", "objects": 0}
    return result


def solve_decomposed(
    problem: MCPerfProblem,
    properties: Optional[HeuristicProperties] = None,
    do_rounding: bool = True,
    keep_store: bool = False,
    jobs: Optional[int] = None,
    audit: Optional[str] = None,
    audit_subject: str = "",
) -> LowerBoundResult:
    """Lower bound via per-object decomposition.

    Falls back to the monolithic ``auto`` path (with an ``extras`` note)
    when the instance has a coupling the decomposition cannot split, or
    when the Dantzig–Wolfe master cannot obtain duals (no scipy).
    """
    props = properties or HeuristicProperties()
    ok, reason = decomposition_applicable(problem, props)
    if not ok:
        result = compute_lower_bound(
            problem,
            props,
            do_rounding=do_rounding,
            backend=BACKEND_AUTO,
            keep_store=keep_store,
            audit=audit,
            audit_subject=audit_subject,
        )
        result.extras["decomposition_fallback"] = reason
        return result

    active = [int(k) for k in problem.demand.active_objects()]
    if not active:
        return _zero_result(problem, props, do_rounding, keep_store)

    t0 = time.perf_counter()
    if problem.goal.scope in _SEPARABLE_SCOPES:
        result = _solve_separable(problem, props, active, do_rounding, keep_store, jobs)
    else:
        result = _solve_dantzig_wolfe(problem, props, active, do_rounding, keep_store)
        if result is None:  # no duals available: the master cannot price
            result = compute_lower_bound(
                problem,
                props,
                do_rounding=do_rounding,
                backend=BACKEND_AUTO,
                keep_store=keep_store,
                audit=audit,
                audit_subject=audit_subject,
            )
            result.extras["decomposition_fallback"] = (
                "master LP produced no duals (scipy backend unavailable)"
            )
            return result
    result.solve_seconds = time.perf_counter() - t0

    from repro.audit import resolve_mode

    mode = resolve_mode(audit)
    converged = result.extras.get("decomposition", {}).get("converged", True)
    if mode != "off" and result.feasible and converged:
        from repro.audit import audit_backend_agreement, resolve_sample, selected_for_sample

        if mode == "full" and selected_for_sample(audit_subject, resolve_sample()):
            ta = time.perf_counter()
            result.audit = audit_backend_agreement(
                problem, props, result, mode=mode, subject=audit_subject
            )
            result.extras["audit_seconds"] = time.perf_counter() - ta
    return result


# -- separable scopes: independent per-object bounds -------------------------


def _solve_separable(
    problem: MCPerfProblem,
    props: HeuristicProperties,
    active: List[int],
    do_rounding: bool,
    keep_store: bool,
    jobs: Optional[int],
) -> LowerBoundResult:
    subs = [(k, _object_problem(problem, k)) for k in active]
    jobs = _resolve_jobs(jobs, len(subs))

    if jobs > 1 and not keep_store:
        from repro.runner.execute import ExperimentRunner
        from repro.runner.tasks import BoundTask

        tasks = [
            BoundTask(
                problem=sub,
                properties=props,
                do_rounding=do_rounding,
                backend=BACKEND_AUTO,
                label=f"object-{k}",
            )
            for k, sub in subs
        ]
        results = ExperimentRunner(jobs=jobs).map(tasks)
    else:
        results = [
            compute_lower_bound(
                sub,
                props,
                do_rounding=do_rounding,
                backend=BACKEND_AUTO,
                keep_store=keep_store,
            )
            for _k, sub in subs
        ]

    combined = LowerBoundResult(properties=props, feasible=True, lp_cost=0.0)
    combined.status = "optimal"
    combined.backend_used = BACKEND_DECOMPOSED
    combined.extras["decomposition"] = {
        "mode": "separable",
        "objects": len(active),
        "jobs": jobs,
    }
    shape = (
        len(problem.storer_ids()),
        problem.demand.num_intervals,
        problem.demand.num_objects,
    )
    store_lp = np.zeros(shape) if keep_store else None
    rounding_store = np.zeros(shape) if do_rounding else None
    cost = CostBreakdown()
    qos: Dict[object, float] = {}
    frac_units = up = down = repaired = legalized = 0
    rounding_feasible = True

    for (k, _sub), res in zip(subs, results):
        combined.num_variables += res.num_variables
        combined.num_constraints += res.num_constraints
        combined.round_seconds += res.round_seconds
        if not res.feasible:
            combined.feasible = False
            combined.lp_cost = None
            combined.status = res.status
            combined.reason = f"object {k}: {res.reason}"
            return combined
        combined.lp_cost += res.lp_cost
        if store_lp is not None and res.store_lp is not None:
            store_lp[:, :, k] = res.store_lp[:, :, 0]
        if do_rounding and res.rounding is not None:
            r = res.rounding
            rounding_store[:, :, k] = r.store[:, :, 0]
            cost.storage += r.cost.storage
            cost.creation += r.cost.creation
            cost.penalty += r.cost.penalty
            cost.writes += r.cost.writes
            cost.opening += r.cost.opening
            for name, value in r.cost.adjustments.items():
                cost.adjustments[name] = cost.adjustments.get(name, 0.0) + value
            frac_units += r.fractional_units
            up += r.rounded_up
            down += r.rounded_down
            repaired += r.repaired
            legalized += r.legalized
            rounding_feasible = rounding_feasible and r.feasible
            for key, value in r.qos.items():
                qos[_remap_scope_key(key, k)] = value

    combined.store_lp = store_lp
    if do_rounding:
        combined.rounding = RoundingResult(
            store=rounding_store,
            cost=cost,
            feasible=rounding_feasible,
            fractional_units=frac_units,
            rounded_up=up,
            rounded_down=down,
            repaired=repaired,
            legalized=legalized,
            qos=qos,
        )
        combined.feasible_cost = cost.total
        if not rounding_feasible:
            combined.extras["rounding_infeasible"] = True
    return combined


# -- aggregating scopes: Dantzig–Wolfe column generation ---------------------


class _ObjectPricer:
    """One object's pricing subproblem: its LP with QoS rows relaxed.

    Holds the formulation, the base objective vector, and the (row index,
    variable indices, coefficients) of each scope's QoS row so the master's
    duals can be folded into the covered-variable objectives in place.
    """

    def __init__(self, obj: int, form) -> None:
        self.obj = obj
        self.form = form
        self.base_obj = form.lp.to_arrays()[0].copy()
        self.constant = float(form.objective_constant)
        self.rows: Dict[object, Tuple[np.ndarray, np.ndarray]] = {}
        for key, (row, _denom, _const, _maxp) in form.qos_meta.items():
            if row < 0:
                continue
            con = form.lp.constraints[row]
            self.rows[key] = (
                np.asarray(con.indices, dtype=np.int64),
                np.asarray(con.coeffs, dtype=float),
            )
            form.lp.set_rhs(row, 0.0)  # relax: the master owns coverage

    def price(self, duals: Dict[object, float]):
        """Re-price covered variables by ``-λ_s·r`` and solve.

        Returns ``(z, cost, coverage)``: the patched optimum, the column's
        true cost ``c0·x + const`` and its per-scope coverage contributions.
        """
        lp = self.form.lp
        for key, (indices, coeffs) in self.rows.items():
            lam = duals.get(key, 0.0)
            for idx, coeff in zip(indices, coeffs):
                lp.set_objective(int(idx), self.base_obj[idx] - lam * coeff)
        # Re-pricing only patches objectives: the LP's retained HiGHS
        # instance re-solves hot from the previous round's basis.
        solution = lp.solve(backend=BACKEND_AUTO).require_optimal()
        values = np.asarray(solution.values, dtype=float)
        cost = float(self.base_obj @ values) + self.constant
        coverage = {
            key: float(coeffs @ values[indices])
            for key, (indices, coeffs) in self.rows.items()
        }
        return float(solution.objective), cost, coverage


def _aggregate_requirements(problem: MCPerfProblem, pricers) -> Tuple[dict, dict, dict]:
    """Monolith-level (denominator, origin-covered, max-coverable) per scope key.

    Demand cells are partitioned by object, so the monolithic QoS metadata
    is the per-object sum — the basis for the master's right-hand sides and
    the aggregate structural-feasibility check.
    """
    denom: Dict[object, float] = {}
    const: Dict[object, float] = {}
    maxp: Dict[object, float] = {}
    for pricer in pricers:
        for key, (_row, d, c, m) in pricer.form.qos_meta.items():
            denom[key] = denom.get(key, 0.0) + d
            const[key] = const.get(key, 0.0) + c
            maxp[key] = maxp.get(key, 0.0) + m
    return denom, const, maxp


def _remap_master_warm(prev_solution, prev_counts, counts, num_keys, num_rows):
    """Lift the previous master round's solution onto the new column layout.

    The master is rebuilt every round with per-object column blocks followed
    by one slack per scope key; pricing only *appends* columns inside each
    block, so old variable ``j`` of block ``i`` shifts by the number of new
    columns in earlier blocks.  Rows (one per key + one convexity per
    object) are unchanged.  Returns the previous round's
    :class:`~repro.lp.basis.Basis` remapped onto the new model, or None
    when it carried none or the layouts cannot be reconciled.
    """
    import numpy as np

    from repro.lp.basis import AT_LOWER, Basis

    if prev_solution is None or prev_counts is None:
        return None
    if len(prev_counts) != len(counts) or any(
        o > n for o, n in zip(prev_counts, counts)
    ):
        return None
    n_old = sum(prev_counts) + num_keys
    n_new = sum(counts) + num_keys
    # old var index -> new var index (block-wise shift; slacks at the end).
    index_map = np.empty(n_old, dtype=np.int64)
    old_at = new_at = 0
    for old_cnt, new_cnt in zip(prev_counts, counts):
        index_map[old_at : old_at + old_cnt] = new_at + np.arange(old_cnt)
        old_at += old_cnt
        new_at += new_cnt
    index_map[old_at:] = new_at + np.arange(num_keys)

    basis = getattr(prev_solution, "basis", None)
    if isinstance(basis, Basis) and basis.matches(n_old, num_rows):
        statuses = np.full(n_new + num_rows, AT_LOWER, dtype=np.int8)
        statuses[index_map] = basis.statuses[:n_old]
        statuses[n_new:] = basis.statuses[n_old:]
        return Basis(statuses=statuses, nvars=n_new, nrows=num_rows)
    return None


def _solve_master(pricers, columns, required, big_m, warm=None):
    """Build and solve the restricted master; return (solution, key rows, conv rows).

    ``columns[i]`` maps its object to a list of ``(cost, coverage)`` pairs;
    the master picks a convex combination per object subject to the
    aggregate coverage rows, with big-M slacks keeping it always feasible.
    ``warm`` is the previous round's remapped hint
    (:func:`_remap_master_warm`); new columns enter at their lower bound
    and the dual simplex re-prices them in a few pivots.
    """
    from repro.lp.model import LinearProgram
    from repro.solvers.registry import BACKEND_SCIPY

    lp = LinearProgram(name="dw-master")
    col_vars: List[List[int]] = []
    for pricer, cols in zip(pricers, columns):
        col_vars.append(
            [
                lp.var(f"w[k{pricer.obj},{j}]", upper=1.0, obj=cost).index
                for j, (cost, _cov) in enumerate(cols)
            ]
        )
    slack_vars = {key: lp.var(f"slack[{key}]", obj=big_m).index for key in required}

    key_rows: Dict[object, int] = {}
    for key, rhs in required.items():
        indices = [slack_vars[key]]
        coeffs = [1.0]
        for cols, vars_ in zip(columns, col_vars):
            for (_cost, cov), var in zip(cols, vars_):
                g = cov.get(key, 0.0)
                if g > 0.0:
                    indices.append(var)
                    coeffs.append(g)
        lp.add_row(indices, coeffs, ">=", rhs, name=f"qos[{key}]")
        key_rows[key] = lp.num_constraints - 1

    conv_rows: List[int] = []
    for vars_ in col_vars:
        lp.add_row(vars_, [1.0] * len(vars_), "==", 1.0, name=f"convex[{len(conv_rows)}]")
        conv_rows.append(lp.num_constraints - 1)

    solution = lp.solve(backend=BACKEND_SCIPY, warm_start=warm).require_optimal()
    slack_used = sum(float(solution.values[idx]) for idx in slack_vars.values())
    slack_cost = big_m * slack_used
    return solution, key_rows, conv_rows, slack_used, slack_cost


def _solve_dantzig_wolfe(
    problem: MCPerfProblem,
    props: HeuristicProperties,
    active: List[int],
    do_rounding: bool,
    keep_store: bool,
) -> Optional[LowerBoundResult]:
    """Column generation over per-object subproblems; None when duals are missing."""
    from repro.core.formulation import build_formulation

    goal = problem.goal
    result = LowerBoundResult(properties=props, feasible=False)
    result.backend_used = BACKEND_DECOMPOSED

    pricers: List[_ObjectPricer] = []
    columns: List[List[Tuple[float, Dict[object, float]]]] = []
    for k in active:
        form = build_formulation(_object_problem(problem, k), props)
        result.num_variables += form.lp.num_variables
        result.num_constraints += form.lp.num_constraints
        # Seed the master with the object's own-fraction column when the
        # object can meet the target alone: if every object can, their sum
        # meets the aggregate target and the master starts feasible.
        seeds: List[Tuple[float, Dict[object, float]]] = []
        if not form.structurally_infeasible:
            solution = form.lp.solve(backend=BACKEND_AUTO)
            if solution.status is SolveStatus.OPTIMAL:
                values = np.asarray(solution.values, dtype=float)
                base = form.lp.to_arrays()[0]
                cov = {}
                for key, (row, _d, _c, _m) in form.qos_meta.items():
                    if row < 0:
                        continue
                    con = form.lp.constraints[row]
                    idx = np.asarray(con.indices, dtype=np.int64)
                    cf = np.asarray(con.coeffs, dtype=float)
                    cov[key] = float(cf @ values[idx])
                seeds.append((float(base @ values) + float(form.objective_constant), cov))
        pricer = _ObjectPricer(k, form)  # relaxes the QoS rows in place
        seeds.append((pricer.constant, {}))  # the empty placement, always valid
        pricers.append(pricer)
        columns.append(seeds)

    denom, const, maxp = _aggregate_requirements(problem, pricers)
    required = {}
    for key, d in denom.items():
        if d <= 0:
            continue
        need = goal.fraction * d
        if maxp.get(key, 0.0) < need - 1e-9:
            result.status = "structurally-infeasible"
            result.reason = (
                f"goal scope {key!r}: at most {maxp.get(key, 0.0) / d:.5f} of "
                f"reads coverable, goal requires {goal.fraction:.5f}"
            )
            return result
        rhs = need - const.get(key, 0.0)
        if rhs > 1e-9:
            required[key] = rhs

    big_m = INITIAL_BIG_M
    escalations = 0
    best_bound = -np.inf
    rounds = 0
    converged = False
    master_obj = None
    prev_master = None
    prev_counts = None
    try:
        while rounds < MAX_PRICING_ROUNDS:
            rounds += 1
            counts = [len(cols) for cols in columns]
            warm = _remap_master_warm(
                prev_master, prev_counts, counts,
                num_keys=len(required), num_rows=len(required) + len(pricers),
            )
            solution, key_rows, conv_rows, slack_used, slack_cost = _solve_master(
                pricers, columns, required, big_m, warm=warm
            )
            prev_master, prev_counts = solution, counts
            if solution.duals is None:
                return None
            duals = {
                key: max(float(solution.duals[row]), 0.0)
                for key, row in key_rows.items()
            }
            mu = [float(solution.duals[row]) for row in conv_rows]
            master_obj = float(solution.objective) - slack_cost

            new_columns = 0
            lagrangian = sum(duals[key] * required[key] for key in required)
            for pricer, cols, mu_k in zip(pricers, columns, mu):
                z, cost, coverage = pricer.price(duals)
                lagrangian += z + pricer.constant
                if z + pricer.constant - mu_k < -REDUCED_COST_EPS:
                    cols.append((cost, coverage))
                    new_columns += 1
            best_bound = max(best_bound, lagrangian)

            if new_columns == 0:
                if slack_used > SLACK_TOL:
                    if escalations >= MAX_BIG_M_ESCALATIONS:
                        result.status = "infeasible"
                        result.reason = _INFEASIBLE_REASON
                        return result
                    escalations += 1
                    big_m *= 100.0
                    continue
                converged = True
                break
    except RuntimeError as exc:
        # A master/pricing solve failed outright; surface it like an LP error.
        result.status = "error"
        result.reason = f"decomposed solve failed: {exc}"
        return result

    result.feasible = True
    result.status = "optimal" if converged else "iteration-limit"
    # On convergence the master optimum *is* the monolithic LP optimum; at
    # the round cap only the Lagrangian dual value is a safe lower bound.
    result.lp_cost = master_obj if converged else max(best_bound, 0.0)
    result.extras["decomposition"] = {
        "mode": "dantzig-wolfe",
        "objects": len(active),
        "rounds": rounds,
        "columns": sum(len(cols) for cols in columns),
        "converged": converged,
    }
    if not converged:
        result.extras["decomposition_bound_gap"] = (
            None if master_obj is None else master_obj - result.lp_cost
        )
    if do_rounding:
        result.extras["rounding_skipped"] = (
            "aggregated-scope decomposition yields no monolithic LP point to round"
        )
    if keep_store:
        result.extras["store_skipped"] = (
            "aggregated-scope decomposition keeps no monolithic store matrix"
        )
    return result
