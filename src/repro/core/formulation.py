"""The MC-PERF LP/IP formulation (§3, §4).

:func:`build_formulation` lowers a :class:`~repro.core.problem.MCPerfProblem`
plus a set of :class:`~repro.core.properties.HeuristicProperties` into a
:class:`~repro.lp.model.LinearProgram` whose LP relaxation optimum is the
class's lower bound.

Mapping from the paper's constraints:

* (1) objective — alpha/beta on store/create variables (capacity-charged
  under SC/RC, see DESIGN.md §5), plus delta write costs and gamma penalties.
* (2) QoS rows per goal scope; (7)–(10) routing rows for the average goal.
* (3)/(4) create-coupling rows with empty (or given) initial placement.
* (5)/(18) covered rows over the class's reach matrix.
* (6) relaxed to bounds [0, 1].
* (16)/(16a) storage-constraint rows against capacity variables.
* (17)/(17a) replica-constraint rows against replica-count variables.
* (20)/(20a)/(21) — Know/Hist/React reduce to fixing create variables to 0,
  implemented as *omitting* those variables and forcing store monotonicity.
* (13)/(14)/(15) node-opening variables when ``costs.zeta > 0`` or the
  deployment driver asks for them.

Variable pruning (results are unaffected; see unit tests against the
unpruned formulation): objects with no demand get no variables; a storer
gets variables for object k only if it can serve some demander of k; covered
variables exist only for demand cells not already covered by the origin.
Under a QoS goal a storer's store/create chain for object k further spans
only its demand window (:func:`compute_store_window`): from the last
permitted creation at or before its first coverable read to its last one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.goals import AverageLatencyGoal, QoSGoal, scope_key
from repro.core.problem import MCPerfProblem, PlacementInstance
from repro.core.properties import (
    HeuristicProperties,
    ReplicaConstraint,
    StorageConstraint,
)
from repro.lp.model import LinearProgram
from repro.perf import PERF


@dataclass
class Formulation:
    """An assembled MC-PERF LP plus the index structures to interpret it."""

    lp: LinearProgram
    problem: MCPerfProblem
    properties: HeuristicProperties
    instance: PlacementInstance
    store_idx: np.ndarray  # (Ns, I, K) int32, -1 where absent
    create_idx: np.ndarray  # (Ns, I, K) int32, -1 where absent
    covered_idx: np.ndarray  # (Nd, I, K) int32, -1 where absent
    active_objects: np.ndarray
    allowed_create: Optional[np.ndarray]  # (Ns, I, K) bool, None = unrestricted
    objective_constant: float = 0.0
    structurally_infeasible: bool = False
    infeasible_reason: str = ""
    cap_index: Optional[int] = None  # SC uniform capacity variable
    cap_node_index: Optional[np.ndarray] = None  # (Ns,) SC per-node, -1 absent
    rep_index: Optional[int] = None  # RC uniform replica-count variable
    rep_object_index: Optional[np.ndarray] = None  # (K,) RC per-object, -1 absent
    open_index: Optional[np.ndarray] = None  # (Ns,) opening variables, -1 absent
    route_idx: Dict[Tuple[int, int, int], Tuple[np.ndarray, np.ndarray, int]] = field(
        default_factory=dict
    )
    # QoS-row metadata for set_qos_fraction(): scope key ->
    # (row index or -1, total reads, origin-covered reads, max coverable).
    qos_meta: Dict[object, Tuple[int, float, float, float]] = field(default_factory=dict)

    # -- solution accessors --------------------------------------------------

    def store_array(self, values) -> np.ndarray:
        """Extract the (Ns, I, K) store matrix from a solution vector."""
        out = np.zeros(self.store_idx.shape, dtype=float)
        mask = self.store_idx >= 0
        out[mask] = np.asarray(values)[self.store_idx[mask]]
        return out

    def create_array(self, values) -> np.ndarray:
        """Extract the (Ns, I, K) create matrix from a solution vector."""
        out = np.zeros(self.create_idx.shape, dtype=float)
        mask = self.create_idx >= 0
        out[mask] = np.asarray(values)[self.create_idx[mask]]
        return out

    def covered_array(self, values) -> np.ndarray:
        """Extract the (Nd, I, K) covered matrix (1.0 where origin-covered)."""
        inst = self.instance
        out = np.zeros(self.covered_idx.shape, dtype=float)
        mask = self.covered_idx >= 0
        out[mask] = np.asarray(values)[self.covered_idx[mask]]
        # Demand covered by the origin is covered by definition.
        for nd in range(inst.num_demanders):
            if inst.origin_covers[nd]:
                out[nd][inst.reads[nd] > 0] = 1.0
        return out

    def open_values(self, values) -> Optional[np.ndarray]:
        if self.open_index is None:
            return None
        out = np.zeros(len(self.open_index), dtype=float)
        for ns, idx in enumerate(self.open_index):
            if idx >= 0:
                out[ns] = float(values[idx])
        return out

    def bound_cost(self, solution) -> float:
        """LP objective plus the constant part (gamma penalties)."""
        return float(solution.objective) + self.objective_constant

    def qos_shadow_prices(self, solution) -> Dict[object, float]:
        """Marginal cost of tightening each scope's QoS requirement.

        For scope key ``s`` the returned value is d(bound)/d(fraction) —
        "what would one more unit of required coverage fraction cost" —
        taken from the LP duals of the QoS rows.  Keys whose row is not
        binding (or absent) report 0.  Empty when the backend returned no
        duals.
        """
        if solution.duals is None:
            return {}
        prices: Dict[object, float] = {}
        for key, (row, denom, _const, _maxp) in self.qos_meta.items():
            if row >= 0:
                # rhs = fraction * denom - const, so d rhs / d fraction = denom.
                prices[key] = float(solution.duals[row]) * denom
            else:
                prices[key] = 0.0
        return prices

    def set_qos_fraction(self, fraction: float) -> None:
        """Re-target the QoS rows to a new fraction without rebuilding.

        QoS sweeps (Figures 1-3) call this to reuse one formulation per
        class across all sweep levels; only the constraint right-hand sides
        and the structural-feasibility flags change, so the next solve
        hot-starts from the LP's retained HiGHS instance.
        """
        import dataclasses

        from repro.core.goals import QoSGoal

        if not isinstance(self.problem.goal, QoSGoal):
            raise TypeError("set_qos_fraction needs a QoS-goal formulation")
        if not self.qos_meta:
            raise RuntimeError("formulation carries no QoS rows to re-target")
        goal = dataclasses.replace(self.problem.goal, fraction=fraction)
        self.problem = dataclasses.replace(self.problem, goal=goal)
        self.structurally_infeasible = False
        self.infeasible_reason = ""
        PERF.count("form.retarget")
        for key, (row, denom, const, max_possible) in self.qos_meta.items():
            required = fraction * denom
            if row >= 0:
                # Patch API: keeps the cached solver arrays in sync so the
                # next solve at this level is assembly-free.
                self.lp.set_rhs(row, required - const)
            if max_possible < required - 1e-9:
                self.structurally_infeasible = True
                self.infeasible_reason = (
                    f"goal scope {key!r}: at most {max_possible / denom:.5f} of "
                    f"reads coverable, goal requires {fraction:.5f}"
                )


def compute_allowed_create(
    instance: PlacementInstance, props: HeuristicProperties
) -> Optional[np.ndarray]:
    """The (Ns, I, K) mask of creations permitted by Know/Hist/React.

    ``allowed[ns, i, k]`` is True when some demander in storer ns's sphere of
    knowledge accessed object k within the class's activity-history window —
    the paper's constraint (20) (proactive) or (20a)/(21) (reactive).
    Returns None when the class does not restrict creation.
    """
    if not props.restricts_creation:
        return None
    accessed = (instance.reads > 0).astype(np.int8)  # (Nd, I, K)
    # sphere[ns, i, k] = any demander in ns's sphere accessed k in interval i.
    sphere = np.einsum("sd,dik->sik", instance.know, accessed) > 0
    ns_count, intervals, objects = sphere.shape

    window = props.history_window
    allowed = np.zeros_like(sphere)
    # Prefix-OR via cumulative sums so both bounded and unbounded windows are
    # O(Ns * I * K).
    cum = np.cumsum(sphere.astype(np.int64), axis=1)  # accesses in [0 .. i]

    def seen_between(lo: int, hi: int) -> np.ndarray:
        """sphere accessed in intervals [lo, hi] (bool, per (ns, k))."""
        if hi < 0 or lo > hi:
            return np.zeros((ns_count, objects), dtype=bool)
        lo = max(lo, 0)
        upper = cum[:, hi, :]
        lower = cum[:, lo - 1, :] if lo > 0 else 0
        return (upper - lower) > 0

    for i in range(intervals):
        if props.reactive:
            hi = i - 1
            lo = 0 if window is None else i - window
        else:
            hi = i
            lo = 0 if window is None else i - window + 1
        allowed[:, i, :] = seen_between(lo, hi)

    # Constraint (21): an initial placement counts as history for reactive
    # heuristics whose window still covers the virtual interval -1.
    if props.reactive and instance.initial_store is not None:
        horizon = intervals if window is None else min(window, intervals)
        init = instance.initial_store > 0
        for i in range(horizon):
            allowed[:, i, :] |= init
    return allowed


def compute_store_window(
    instance: PlacementInstance, allowed: Optional[np.ndarray]
) -> np.ndarray:
    """The (Ns, I, K) mask of store cells that can lower a QoS-goal cost.

    ``use[ns, i, k]`` holds when some demander that storer ns reaches, and
    that the origin does not cover, has a goal read of k in interval i —
    exactly the cells where ``store`` enters a cover row (5)/(18).  A cell
    is kept when it lies between the (ns, k) pair's first and last use.
    The first interval moves back to the latest permitted creation at or
    before it (``allowed``; to 0 when there is none), and to 0 when an
    initial replica exists.  Pairs without any use get no cells.

    Outside the window a store cell only adds alpha or delta*writes (both
    non-negative) and loosens the sc/rc/open rows and the next coupling
    row: zeroing it, and raising ``create`` at the window's first interval
    to its store value, keeps any point feasible at no higher cost.  So
    the LP bound and the integral optimum are both unchanged.
    """
    reads = instance.qos_reads()
    nd_count, intervals, objects = reads.shape
    demand = (reads > 0) & (instance.origin_covers == 0)[:, None, None]
    use = (
        instance.reach.T.astype(np.int64)
        @ demand.reshape(nd_count, -1).astype(np.int64)
    ).reshape(-1, intervals, objects) > 0
    steps = np.arange(intervals)[None, :, None]
    first = np.argmax(use, axis=1)  # (Ns, K); 0 for unused pairs
    last = intervals - 1 - np.argmax(use[:, ::-1, :], axis=1)
    if allowed is not None:
        latest = np.maximum.accumulate(np.where(allowed, steps, -1), axis=1)
        first = np.maximum(np.take_along_axis(latest, first[:, None, :], axis=1)[:, 0, :], 0)
    if instance.initial_store is not None:
        first = np.where(instance.initial_store > 0, 0, first)
    window = (steps >= first[:, None, :]) & (steps <= last[:, None, :])
    return window & use.any(axis=1)[:, None, :]


def build_formulation(
    problem: MCPerfProblem,
    properties: Optional[HeuristicProperties] = None,
    with_open_vars: Optional[bool] = None,
    assembly: str = "vectorized",
) -> Formulation:
    """Assemble the MC-PERF LP for one heuristic class.

    Parameters
    ----------
    problem:
        The system/workload/goal/cost specification.
    properties:
        The heuristic class's properties; ``None`` builds the general bound.
    with_open_vars:
        Force node-opening variables on/off; by default they are created
        iff ``problem.costs.zeta > 0``.
    assembly:
        ``"vectorized"`` (default) builds the bulk row families as NumPy
        blocks (:mod:`repro.core.assembly`); ``"legacy"`` keeps the
        row-by-row builder.  Both produce the same model — the legacy path
        exists as the equivalence-test oracle and a debugging fallback.
    """
    if assembly == "vectorized":
        from repro.core.assembly import build_formulation_vectorized

        PERF.count("form.build.vectorized")
        with PERF.timer("form.build"):
            return build_formulation_vectorized(problem, properties, with_open_vars)
    if assembly != "legacy":
        raise ValueError(f"unknown assembly mode: {assembly!r}")
    PERF.count("form.build.legacy")
    with PERF.timer("form.build"):
        return _build_formulation_legacy(problem, properties, with_open_vars)


def _build_formulation_legacy(
    problem: MCPerfProblem,
    properties: Optional[HeuristicProperties] = None,
    with_open_vars: Optional[bool] = None,
) -> Formulation:
    """The original row-by-row builder (the vectorized path's oracle)."""
    props = properties or HeuristicProperties()
    inst = problem.instance(props)
    costs = problem.costs
    goal = problem.goal
    nd_count, intervals, objects = inst.reads.shape
    ns_count = inst.num_storers
    use_open = with_open_vars if with_open_vars is not None else costs.zeta > 0

    lp = LinearProgram(name=f"mcperf[{props.describe()}]")

    reads = inst.qos_reads()  # warm-up reads drive history, not the goal
    demanded = reads.sum(axis=1) > 0  # (Nd, K): nd ever reads k (post warm-up)
    read_active = np.nonzero(reads.sum(axis=(0, 1)) > 0)[0]

    if isinstance(goal, AverageLatencyGoal):
        # Any storer a demander may fetch from is useful, regardless of Tlat.
        useful = (inst.serve.T.astype(np.int64) @ demanded.astype(np.int64)) > 0
    else:
        useful = (inst.reach.T.astype(np.int64) @ demanded.astype(np.int64)) > 0
    # Objects with writes but no reads still never benefit from replicas
    # (writes only add cost), so only read-active objects get variables.

    allowed = compute_allowed_create(inst, props)
    # A storer can hold k during i only if creation was permitted at some
    # j <= i (or an initial replica exists): store variables outside this
    # cumulative support are identically zero and are pruned, which also
    # makes the structural QoS-coverage check below exact.
    possible = None
    if allowed is not None:
        possible = np.logical_or.accumulate(allowed, axis=1)
        if inst.initial_store is not None:
            possible |= (inst.initial_store > 0)[:, None, :]
    # QoS goals keep only each (storer, object)'s demand window; the
    # average-latency routing rows (7)-(10) keep every cell.
    window = compute_store_window(inst, allowed) if isinstance(goal, QoSGoal) else None
    pruned = 0

    sc = props.storage_constraint
    rc = props.replica_constraint
    # Storage accounting: provisioned capacity under SC, replica-count
    # capacity under RC, per-store-interval otherwise (DESIGN.md §5).
    if sc is not StorageConstraint.NONE:
        store_alpha = 0.0
    elif rc is not ReplicaConstraint.NONE:
        store_alpha = 0.0
    else:
        store_alpha = costs.alpha

    writes_per_ik = inst.writes.sum(axis=0)  # (I, K): update messages per replica

    store_idx = np.full((ns_count, intervals, objects), -1, dtype=np.int64)
    create_idx = np.full((ns_count, intervals, objects), -1, dtype=np.int64)
    covered_idx = np.full((nd_count, intervals, objects), -1, dtype=np.int64)

    # --- store / create variables ------------------------------------------
    for k in read_active:
        for ns in range(ns_count):
            if not useful[ns, k]:
                continue
            for i in range(intervals):
                if possible is not None and not possible[ns, i, k]:
                    continue
                if window is not None and not window[ns, i, k]:
                    pruned += 1
                    continue
                obj_coeff = store_alpha + costs.delta * writes_per_ik[i, k]
                store_idx[ns, i, k] = lp.var(
                    f"store[n{ns},i{i},k{k}]", upper=1.0, obj=obj_coeff
                ).index
                if allowed is None or allowed[ns, i, k]:
                    create_idx[ns, i, k] = lp.var(
                        f"create[n{ns},i{i},k{k}]", upper=1.0, obj=costs.beta
                    ).index
    if window is not None:
        PERF.count("form.store.pruned", pruned)

    # --- create coupling (3)/(4) --------------------------------------------
    init = inst.initial_store
    for k in read_active:
        for ns in range(ns_count):
            init_val = float(init[ns, k]) if init is not None else 0.0
            for i in range(intervals):
                s_cur = store_idx[ns, i, k]
                if s_cur < 0:
                    continue
                c_cur = create_idx[ns, i, k]
                s_prev = store_idx[ns, i - 1, k] if i > 0 else -1
                if s_prev < 0:
                    # First interval where storage is possible: the previous
                    # store is the initial placement (constraint (4)).
                    if c_cur >= 0:
                        lp.add_row([s_cur, c_cur], [1.0, -1.0], "<=", init_val)
                    else:
                        lp.set_bounds(s_cur, 0.0, min(1.0, init_val))
                else:
                    if c_cur >= 0:
                        lp.add_row([s_cur, s_prev, c_cur], [1.0, -1.0, -1.0], "<=", 0.0)
                    else:
                        lp.add_row([s_cur, s_prev], [1.0, -1.0], "<=", 0.0)

    # --- storage constraint (16)/(16a) ---------------------------------------
    cap_index = None
    cap_node_index = None
    if sc is StorageConstraint.UNIFORM:
        cap_index = lp.var("capacity", obj=costs.alpha * ns_count * intervals).index
    elif sc is StorageConstraint.PER_NODE:
        cap_node_index = np.full(ns_count, -1, dtype=np.int64)
        for ns in range(ns_count):
            if (store_idx[ns] >= 0).any():
                cap_node_index[ns] = lp.var(
                    f"capacity[n{ns}]", obj=costs.alpha * intervals
                ).index
    if sc is not StorageConstraint.NONE:
        for ns in range(ns_count):
            cap = cap_index if cap_index is not None else (
                cap_node_index[ns] if cap_node_index is not None else -1
            )
            if cap is None or cap < 0:
                continue
            for i in range(intervals):
                idxs = [store_idx[ns, i, k] for k in read_active if store_idx[ns, i, k] >= 0]
                if not idxs:
                    continue
                lp.add_row(
                    idxs + [int(cap)],
                    [1.0] * len(idxs) + [-1.0],
                    "<=",
                    0.0,
                    name=f"sc[n{ns},i{i}]",
                )

    # --- replica constraint (17)/(17a) ----------------------------------------
    rep_index = None
    rep_object_index = None
    charge_rc = rc is not ReplicaConstraint.NONE and sc is StorageConstraint.NONE
    if rc is ReplicaConstraint.UNIFORM:
        rep_obj = costs.alpha * intervals * len(read_active) if charge_rc else 0.0
        rep_index = lp.var("replicas", obj=rep_obj).index
    elif rc is ReplicaConstraint.PER_OBJECT:
        rep_object_index = np.full(objects, -1, dtype=np.int64)
        for k in read_active:
            rep_object_index[k] = lp.var(
                f"replicas[k{k}]", obj=costs.alpha * intervals if charge_rc else 0.0
            ).index
    if rc is not ReplicaConstraint.NONE:
        for k in read_active:
            rep = rep_index if rep_index is not None else int(rep_object_index[k])
            for i in range(intervals):
                idxs = [store_idx[ns, i, k] for ns in range(ns_count) if store_idx[ns, i, k] >= 0]
                if not idxs:
                    continue
                lp.add_row(
                    idxs + [rep],
                    [1.0] * len(idxs) + [-1.0],
                    "<=",
                    0.0,
                    name=f"rc[i{i},k{k}]",
                )

    # --- node opening (13)/(14) -------------------------------------------------
    open_index = None
    if use_open:
        open_index = np.full(ns_count, -1, dtype=np.int64)
        for ns in range(ns_count):
            if (store_idx[ns] >= 0).any():
                open_index[ns] = lp.var(f"open[n{ns}]", upper=1.0, obj=costs.zeta).index
        for ns in range(ns_count):
            if open_index[ns] < 0:
                continue
            for k in read_active:
                for i in range(intervals):
                    s = store_idx[ns, i, k]
                    if s >= 0:
                        lp.add_row([s, int(open_index[ns])], [1.0, -1.0], "<=", 0.0)

    objective_constant = 0.0
    structurally_infeasible = False
    infeasible_reason = ""

    if isinstance(goal, QoSGoal):
        # --- covered variables + rows (5)/(18) -------------------------------
        gamma_pen = np.maximum(inst.origin_latency - goal.tlat_ms, 0.0) * costs.gamma
        cell_lists: Dict[object, List[Tuple[int, float]]] = {}
        covered_const: Dict[object, float] = {}
        total_reads: Dict[object, float] = {}

        for nd in range(nd_count):
            reachable = np.nonzero(inst.reach[nd])[0]
            for k in read_active:
                col = reads[nd, :, k]
                nz = np.nonzero(col)[0]
                for i in nz:
                    r = float(col[i])
                    key = scope_key(goal.scope, nd, int(k))
                    total_reads[key] = total_reads.get(key, 0.0) + r
                    if inst.origin_covers[nd]:
                        covered_const[key] = covered_const.get(key, 0.0) + r
                        continue
                    holders = [
                        int(store_idx[ns, i, k]) for ns in reachable if store_idx[ns, i, k] >= 0
                    ]
                    if costs.gamma > 0 and gamma_pen[nd] > 0:
                        objective_constant += gamma_pen[nd] * r
                    if not holders:
                        continue  # permanently uncoverable cell
                    cov_obj = -(gamma_pen[nd] * r) if costs.gamma > 0 else 0.0
                    cov = lp.var(f"covered[n{nd},i{i},k{k}]", upper=1.0, obj=cov_obj).index
                    covered_idx[nd, i, k] = cov
                    lp.add_row(
                        [cov] + holders,
                        [1.0] + [-1.0] * len(holders),
                        "<=",
                        0.0,
                        name=f"cover[n{nd},i{i},k{k}]",
                    )
                    cell_lists.setdefault(key, []).append((cov, r))

        # --- QoS rows (2) ------------------------------------------------------
        # Rows are built for every scope key with coverable cells, even when
        # trivially satisfied at this fraction, so set_qos_fraction() can
        # re-target the same formulation for sweep reuse.
        qos_meta: Dict[object, Tuple[int, float, float, float]] = {}
        for key, denom in total_reads.items():
            if denom <= 0:
                continue
            required = goal.fraction * denom
            const = covered_const.get(key, 0.0)
            cells = cell_lists.get(key, [])
            max_possible = const + sum(r for _idx, r in cells)
            row_index = -1
            if cells:
                lp.add_row(
                    [idx for idx, _r in cells],
                    [r for _idx, r in cells],
                    ">=",
                    required - const,
                    name=f"qos[{key}]",
                )
                row_index = lp.num_constraints - 1
            qos_meta[key] = (row_index, float(denom), float(const), float(max_possible))
            if max_possible < required - 1e-9:
                structurally_infeasible = True
                infeasible_reason = (
                    f"goal scope {key!r}: at most {max_possible / denom:.5f} of reads "
                    f"coverable, goal requires {goal.fraction:.5f}"
                )
    else:
        # --- average-latency goal (7)-(10) ------------------------------------
        _build_average_latency(
            lp, inst, goal, store_idx, read_active, covered_idx, props
        )

    form = Formulation(
        lp=lp,
        problem=problem,
        properties=props,
        instance=inst,
        store_idx=store_idx,
        create_idx=create_idx,
        covered_idx=covered_idx,
        active_objects=read_active,
        allowed_create=allowed,
        objective_constant=objective_constant,
        structurally_infeasible=structurally_infeasible,
        infeasible_reason=infeasible_reason,
        cap_index=cap_index,
        cap_node_index=cap_node_index,
        rep_index=rep_index,
        rep_object_index=rep_object_index,
        open_index=open_index,
    )
    if isinstance(goal, QoSGoal):
        form.qos_meta = qos_meta
    if isinstance(goal, AverageLatencyGoal):
        form.route_idx = getattr(lp, "_route_idx", {})
    return form


def _build_average_latency(
    lp: LinearProgram,
    inst: PlacementInstance,
    goal: AverageLatencyGoal,
    store_idx: np.ndarray,
    read_active: np.ndarray,
    covered_idx: np.ndarray,
    props: HeuristicProperties,
) -> None:
    """Constraints (7)-(10): route every read; bound mean latency per scope.

    Builds one route variable per (demand cell, servable storer) plus an
    origin route; stores the index map on ``lp._route_idx`` for the caller.
    """
    nd_count, intervals, _objects = inst.reads.shape
    ns_count = inst.num_storers
    reads = inst.qos_reads()
    route_idx: Dict[Tuple[int, int, int], Tuple[np.ndarray, np.ndarray, int]] = {}
    latency_terms: Dict[object, List[Tuple[int, float]]] = {}
    total_reads: Dict[object, float] = {}

    for nd in range(nd_count):
        servable = np.nonzero(inst.serve[nd])[0]
        for k in read_active:
            col = reads[nd, :, k]
            for i in np.nonzero(col)[0]:
                r = float(col[i])
                key = scope_key(goal.scope, nd, int(k))
                total_reads[key] = total_reads.get(key, 0.0) + r
                ns_list, var_list = [], []
                for ns in servable:
                    s = store_idx[ns, i, k]
                    if s < 0:
                        continue
                    rv = lp.var(f"route[n{nd},m{ns},i{i},k{k}]", upper=1.0).index
                    lp.add_row([rv, int(s)], [1.0, -1.0], "<=", 0.0)  # (9)
                    ns_list.append(int(ns))
                    var_list.append(rv)
                    latency_terms.setdefault(key, []).append(
                        (rv, r * float(inst.latency[nd, ns]))
                    )
                origin_var = lp.var(f"route[n{nd},origin,i{i},k{k}]", upper=1.0).index
                latency_terms.setdefault(key, []).append(
                    (origin_var, r * float(inst.origin_latency[nd]))
                )
                lp.add_row(
                    var_list + [origin_var],
                    [1.0] * (len(var_list) + 1),
                    "==",
                    1.0,
                    name=f"route-one[n{nd},i{i},k{k}]",
                )  # (8)
                route_idx[(nd, int(i), int(k))] = (
                    np.array(ns_list, dtype=np.int64),
                    np.array(var_list, dtype=np.int64),
                    origin_var,
                )

    for key, denom in total_reads.items():
        terms = latency_terms.get(key, [])
        lp.add_row(
            [idx for idx, _c in terms],
            [c for _idx, c in terms],
            "<=",
            goal.tavg_ms * denom,
            name=f"avg[{key}]",
        )  # (7)

    lp._route_idx = route_idx  # type: ignore[attr-defined]
