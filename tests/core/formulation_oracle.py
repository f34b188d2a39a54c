"""The row-at-a-time MC-PERF builder, frozen as a test oracle.

This is ``build_formulation`` as it ran before assembly moved to NumPy
blocks (:mod:`repro.core.assembly`): every variable and row is emitted by
its own ``lp.var`` / ``lp.add_row`` call inside per-cell loops.  The
equivalence tests and the hot-path bench compare the vectorized builder
against it — same variables, same rows, same solver arrays.  The
average-latency routing family (7)-(10) is shared with the production
builder (:func:`repro.core.assembly._build_average_latency`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.assembly import _build_average_latency
from repro.core.formulation import (
    Formulation,
    compute_allowed_create,
    compute_dominated_storers,
    compute_store_window,
)
from repro.core.goals import AverageLatencyGoal, QoSGoal, scope_key
from repro.core.problem import MCPerfProblem
from repro.core.properties import (
    HeuristicProperties,
    ReplicaConstraint,
    StorageConstraint,
)
from repro.lp.model import LinearProgram
from repro.perf import PERF


def build_formulation_loops(
    problem: MCPerfProblem,
    properties: Optional[HeuristicProperties] = None,
    with_open_vars: Optional[bool] = None,
) -> Formulation:
    """Assemble the MC-PERF LP one ``add_row`` call at a time."""
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
    # ... and, where no row ties a storer's cells to it, no dominated pair.
    dominated = (
        compute_dominated_storers(inst, props, allowed, use_open)
        if isinstance(goal, QoSGoal)
        else None
    )
    pruned = 0
    dropped = 0

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
                if dominated is not None and dominated[ns, k]:
                    dropped += 1
                    continue
                obj_coeff = store_alpha + costs.delta * writes_per_ik[i, k]
                store_idx[ns, i, k] = lp.var(
                    f"store[n{ns},i{i},k{k}]", upper=1.0, obj=obj_coeff
                )
                if allowed is None or allowed[ns, i, k]:
                    create_idx[ns, i, k] = lp.var(
                        f"create[n{ns},i{i},k{k}]", upper=1.0, obj=costs.beta
                    )
    if window is not None:
        PERF.count("form.store.pruned", pruned)
    if dominated is not None:
        PERF.count("form.store.dominated", dropped)

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
        cap_index = lp.var("capacity", obj=costs.alpha * ns_count * intervals)
    elif sc is StorageConstraint.PER_NODE:
        cap_node_index = np.full(ns_count, -1, dtype=np.int64)
        for ns in range(ns_count):
            if (store_idx[ns] >= 0).any():
                cap_node_index[ns] = lp.var(
                    f"capacity[n{ns}]", obj=costs.alpha * intervals
                )
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
        rep_index = lp.var("replicas", obj=rep_obj)
    elif rc is ReplicaConstraint.PER_OBJECT:
        rep_object_index = np.full(objects, -1, dtype=np.int64)
        for k in read_active:
            rep_object_index[k] = lp.var(
                f"replicas[k{k}]", obj=costs.alpha * intervals if charge_rc else 0.0
            )
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
                open_index[ns] = lp.var(f"open[n{ns}]", upper=1.0, obj=costs.zeta)
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
                    cov = lp.var(f"covered[n{nd},i{i},k{k}]", upper=1.0, obj=cov_obj)
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
