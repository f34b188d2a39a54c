"""MC-PERF assembly — the body of ``build_formulation``.

The O(Ns*I*K) row families are constructed from NumPy index/coeff blocks
pushed through the bulk LP APIs
(:meth:`~repro.lp.model.LinearProgram.add_vars_bulk` /
:meth:`~repro.lp.model.LinearProgram.add_rows_bulk`) instead of one
``add_row`` call per row, which at Figure-2 scale would be tens of
thousands of Python-level calls.  Each bulk family is named by its key
arrays (:class:`~repro.lp.model.Names`: ``store[n3,i1,k7]`` is prefix
``store`` with keys ``n``, ``i``, ``k``), so no name string is built unless
someone asks for one.

The output is equivalent row-for-row to the original row-at-a-time
builder, kept frozen as a test oracle in ``tests/core/formulation_oracle.py``
— same variable order, names, bounds and objectives; same row order,
names, senses, sparsity patterns and coefficients (right-hand sides agree
to floating-point regrouping) — which the equivalence tests in
``tests/core/test_vectorized_formulation.py`` assert on randomized
instances.  A deliberate structural change here has to be mirrored in the
oracle, or those tests fail.

The store-cell mask: the storer can serve a demander of the object
(``useful``), creation was permitted at or before the interval
(``possible``), and, under a QoS goal, the interval lies in the (storer,
object) demand window of
:func:`~repro.core.formulation.compute_store_window`, and the pair is not
dominated (:func:`~repro.core.formulation.compute_dominated_storers`, in
the QoS classes without storage constraint, node opening or creation
mask).  Cells dropped by the window are counted as ``form.store.pruned``;
in-window cells of dominated pairs as ``form.store.dominated``.

Cell ordering invariants (inherited from the row-at-a-time loops):

* store/create variables: object (``read_active`` order) outer, then storer
  ascending, then interval ascending, store before create within a cell;
* coupling rows follow the same cell order, skipping bound-only cells;
* sc rows are storer-major, rc rows object-major, open rows storer-major;
* covered variables/rows are demander-major, then object, then interval;
* QoS rows follow scope-key first-visit order.

The average-latency routing family (7)-(10) is built row by row
(:func:`_build_average_latency`) — it is interleaved per cell and no
benchmark workload runs that goal.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.goals import AverageLatencyGoal, QoSGoal, scope_key
from repro.core.problem import MCPerfProblem, PlacementInstance
from repro.core.properties import (
    HeuristicProperties,
    ReplicaConstraint,
    StorageConstraint,
)
from repro.lp.model import LinearProgram, Names
from repro.perf import PERF


def build_formulation_vectorized(
    problem: MCPerfProblem,
    properties: Optional[HeuristicProperties] = None,
    with_open_vars: Optional[bool] = None,
):
    """Assemble the MC-PERF LP for one heuristic class (vectorized)."""
    from repro.core.formulation import (
        Formulation,
        compute_allowed_create,
        compute_dominated_storers,
        compute_store_window,
    )

    props = properties or HeuristicProperties()
    inst = problem.instance(props)
    costs = problem.costs
    goal = problem.goal
    nd_count, intervals, objects = inst.reads.shape
    ns_count = inst.num_storers
    use_open = with_open_vars if with_open_vars is not None else costs.zeta > 0

    lp = LinearProgram(name=f"mcperf[{props.describe()}]")

    reads = inst.qos_reads()
    demanded = reads.sum(axis=1) > 0
    read_active = np.nonzero(reads.sum(axis=(0, 1)) > 0)[0]
    ka_count = len(read_active)

    if isinstance(goal, AverageLatencyGoal):
        useful = (inst.serve.T.astype(np.int64) @ demanded.astype(np.int64)) > 0
    else:
        useful = (inst.reach.T.astype(np.int64) @ demanded.astype(np.int64)) > 0

    allowed = compute_allowed_create(inst, props)
    possible = None
    if allowed is not None:
        possible = np.logical_or.accumulate(allowed, axis=1)
        if inst.initial_store is not None:
            possible |= (inst.initial_store > 0)[:, None, :]

    sc = props.storage_constraint
    rc = props.replica_constraint
    if sc is not StorageConstraint.NONE:
        store_alpha = 0.0
    elif rc is not ReplicaConstraint.NONE:
        store_alpha = 0.0
    else:
        store_alpha = costs.alpha

    writes_per_ik = inst.writes.sum(axis=0)

    store_idx = np.full((ns_count, intervals, objects), -1, dtype=np.int64)
    create_idx = np.full((ns_count, intervals, objects), -1, dtype=np.int64)
    covered_idx = np.full((nd_count, intervals, objects), -1, dtype=np.int64)

    # --- store / create variables (one bulk block) --------------------------
    # Cell arrays in builder order: object (read_active) outer, storer, interval.
    store_mask = np.broadcast_to(
        useful[:, read_active].T[:, :, None], (ka_count, ns_count, intervals)
    )
    if possible is not None:
        store_mask = store_mask & possible[:, :, read_active].transpose(2, 0, 1)
    if isinstance(goal, QoSGoal):
        in_window = compute_store_window(inst, allowed)[:, :, read_active].transpose(2, 0, 1)
        PERF.count("form.store.pruned", int((store_mask & ~in_window).sum()))
        store_mask = store_mask & in_window
        dominated = compute_dominated_storers(inst, props, allowed, use_open)
        if dominated is not None:
            drop = dominated[:, read_active].T[:, :, None]
            PERF.count("form.store.dominated", int((store_mask & drop).sum()))
            store_mask = store_mask & ~drop
    if allowed is not None:
        create_mask = store_mask & allowed[:, :, read_active].transpose(2, 0, 1)
    else:
        create_mask = store_mask

    ka_l, ns_l, i_l = np.nonzero(store_mask)
    k_l = read_active[ka_l] if ka_count else ka_l
    has_create = create_mask[ka_l, ns_l, i_l]
    ncells = len(ka_l)
    widths = 1 + has_create.astype(np.int64)
    ends = np.cumsum(widths)
    store_off = ends - widths  # store variable's offset within the block
    total_vars = int(ends[-1]) if ncells else 0

    create_off = store_off[has_create] + 1
    kind = np.zeros(total_vars, dtype=np.int8)
    kind[create_off] = 1  # a cell's create column follows its store column
    names = Names(
        ("store", "create"),
        {"n": np.repeat(ns_l, widths), "i": np.repeat(i_l, widths), "k": np.repeat(k_l, widths)},
        kind=kind,
    )
    obj_arr = np.full(total_vars, costs.beta, dtype=np.float64)
    obj_arr[store_off] = store_alpha + costs.delta * writes_per_ik[i_l, k_l]

    base = lp.num_variables
    store_idx[ns_l, i_l, k_l] = base + store_off
    create_idx[ns_l[has_create], i_l[has_create], k_l[has_create]] = base + create_off

    # --- create coupling (3)/(4), in cell order -----------------------------
    init = inst.initial_store
    s_cur = base + store_off
    c_cur = create_idx[ns_l, i_l, k_l]
    s_prev = np.where(
        i_l > 0, store_idx[ns_l, np.maximum(i_l - 1, 0), k_l], -1
    ) if ncells else np.empty(0, dtype=np.int64)
    init_val = (
        init[ns_l, k_l].astype(np.float64)
        if init is not None
        else np.zeros(ncells, dtype=np.float64)
    )
    have_c = c_cur >= 0
    have_p = s_prev >= 0
    case_first_create = ~have_p & have_c  # (4): store <= create + initial
    case_first_fixed = ~have_p & ~have_c  # bound-only: store <= initial
    case_chain_create = have_p & have_c  # (3): store <= prev + create
    upper = np.ones(total_vars, dtype=np.float64)
    upper[store_off[case_first_fixed]] = np.minimum(1.0, init_val[case_first_fixed])
    lp.add_vars_bulk(names, lower=0.0, upper=upper, obj=obj_arr)
    nnz = np.where(case_chain_create, 3, 2)
    nnz[case_first_fixed] = 0
    row_mask = ~case_first_fixed
    lengths = nnz[row_mask]
    nrows = len(lengths)
    if nrows:
        indptr = np.zeros(nrows + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        starts = indptr[:-1]
        fidx = np.empty(int(indptr[-1]), dtype=np.int64)
        fcf = np.empty(int(indptr[-1]), dtype=np.float64)
        fidx[starts] = s_cur[row_mask]
        fcf[starts] = 1.0
        fidx[starts + 1] = np.where(case_first_create, c_cur, s_prev)[row_mask]
        fcf[starts + 1] = -1.0
        third = case_chain_create[row_mask]
        fidx[starts[third] + 2] = c_cur[row_mask][third]
        fcf[starts[third] + 2] = -1.0
        rhs = np.where(case_first_create, init_val, 0.0)[row_mask]
        lp.add_rows_bulk(indptr, fidx, fcf, "<=", rhs)

    # --- storage constraint (16)/(16a) --------------------------------------
    cap_index = None
    cap_node_index = None
    if sc is StorageConstraint.UNIFORM:
        cap_index = lp.var("capacity", obj=costs.alpha * ns_count * intervals)
    elif sc is StorageConstraint.PER_NODE:
        cap_node_index = np.full(ns_count, -1, dtype=np.int64)
        for ns in range(ns_count):
            if (store_idx[ns] >= 0).any():
                cap_node_index[ns] = lp.var(f"capacity[n{ns}]", obj=costs.alpha * intervals)
    if sc is not StorageConstraint.NONE:
        if cap_index is not None:
            cap_per_ns = np.full(ns_count, cap_index, dtype=np.int64)
        elif cap_node_index is not None:
            cap_per_ns = cap_node_index
        else:
            cap_per_ns = np.full(ns_count, -1, dtype=np.int64)
        S = store_idx[:, :, read_active]  # (Ns, I, Ka)
        mask = (S >= 0) & (cap_per_ns >= 0)[:, None, None]
        counts = mask.sum(axis=2)  # (Ns, I)
        row_ok = counts > 0
        ns_r, i_r = np.nonzero(row_ok)
        lengths = counts[row_ok]
        if len(lengths):
            _append_trailing_rows(
                lp,
                S[mask],
                lengths,
                cap_per_ns[ns_r],
                names=Names("sc", {"n": ns_r, "i": i_r}),
            )

    # --- replica constraint (17)/(17a) --------------------------------------
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
        S2 = store_idx[:, :, read_active].transpose(2, 1, 0)  # (Ka, I, Ns)
        mask = S2 >= 0
        counts = mask.sum(axis=2)  # (Ka, I)
        row_ok = counts > 0
        ka_r, i_r = np.nonzero(row_ok)
        lengths = counts[row_ok]
        if len(lengths):
            rep_per_ka = (
                np.full(ka_count, rep_index, dtype=np.int64)
                if rep_index is not None
                else rep_object_index[read_active]
            )
            _append_trailing_rows(
                lp,
                S2[mask],
                lengths,
                rep_per_ka[ka_r],
                names=Names("rc", {"i": i_r, "k": read_active[ka_r]}),
            )

    # --- node opening (13)/(14) ---------------------------------------------
    open_index = None
    if use_open:
        open_index = np.full(ns_count, -1, dtype=np.int64)
        any_store = (store_idx >= 0).any(axis=(1, 2))
        rng = lp.add_vars_bulk(
            Names("open", {"n": np.flatnonzero(any_store)}),
            lower=0.0,
            upper=1.0,
            obj=costs.zeta,
        )
        open_index[any_store] = np.arange(rng.start, rng.stop, dtype=np.int64)
        S3 = store_idx[:, :, read_active].transpose(0, 2, 1)  # (Ns, Ka, I)
        sel = (S3 >= 0) & (open_index >= 0)[:, None, None]
        svals = S3[sel]
        n_open_rows = len(svals)
        if n_open_rows:
            openvals = np.repeat(open_index, sel.sum(axis=(1, 2)))
            fidx = np.empty(2 * n_open_rows, dtype=np.int64)
            fidx[0::2] = svals
            fidx[1::2] = openvals
            fcf = np.tile(np.array([1.0, -1.0]), n_open_rows)
            indptr = np.arange(n_open_rows + 1, dtype=np.int64) * 2
            lp.add_rows_bulk(indptr, fidx, fcf, "<=", np.zeros(n_open_rows))

    objective_constant = 0.0
    structurally_infeasible = False
    infeasible_reason = ""
    qos_meta: Dict[object, Tuple[int, float, float, float]] = {}

    if isinstance(goal, QoSGoal):
        gamma_pen = np.maximum(inst.origin_latency - goal.tlat_ms, 0.0) * costs.gamma
        cell_lists: Dict[object, List[Tuple[int, float]]] = {}
        covered_const: Dict[object, float] = {}
        total_reads: Dict[object, float] = {}
        scope = goal.scope

        # Pass 1 (per demander): locate demand cells, extract each cell's
        # reachable holders, and accumulate covered-variable names/objectives
        # so the whole family lands in one bulk block.
        cov_keys: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        cov_obj_chunks: List[np.ndarray] = []
        per_nd: List[Optional[tuple]] = []
        for nd in range(nd_count):
            cols = reads[nd][:, read_active]  # (I, Ka)
            ka_c, i_c = np.nonzero(cols.T > 0)
            if len(ka_c) == 0:
                per_nd.append(None)
                continue
            r_c = cols[i_c, ka_c]
            k_c = read_active[ka_c]
            if inst.origin_covers[nd]:
                per_nd.append((ka_c, i_c, k_c, r_c, None, None, None))
                continue
            reachable = np.nonzero(inst.reach[nd])[0]
            if len(reachable):
                holder_grid = store_idx[
                    reachable[:, None], i_c[None, :], k_c[None, :]
                ]  # (Rn, ncells)
                hmask = holder_grid >= 0
                hcounts = hmask.sum(axis=0)
                # Transposed selection flattens cell-major with storers
                # ascending within each cell — the oracle's holder order.
                holders_flat = holder_grid.T[hmask.T]
            else:
                hcounts = np.zeros(len(ka_c), dtype=np.int64)
                holders_flat = np.empty(0, dtype=np.int64)
            elig = hcounts > 0
            if costs.gamma > 0 and gamma_pen[nd] > 0:
                objective_constant += float((gamma_pen[nd] * r_c).sum())
            cov_keys.append((np.full(int(elig.sum()), nd), i_c[elig], k_c[elig]))
            if costs.gamma > 0:
                cov_obj_chunks.append(-(gamma_pen[nd] * r_c[elig]))
            else:
                cov_obj_chunks.append(np.zeros(int(elig.sum())))
            per_nd.append((ka_c, i_c, k_c, r_c, elig, hcounts, holders_flat))

        cov_base = lp.num_variables
        if cov_keys:
            cov_n, cov_i, cov_k = (np.concatenate(keys) for keys in zip(*cov_keys))
            lp.add_vars_bulk(
                Names("covered", {"n": cov_n, "i": cov_i, "k": cov_k}),
                lower=0.0, upper=1.0, obj=np.concatenate(cov_obj_chunks),
            )

        # Pass 2 (per demander): cover rows in cell order + per-scope-key
        # bookkeeping in first-visit order (drives QoS row emission).
        cov_at = cov_base
        for nd in range(nd_count):
            data = per_nd[nd]
            if data is None:
                continue
            ka_c, i_c, k_c, r_c, elig, hcounts, holders_flat = data
            run_starts = np.flatnonzero(
                np.r_[True, ka_c[1:] != ka_c[:-1]]
            )  # first cell of each object run
            run_ends = np.r_[run_starts[1:], len(ka_c)]
            if elig is None:  # origin-covered demander: constants only
                for s, e in zip(run_starts.tolist(), run_ends.tolist()):
                    key = scope_key(scope, nd, int(k_c[s]))
                    rsum = float(r_c[s:e].sum())
                    total_reads[key] = total_reads.get(key, 0.0) + rsum
                    covered_const[key] = covered_const.get(key, 0.0) + rsum
                continue
            n_elig = int(elig.sum())
            cov_cells = np.full(len(ka_c), -1, dtype=np.int64)
            cov_cells[elig] = np.arange(cov_at, cov_at + n_elig, dtype=np.int64)
            cov_at += n_elig
            covered_idx[nd, i_c[elig], k_c[elig]] = cov_cells[elig]
            if n_elig:
                lengths = 1 + hcounts[elig]
                indptr = np.zeros(n_elig + 1, dtype=np.int64)
                np.cumsum(lengths, out=indptr[1:])
                starts = indptr[:-1]
                fidx = np.empty(int(indptr[-1]), dtype=np.int64)
                fcf = np.empty(int(indptr[-1]), dtype=np.float64)
                fidx[starts] = cov_cells[elig]
                fcf[starts] = 1.0
                hpos = (
                    np.arange(len(holders_flat), dtype=np.int64)
                    + np.repeat(np.arange(n_elig, dtype=np.int64), hcounts[elig])
                    + 1
                )
                fidx[hpos] = holders_flat
                fcf[hpos] = -1.0
                lp.add_rows_bulk(
                    indptr,
                    fidx,
                    fcf,
                    "<=",
                    np.zeros(n_elig),
                    names=Names(
                        "cover", {"n": np.full(n_elig, nd), "i": i_c[elig], "k": k_c[elig]}
                    ),
                )
            for s, e in zip(run_starts.tolist(), run_ends.tolist()):
                key = scope_key(scope, nd, int(k_c[s]))
                total_reads[key] = total_reads.get(key, 0.0) + float(r_c[s:e].sum())
                sel = elig[s:e]
                if sel.any():
                    cell_lists.setdefault(key, []).extend(
                        zip(cov_cells[s:e][sel].tolist(), r_c[s:e][sel].tolist())
                    )

        # --- QoS rows (2): one per scope key, first-visit order --------------
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
        _build_average_latency(lp, inst, goal, store_idx, read_active, covered_idx, props)

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


def _append_trailing_rows(lp, entries, lengths, trailing, names):
    """Bulk-add rows of the shape ``sum(entries_r) - trailing_r <= 0``.

    ``entries`` is the flat concatenation of each row's +1.0 columns (row
    major), ``lengths`` the per-row entry counts, ``trailing`` the per-row
    -1.0 column (a capacity/replica variable) appended last — the shared
    shape of the sc (16) and rc (17) families.
    """
    nrows = len(lengths)
    sizes = lengths + 1
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    total = int(indptr[-1])
    fidx = np.empty(total, dtype=np.int64)
    fcf = np.empty(total, dtype=np.float64)
    # Entry e of row r lands at e + r: each completed row inserted exactly
    # one trailing column before it.
    pos = np.arange(len(entries), dtype=np.int64) + np.repeat(
        np.arange(nrows, dtype=np.int64), lengths
    )
    fidx[pos] = entries
    fcf[pos] = 1.0
    tail = indptr[1:] - 1
    fidx[tail] = trailing
    fcf[tail] = -1.0
    lp.add_rows_bulk(indptr, fidx, fcf, "<=", np.zeros(nrows), names=names)


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
                    rv = lp.var(f"route[n{nd},m{ns},i{i},k{k}]", upper=1.0)
                    lp.add_row([rv, int(s)], [1.0, -1.0], "<=", 0.0)  # (9)
                    ns_list.append(int(ns))
                    var_list.append(rv)
                    latency_terms.setdefault(key, []).append(
                        (rv, r * float(inst.latency[nd, ns]))
                    )
                origin_var = lp.var(f"route[n{nd},origin,i{i},k{k}]", upper=1.0)
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
