"""The domain-specific greedy rounding algorithm (Appendix C, Figures 5–7).

The LP relaxation leaves fractional ``store`` values.  The paper's rounding
algorithm alternates:

1. **Round up** the fractional value with the best cost-to-reward ratio
   (reward = newly covered demand, counting only demand not already covered
   by an integral replica — Figure 6).
2. **Round down** as many fractional values as possible without violating
   the QoS goal, best cost-savings-per-coverage-lost first (Figure 7).

until no fractional values remain.  The result is a *feasible integral*
solution whose cost demonstrates how tight the LP lower bound is.  Replica-
creation cost deltas are priced exactly from the neighbouring intervals
(the four cases of Figures 6/7 collapse into one exact recomputation of the
boundary ``create`` terms).  Final cost is re-derived from the integral
matrix with the storage/replica-constraint capacity adjustments of Figure 5.

The run-length optimization the paper reports (rounding runs of consecutive
intervals with the same fractional value as one unit, ~10× faster for <5 %
extra cost) is available via ``run_length=True``.

The loop runs on arrays: each step prices every pending unit in one NumPy
pass (``bincount``/``add.at`` sums in the cell-by-cell order, the same
float expressions and tie-break keys), so it makes exactly the choices of
the per-cell Python loop it replaced — frozen as the test oracle in
``tests/core/rounding_oracle.py`` — at ~8× its speed on the slowest
Figure-2 cell.  ``PERF`` records the ``round.greedy`` timer and the
``round.greedy.up``/``round.greedy.down`` step counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.evaluate import (
    CostBreakdown,
    meets_goal,
    qos_by_scope,
    qos_met,
    solution_cost,
)
from repro.core.formulation import Formulation
from repro.core.goals import GoalScope, QoSGoal, scope_key
from repro.perf import PERF

_FRAC_TOL = 1e-6
_QOS_TOL = 1e-7


@dataclass
class RoundingResult:
    """Outcome of rounding an LP point to a feasible integral placement."""

    store: np.ndarray
    cost: CostBreakdown
    feasible: bool
    fractional_units: int
    rounded_up: int
    rounded_down: int
    repaired: int
    legalized: int = 0
    qos: Dict[object, float] = field(default_factory=dict)
    #: Attached AuditReport when the rounder ran with auditing on.
    audit: Optional[object] = None

    @property
    def total_cost(self) -> float:
        return self.cost.total

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe encoding for the runner's cache/artifact layer."""
        from repro.serialize import array_to_jsonable, scope_items_to_jsonable

        return {
            "store": array_to_jsonable(self.store),
            "cost": self.cost.to_dict(),
            "feasible": self.feasible,
            "fractional_units": self.fractional_units,
            "rounded_up": self.rounded_up,
            "rounded_down": self.rounded_down,
            "repaired": self.repaired,
            "legalized": self.legalized,
            "qos": scope_items_to_jsonable(self.qos),
            "audit": None if self.audit is None else self.audit.to_dict(),
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "RoundingResult":
        """Inverse of :meth:`to_dict`."""
        from repro.audit.report import AuditReport
        from repro.serialize import array_from_jsonable, scope_items_from_jsonable

        audit = payload.get("audit")
        return RoundingResult(
            store=array_from_jsonable(payload["store"]),
            cost=CostBreakdown.from_dict(payload["cost"]),
            feasible=bool(payload["feasible"]),
            fractional_units=int(payload["fractional_units"]),
            rounded_up=int(payload["rounded_up"]),
            rounded_down=int(payload["rounded_down"]),
            repaired=int(payload["repaired"]),
            legalized=int(payload.get("legalized", 0)),
            qos=scope_items_from_jsonable(payload.get("qos", [])),
            audit=None if audit is None else AuditReport.from_dict(audit),
        )


class _Rounder:
    """The Figure-5 loop on arrays: one NumPy pricing pass per step.

    Each unit owns a contiguous block of *entries*, one per demand cell it
    can move toward the goal: a (reaching demander, interval) pair with
    reads that the origin does not already cover, demander outer and
    interval inner.  An entry holds the flat cell index into ``cov`` /
    ``int_cov``, the QoS read and the goal-scope id of its demander/object.
    Consecutive entries of one unit with one scope id form a *pair*, in
    first-appearance order.  Every sum is a ``bincount`` or ``add.at`` in
    entry order, so the float results equal a cell-by-cell loop's.
    """

    def __init__(self, form: Formulation, store: np.ndarray, run_length: bool):
        self.form = form
        self.inst = form.instance
        self.goal = form.problem.goal
        if not isinstance(self.goal, QoSGoal):
            raise TypeError("rounding is defined for the QoS goal metric")
        self.costs = form.problem.costs
        self.store = store
        self.initial = (
            self.inst.initial_store.astype(float)
            if self.inst.initial_store is not None
            else np.zeros((store.shape[0], store.shape[2]))
        )
        self.run_length = run_length

        reads = np.asarray(self.inst.qos_reads(), dtype=float)
        # Fractional coverage sums and integral-replica counts (for Figure
        # 6's reward) per demand cell, flattened for entry lookups.
        cov = np.einsum("ds,sik->dik", self.inst.reach.astype(float), store)
        self.int_cov = np.einsum(
            "ds,sik->dik",
            self.inst.reach.astype(np.int64),
            (store >= 1.0 - _FRAC_TOL).astype(np.int64),
        ).ravel()

        # Per-scope satisfied coverage and requirements, indexed by scope id.
        self._init_scope_tracking(reads, cov)
        self.cov = cov.ravel()

        self.units = self._collect_units()
        self._index_units(reads)
        self.rounded_up = 0
        self.rounded_down = 0

    # -- scope bookkeeping ---------------------------------------------------

    def _scope_ids(self, nd: np.ndarray, k: np.ndarray) -> np.ndarray:
        scope = self.goal.scope
        if scope is GoalScope.PER_USER:
            return nd
        if scope is GoalScope.OVERALL:
            return np.zeros_like(nd)
        if scope is GoalScope.PER_OBJECT:
            return k
        return nd * self.store.shape[2] + k

    def _init_scope_tracking(self, reads: np.ndarray, cov: np.ndarray) -> None:
        num_d, _intervals, num_k = reads.shape
        # Scope ids are dense: the last (demander, object) has the largest.
        num_scopes = int(self._scope_ids(np.array([num_d - 1]), np.array([num_k - 1]))[0]) + 1
        nd, i, k = np.nonzero(reads)
        r = reads[nd, i, k]
        origin = self.inst.origin_covers.astype(bool)[nd]
        scope = self._scope_ids(nd, k)
        self.req = np.zeros(num_scopes)
        np.add.at(self.req, scope, r)
        self.req *= self.goal.fraction
        self.sat = np.zeros(num_scopes)
        np.add.at(self.sat, scope, np.where(origin, r, r * np.minimum(1.0, cov[nd, i, k])))
        # A scope may not fall below its requirement minus the QoS slack.
        self._floor = self.req - _QOS_TOL * np.maximum(1.0, self.req)

    # -- unit collection -------------------------------------------------------

    def _collect_units(self) -> np.ndarray:
        """Roundable units as ``(ns, k, start, end)`` rows: one fractional
        cell each, or with ``run_length`` a run of consecutive equal cells."""
        # Snap near-integral values.
        self.store[self.store < _FRAC_TOL] = 0.0
        self.store[self.store > 1.0 - _FRAC_TOL] = 1.0
        frac_ns, frac_i, frac_k = np.nonzero((self.store > 0.0) & (self.store < 1.0))
        if not self.run_length:
            return np.stack([frac_ns, frac_k, frac_i, frac_i], axis=1)
        # Group consecutive equal-valued intervals per (ns, k).
        by_pair: Dict[Tuple[int, int], List[int]] = {}
        for ns, i, k in zip(frac_ns, frac_i, frac_k):
            by_pair.setdefault((int(ns), int(k)), []).append(int(i))
        units: List[Tuple[int, int, int, int]] = []
        for (ns, k), idxs in by_pair.items():
            start = prev = idxs[0]
            value = float(self.store[ns, start, k])
            for i in idxs[1:]:
                if i != prev + 1 or abs(float(self.store[ns, i, k]) - value) >= 1e-9:
                    units.append((ns, k, start, prev))
                    start, value = i, float(self.store[ns, i, k])
                prev = i
            units.append((ns, k, start, prev))
        return np.array(units, dtype=np.int64).reshape(-1, 4)

    def _index_units(self, reads: np.ndarray) -> None:
        """Unit columns, run neighbours, and the entry and pair index."""
        ns_count, intervals, objects = self.store.shape
        ns, k, start, end = self.units.T
        self._ns, self._k, self._start, self._end = ns, k, start, end
        self._value = self.store[ns, start, k]
        self._length = (end - start + 1).astype(float)
        # Run boundaries for the creation-cost delta: the cell before the
        # run (or the initial placement) and the cell after it, if any.
        self._has_prev, self._has_succ = start > 0, end + 1 < intervals
        self._prev_at = (ns * intervals + np.maximum(start - 1, 0)) * objects + k
        self._succ_at = (ns * intervals + np.minimum(end + 1, intervals - 1)) * objects + k
        self._initial_at = self.initial[ns, k]

        # Entries: per unit, reaching non-origin-covered demanders x the
        # run's intervals, keeping the cells with reads.
        live = self.inst.reach.astype(bool) & ~self.inst.origin_covers.astype(bool)[:, None]
        live_ns, live_nd = np.nonzero(live.T)
        ptr = np.concatenate(([0], np.cumsum(np.bincount(live_ns, minlength=ns_count))))
        span = (ptr[ns + 1] - ptr[ns]) * (end - start + 1)
        unit = np.repeat(np.arange(len(self.units)), span)
        offset = np.arange(unit.size) - np.repeat(np.cumsum(span) - span, span)
        length = end[unit] - start[unit] + 1
        nd = live_nd[ptr[ns[unit]] + offset // length]
        cell = (nd * intervals + start[unit] + offset % length) * objects + k[unit]
        read = reads.ravel()[cell]
        keep = read > 0
        self._e_unit, self._e_cell, self._e_read = unit[keep], cell[keep], read[keep]
        self._e_scope = self._scope_ids(nd[keep], k[unit[keep]])
        self._first = np.searchsorted(self._e_unit, np.arange(len(self.units) + 1))
        # Under every scope a unit's entries for one key are contiguous and
        # keys ascend, so sorted (unit, scope) pairs are in first-appearance
        # order.
        pairs, self._e_pair = np.unique(
            self._e_unit * self.sat.size + self._e_scope, return_inverse=True
        )
        self._p_unit, self._p_scope = np.divmod(pairs, self.sat.size)

    # -- pricing ------------------------------------------------------------------

    def _cost_delta(self, target: float) -> np.ndarray:
        """Storage + creation cost change of setting each unit to target.

        Only the run boundaries change the creation cost: the create into
        ``start`` and the create into ``end + 1`` (interior creates of an
        equal-valued run are zero before and after).
        """
        flat = self.store.reshape(-1)
        prev = np.where(self._has_prev, flat[self._prev_at], self._initial_at)
        succ = flat[self._succ_at]
        value = self._value
        delta = _pos(target - prev) - _pos(value - prev)
        delta = np.where(
            self._has_succ, delta + (_pos(succ - target) - _pos(succ - value)), delta
        )
        alpha_part = self.costs.alpha * (target - value) * self._length
        return alpha_part + self.costs.beta * delta

    def _gains(self, target: float) -> np.ndarray:
        """Per-entry coverage gain of setting each entry's unit to target."""
        old = self.cov[self._e_cell]
        new = old + (target - self._value)[self._e_unit]
        return np.minimum(1.0, new) - np.minimum(1.0, old)

    def _reward(self) -> np.ndarray:
        """Figure-6 reward: reachable demand no integral replica covers yet."""
        uncovered = self.int_cov[self._e_cell] == 0
        return np.bincount(
            self._e_unit,
            weights=np.where(uncovered, self._e_read, 0.0),
            minlength=len(self.units),
        )

    def _down_price(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(feasible, savings, savings per coverage lost) of rounding down."""
        n = len(self.units)
        gain = self._gains(0.0)
        delta = np.bincount(
            self._e_pair, weights=self._e_read * gain, minlength=self._p_unit.size
        )
        keyed = np.zeros(self._p_unit.size, dtype=bool)
        keyed[self._e_pair[gain != 0.0]] = True
        scope = self._p_scope
        breaks = keyed & (self.sat[scope] + delta < self._floor[scope])
        feasible = np.bincount(self._p_unit, weights=breaks, minlength=n) == 0
        savings = -self._cost_delta(0.0)
        lost = -np.bincount(
            self._p_unit, weights=np.where(0.0 < delta, 0.0, delta), minlength=n
        )
        return feasible, savings, savings / (lost + 1e-12)

    def _pick(self, mask: np.ndarray, *keys: np.ndarray) -> Optional[int]:
        """The unit under ``mask`` with the smallest key tuple, or None."""
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            return None
        tie_break = (self._k[idx], self._start[idx], self._ns[idx])
        order = np.lexsort(tie_break + tuple(key[idx] for key in reversed(keys)))
        return int(idx[order[0]])

    # -- mutation -------------------------------------------------------------------

    def _apply(self, u: int, target: float) -> None:
        entries = slice(self._first[u], self._first[u + 1])
        cells = self._e_cell[entries]
        old = self.cov[cells]
        new = old + (target - self._value[u])
        self.cov[cells] = new
        if target >= 1.0 - _FRAC_TOL:
            # A fractional unit became an integral replica.
            self.int_cov[cells] += 1
        gain = np.minimum(1.0, new) - np.minimum(1.0, old)
        np.add.at(self.sat, self._e_scope[entries], self._e_read[entries] * gain)
        self.store[self._ns[u], self._start[u] : self._end[u] + 1, self._k[u]] = target
        self._value[u] = target

    # -- the Figure-5 loop ---------------------------------------------------------

    def run(self) -> Tuple[int, int]:
        pending = np.ones(len(self.units), dtype=bool)
        while pending.any():
            # Round-up step: lowest cost / reward ratio.
            cost = self._cost_delta(1.0)
            cost = np.where(0.0 > cost, 0.0, cost)
            reward = self._reward()
            ratio = np.full(cost.shape, np.inf)
            np.divide(cost, reward, out=ratio, where=reward > 0)
            best = self._pick(pending, ratio, cost)
            self._apply(best, 1.0)
            self.rounded_up += 1
            pending[best] = False

            # Round-down sweep: best savings per coverage lost, repeatedly.
            while True:
                feasible, savings, ratio = self._down_price()
                candidate = self._pick(pending & feasible & (savings > 0), -ratio, -savings)
                if candidate is None:
                    break
                self._apply(candidate, 0.0)
                self.rounded_down += 1
                pending[candidate] = False
        return self.rounded_up, self.rounded_down


def _pos(x: np.ndarray) -> np.ndarray:
    """Elementwise ``max(0.0, x)`` with Python's tie rule (a zero stays 0.0)."""
    return np.where(x > 0.0, x, 0.0)


def _attach_audit(form: Formulation, result: RoundingResult, audit) -> RoundingResult:
    """Post-rounding hook: certify the placement when auditing is on."""
    from repro.audit import audit_rounding, resolve_mode

    mode = resolve_mode(audit)
    if mode != "off":
        result.audit = audit_rounding(form, result, lp_cost=None, mode=mode)
    return result


def round_solution(
    form: Formulation,
    solution,
    run_length: bool = False,
    repair: bool = True,
    audit: Optional[str] = None,
) -> RoundingResult:
    """Round an LP point to a feasible integral MC-PERF solution.

    Parameters
    ----------
    form:
        The formulation the LP point came from.
    solution:
        An optimal :class:`~repro.lp.solution.LPSolution` for ``form.lp``.
    run_length:
        Round runs of consecutive equal fractional values as single units
        (the paper's speed optimization).
    repair:
        Greedily add replicas if numerical drift left the integral solution
        short of the goal (rare; counted in the result).
    audit:
        Audit mode (None reads ``REPRO_AUDIT``); when on, the integral
        placement is re-certified from scratch (:mod:`repro.audit`) and the
        report attached to ``result.audit``.
    """
    store = form.store_array(solution.values)
    np.clip(store, 0.0, 1.0, out=store)
    with PERF.timer("round.greedy"):
        rounder = _Rounder(form, store, run_length=run_length)
        num_units = len(rounder.units)
        up, down = rounder.run()
    PERF.count("round.greedy.up", up)
    PERF.count("round.greedy.down", down)
    store = rounder.store
    # Proposition 1 keeps zeros at zero, but independent up/down roundings in
    # one column can still imply a creation at a forbidden interval for
    # Know/Hist/React classes; backfill moves such creations to the latest
    # permitted interval (extra storage only — coverage can only grow).
    legalized = _enforce_create_legality(form, store)

    inst = form.instance
    goal = form.problem.goal
    # The final store's QoS is evaluated once, by the repair or here.
    is_qos = isinstance(goal, QoSGoal)
    if repair:
        repaired, qos = _repair(form, store)
    else:
        repaired, qos = 0, qos_by_scope(inst, goal, store) if is_qos else {}
    feasible = qos_met(goal, qos) if is_qos else meets_goal(inst, goal, store)

    cost = solution_cost(
        inst,
        form.properties,
        form.problem.costs,
        store,
        goal=goal,
        count_opening=form.open_index is not None,
    )
    result = RoundingResult(
        store=store,
        cost=cost,
        feasible=feasible,
        fractional_units=num_units,
        rounded_up=up,
        rounded_down=down,
        repaired=repaired,
        legalized=legalized,
        qos=qos,
    )
    return _attach_audit(form, result, audit)


def round_solution_iterative(
    form: Formulation,
    solution,
    backend: str = "auto",
    repair: bool = True,
    up_threshold: float = 0.9,
    audit: Optional[str] = None,
) -> RoundingResult:
    """LP-guided iterative rounding built on the patch API.

    Alternative to the Appendix-C greedy rounder: repeatedly fix fractional
    ``store`` variables to a bound (``fix_var``) and re-solve the patched
    LP, letting the solver re-optimize everything else.  Because fixings go
    through the patch API, every re-solve is assembly-free — the profile of
    a rounding run shows exactly one ``lp.assembly.rebuild`` (the initial
    assembly) and one ``round.iterative.fix`` per fixing.

    Each round fixes every variable at or above ``up_threshold`` to 1 in
    one batch (one re-solve for many fixings); when none qualify, the
    single largest fractional variable is pushed up instead.  Pushing up
    can violate capacity rows (16)/(17), so an infeasible batch falls back
    to fixing just the largest variable, and an infeasible single fix-up is
    retried as a fix-down before giving up.

    The original bounds of every touched variable are restored before
    returning (also via the patch API), so a formulation can be reused
    across sweep levels afterwards.
    """
    from repro.lp.solution import SolveStatus

    if not isinstance(form.problem.goal, QoSGoal):
        raise TypeError("rounding is defined for the QoS goal metric")
    lp = form.lp
    # Patches write these arrays in place; rounding adds no columns.
    cols = lp.assembled()
    store_idx = form.store_idx
    var_list = [int(j) for j in store_idx[store_idx >= 0].ravel()]
    saved = [(j, float(cols.lb[j]), float(cols.ub[j])) for j in var_list]
    values = np.asarray(solution.values, dtype=float)

    def fractional():
        return [
            j for j in var_list
            if cols.lb[j] != cols.ub[j]
            and _FRAC_TOL < values[j] < 1.0 - _FRAC_TOL
        ]

    num_units = len(fractional())
    rounded_up = 0
    rounded_down = 0

    def fix_batch(targets: List[Tuple[int, float]]):
        nonlocal rounded_up, rounded_down
        undo = [(j, float(cols.lb[j]), float(cols.ub[j])) for j, _ in targets]
        for j, value in targets:
            lp.fix_var(j, value)
            PERF.count("round.iterative.fix")
        sol = lp.solve(backend=backend)
        if sol.status is not SolveStatus.OPTIMAL:
            for j, lo, up in undo:
                lp.set_bounds(j, lo, up)
            return None
        rounded_up += sum(1 for _, v in targets if v >= 0.5)
        rounded_down += sum(1 for _, v in targets if v < 0.5)
        return sol

    def can_reach_one(j: int) -> bool:
        return cols.ub[j] >= 1.0 - _FRAC_TOL

    try:
        while True:
            frac = fractional()
            if not frac:
                break
            batch = [j for j in frac if values[j] >= up_threshold and can_reach_one(j)]
            sol = fix_batch([(j, 1.0) for j in batch]) if batch else None
            if sol is None:
                # No near-integral batch (or it broke a capacity row):
                # push the single most-committed variable up.
                j = max(frac, key=lambda idx: values[idx])
                sol = fix_batch([(j, 1.0)]) if can_reach_one(j) else None
                if sol is None:
                    sol = fix_batch([(j, 0.0)])
                if sol is None:
                    raise RuntimeError(
                        f"iterative rounding wedged: fixing variable {j} "
                        "either way leaves the LP infeasible"
                    )
            values = np.asarray(sol.values, dtype=float)
            solution = sol
    finally:
        for j, lo, up in saved:
            lp.set_bounds(j, lo, up)

    store = form.store_array(values)
    np.clip(store, 0.0, 1.0, out=store)
    store[store < _FRAC_TOL] = 0.0
    store[store > 1.0 - _FRAC_TOL] = 1.0
    legalized = _enforce_create_legality(form, store)
    repaired = _repair(form, store)[0] if repair else 0
    inst = form.instance
    goal = form.problem.goal
    cost = solution_cost(
        inst,
        form.properties,
        form.problem.costs,
        store,
        goal=goal,
        count_opening=form.open_index is not None,
    )
    result = RoundingResult(
        store=store,
        cost=cost,
        feasible=meets_goal(inst, goal, store),
        fractional_units=num_units,
        rounded_up=rounded_up,
        rounded_down=rounded_down,
        repaired=repaired,
        legalized=legalized,
        qos=qos_by_scope(inst, goal, store),
    )
    return _attach_audit(form, result, audit)


def _enforce_create_legality(form: Formulation, store: np.ndarray) -> int:
    """Backfill creations that landed on forbidden intervals.

    For each column with an up-step at an interval whose create variable was
    fixed away (Know/Hist/React), extend the replica back to the latest
    interval where creation is permitted.  Returns the number of padded
    object-intervals.
    """
    allowed = form.allowed_create
    if allowed is None:
        return 0
    inst = form.instance
    initial = (
        inst.initial_store
        if inst.initial_store is not None
        else np.zeros((store.shape[0], store.shape[2]))
    )
    padded = 0
    ns_list, k_list = np.nonzero(store.sum(axis=1) > 0)
    for ns, k in zip(ns_list, k_list):
        prev = float(initial[ns, k])
        for i in range(store.shape[1]):
            cur = float(store[ns, i, k])
            if cur > prev + 1e-9 and not allowed[ns, i, k]:
                j = i
                while j > 0 and not allowed[ns, j, k]:
                    j -= 1
                if not allowed[ns, j, k] and float(initial[ns, k]) < 1.0:
                    raise RuntimeError(
                        f"no permitted creation interval for store[{ns},{i},{k}]"
                    )
                padded += int((store[ns, j:i, k] < 1.0).sum())
                store[ns, j:i, k] = 1.0
            prev = float(store[ns, i, k])
    return padded


def _repair(
    form: Formulation, store: np.ndarray, max_steps: int = 10_000
) -> Tuple[int, Dict[object, float]]:
    """Greedy round-up repair: add permitted replicas until the goal holds.

    Candidates are cells the formulation created store variables for (so all
    class restrictions remain respected).  Each step adds the replica with
    the best uncovered-demand gain.  Returns the number of replicas added
    and the repaired store's per-scope QoS (empty for a non-QoS goal).
    """
    inst = form.instance
    goal = form.problem.goal
    if not isinstance(goal, QoSGoal):
        return 0, {}
    reads = inst.qos_reads()
    steps = 0
    for _ in range(max_steps):
        achieved = qos_by_scope(inst, goal, store)
        failing = {key for key, v in achieved.items() if v < goal.fraction - 1e-9}
        if not failing:
            return steps, achieved
        best = None
        best_gain = 0.0
        cov = np.einsum("ds,sik->dik", inst.reach.astype(float), store)
        candidates = np.nonzero((form.store_idx >= 0) & (store < 0.5))
        for ns, i, k in zip(*candidates):
            # Respect the class's create fixing: only add a replica where it
            # could legally be created (or carried over from the previous
            # interval).
            if (
                form.allowed_create is not None
                and not form.allowed_create[ns, i, k]
                and not (i > 0 and store[ns, i - 1, k] >= 0.5)
            ):
                continue
            gain = 0.0
            for nd in np.nonzero(inst.reach[:, ns])[0]:
                if inst.origin_covers[nd]:
                    continue
                key = scope_key(goal.scope, int(nd), int(k))
                if key not in failing:
                    continue
                r = reads[nd, i, k]
                if r > 0 and cov[nd, i, k] < 1.0:
                    gain += float(r) * (min(1.0, cov[nd, i, k] + 1.0) - min(1.0, cov[nd, i, k]))
            if gain > best_gain:
                best_gain = gain
                best = (int(ns), int(i), int(k))
        if best is None:
            raise RuntimeError("rounding repair cannot reach the QoS goal")
        ns, i, k = best
        store[ns, i, k] = 1.0
        steps += 1
    raise RuntimeError("rounding repair exceeded the step limit")
