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

Each unit is priced once and its prices are kept: the round-up key
(cost/reward ratio, cost, then ``(ns, start, k)``) and, when rounding it
down saves cost, the round-down key with the per-scope QoS deltas behind
it.  A step changes only the coverage of the rounded unit's demand cells
and the store cells of its run, so afterwards only the units with a demand
cell in common and the units right next to the run are re-priced; whether
a round-down fits the goal is checked against the live per-scope coverage
when the unit is picked.  Every float expression and every sum order is
the per-cell Python loop's — frozen as the test oracle in
``tests/core/rounding_oracle.py`` — so the choices are identical to the
byte.  ``PERF`` records the ``round.greedy`` timer, the
``round.greedy.up``/``round.greedy.down`` step counts and
``round.greedy.repriced``, the unit pricings after the first.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.evaluate import (
    CostBreakdown,
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


class _InstanceIndex:
    """The rounder's view of one instance under one goal scope.

    Every cell with QoS reads, in ``np.nonzero`` order: its read, its
    goal-scope id (``nd``, ``0``, ``k`` or ``nd·K+k``) and whether a replica
    must cover it (*live*: the origin does not cover its demander), with a
    live cell's flat ``(nd, i, k)`` index; each scope's total reads; and,
    per storer, the reaching demanders the origin does not cover and which
    live cells it reaches (``live_reach``, storer x live cell).  None of
    it depends on the LP point or the QoS fraction, so rounding every level
    of a sweep that re-targets one formulation builds it once
    (``Formulation.rounding_index``).
    """

    def __init__(self, inst, scope: GoalScope):
        reads = np.asarray(inst.qos_reads(), dtype=float)
        num_d, intervals, num_k = reads.shape
        self.scope, self.num_k = scope, num_k
        origin = inst.origin_covers.astype(bool)
        nd, i, k = np.nonzero(reads)
        self.read = reads[nd, i, k]
        self.scope_id = self.scope_ids(nd, k)
        # Scope ids are dense: the last (demander, object) has the largest.
        self.num_scopes = int(self.scope_ids(np.array([num_d - 1]), np.array([num_k - 1]))[0]) + 1
        self.reads_per_scope = np.zeros(self.num_scopes)
        np.add.at(self.reads_per_scope, self.scope_id, self.read)
        self.live = ~origin[nd]
        self.live_nd = nd[self.live]
        self.live_ik = (i * num_k + k)[self.live]
        self.live_cell = self.live_nd * (intervals * num_k) + self.live_ik
        self.reach = inst.reach.astype(float)
        # Storer x live cell: does the storer reach the cell's demander?
        self.live_reach = np.ascontiguousarray(inst.reach.T[:, self.live_nd] > 0)
        live_ns, self.live_demander = np.nonzero(
            (inst.reach.astype(bool) & ~origin[:, None]).T
        )
        self.demander_ptr = np.concatenate(
            ([0], np.cumsum(np.bincount(live_ns, minlength=self.reach.shape[1])))
        )

    def scope_ids(self, nd: np.ndarray, k: np.ndarray) -> np.ndarray:
        if self.scope is GoalScope.PER_USER:
            return nd
        if self.scope is GoalScope.OVERALL:
            return np.zeros_like(nd)
        if self.scope is GoalScope.PER_OBJECT:
            return k
        return nd * self.num_k + k

    def coverage(self, store: np.ndarray) -> np.ndarray:
        """Each live cell's fractional coverage: the store summed over the
        reaching storers, storer by storer from zero (one gather of the
        store at the live cells, reduced over the storer axis).

        That is ``np.einsum("ds,sik->dik", reach, store)``'s sum order, so
        the floats are its floats, except on a store of one (interval,
        object) column, which einsum sums as a dot product in its own order.
        """
        columns = store.reshape(store.shape[0], -1)
        if columns.shape[1] == 1:
            cov = np.einsum("ds,sik->dik", self.reach, store)
            return cov.reshape(cov.shape[0], -1)[self.live_nd, self.live_ik]
        # C order (``columns[:, live_ik]`` would be Fortran order), so the
        # reduction adds the storer rows one after another.
        cov = np.take(columns, self.live_ik, axis=1)
        cov *= self.live_reach
        return cov.sum(axis=0)


class _Rounder:
    """The Figure-5 loop: each unit priced once, re-priced only on change.

    Each unit owns a block of *entries*, one per demand cell it can move
    toward the goal: a (reaching demander, interval) pair with reads that
    the origin does not already cover, demander outer and interval inner.
    Consecutive entries of one unit with one goal scope form a *pair*.
    A unit's prices read only its own value, the two store cells around its
    run and its entry cells' coverage, so a step re-prices just the units
    with an entry on the rounded unit's cells and the units next to its
    run.  The cached round-down price keeps per-pair QoS deltas; whether
    they fit the goal is checked at pick time against the live per-scope
    coverage.  Every float expression is the per-cell loop's
    (``tests/core/rounding_oracle.py``) and every sum runs in entry order
    from zero, so the choices are the loop's to the byte.
    """

    def __init__(self, form: Formulation, store: np.ndarray, run_length: bool):
        self.form = form
        self.inst = form.instance
        self.goal = form.problem.goal
        if not isinstance(self.goal, QoSGoal):
            raise TypeError("rounding is defined for the QoS goal metric")
        self.costs = form.problem.costs
        self.store = store
        self.run_length = run_length
        index = form.rounding_index
        if index is None:
            index = form.rounding_index = _InstanceIndex(self.inst, self.goal.scope)

        # Per-scope satisfied coverage of the LP point (before snapping),
        # and the floor no scope may fall below: its requirement minus the
        # QoS slack.
        cov = index.coverage(store)
        covered = index.read.copy()
        covered[index.live] *= np.minimum(1.0, cov)
        sat = np.zeros(index.num_scopes)
        np.add.at(sat, index.scope_id, covered)
        req = index.reads_per_scope * self.goal.fraction
        self._sat = sat.tolist()
        self._floor = (req - _QOS_TOL * np.maximum(1.0, req)).tolist()

        self.units = self._collect_units()
        self._index_units(index, cov)
        n = len(self.units)
        self._pending = [True] * n
        # Cached keys (a unit's key tuple ends with the unit) and the heaps
        # they were pushed on; a popped key that is no longer its unit's
        # cached one is stale.  Round-down keys that did not fit the goal
        # are parked, and indexed by the goal scopes they move.
        self._up_key: List[Optional[tuple]] = [None] * n
        self._down_key: List[Optional[tuple]] = [None] * n
        self._keyed: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        self._up_heap: List[tuple] = []
        self._down_heap: List[tuple] = []
        self._parked: Dict[int, tuple] = {}
        self._parked_in: Dict[int, Set[int]] = {}
        self.rounded_up = 0
        self.rounded_down = 0
        #: Unit pricings after the first, one per unit a step touched.
        self.repriced = 0

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

    def _index_units(self, index: _InstanceIndex, cov: np.ndarray) -> None:
        """Unit columns, run neighbours, entries, pairs and the cell map."""
        ns_count, intervals, objects = self.store.shape
        ns, k, start, end = self.units.T
        n = len(self.units)
        self._ns, self._k, self._start, self._end = (
            ns.tolist(), k.tolist(), start.tolist(), end.tolist()
        )
        self._value = self.store[ns, start, k].tolist()
        self._length = (end - start + 1).astype(float).tolist()
        # Run boundaries for the creation-cost delta: the cell before the
        # run (or the initial placement) and the cell after it, if any.
        flat = self.store.reshape(-1)
        initial = self.inst.initial_store
        initial_at = initial[ns, k].astype(float) if initial is not None else np.zeros(n)
        prev_at = (ns * intervals + np.maximum(start - 1, 0)) * objects + k
        succ_at = (ns * intervals + np.minimum(end + 1, intervals - 1)) * objects + k
        self._prev = np.where(start > 0, flat[prev_at], initial_at).tolist()
        self._succ = flat[succ_at].tolist()
        self._has_succ = (end + 1 < intervals).tolist()
        # The units whose run ends right before / starts right after each
        # run: the only ones whose boundary cells a step writes.
        rows = list(zip(self._ns, self._k, self._start, self._end))
        by_start = {(a, b, lo): u for u, (a, b, lo, _hi) in enumerate(rows)}
        by_end = {(a, b, hi): u for u, (a, b, _lo, hi) in enumerate(rows)}
        self._left = [by_end.get((a, b, lo - 1), -1) for a, b, lo, _hi in rows]
        self._right = [by_start.get((a, b, hi + 1), -1) for a, b, _lo, hi in rows]

        # Entries: per unit, reaching non-origin-covered demanders x the
        # run's intervals, keeping the cells with reads.
        ptr = index.demander_ptr
        span = (ptr[ns + 1] - ptr[ns]) * (end - start + 1)
        unit = np.repeat(np.arange(n), span)
        offset = np.arange(unit.size) - np.repeat(np.cumsum(span) - span, span)
        length = end[unit] - start[unit] + 1
        nd = index.live_demander[ptr[ns[unit]] + offset // length]
        cell = (nd * intervals + start[unit] + offset % length) * objects + k[unit]
        # Keep the live cells, those with reads (the demander lists already
        # leave out the demanders the origin covers).
        slot = np.searchsorted(index.live_cell, cell)
        keep = slot < index.live_cell.size
        keep[keep] = index.live_cell[slot[keep]] == cell[keep]
        unit, slot = unit[keep], slot[keep]
        read = index.read[index.live][slot]
        scope = index.scope_ids(nd[keep], k[unit])
        # Entry cells get local numbers: their coverage and their count of
        # integral replicas (Figure 6's reward); snapping kept exactly the
        # cells at or above 1 - tol there.
        live, local = np.unique(slot, return_inverse=True)
        self._cov = cov[live].tolist()
        held = self.store.reshape(ns_count, -1)[:, index.live_ik[live]] >= 1.0 - _FRAC_TOL
        self._int_cov = (held & index.live_reach[:, live]).sum(axis=0).tolist()

        first = np.searchsorted(unit, np.arange(n + 1)).tolist()
        entries = list(zip(scope.tolist(), local.tolist(), read.tolist()))
        # Per unit, its pairs in entry order: (scope, [(cell, read), ...]).
        self._pairs: List[List[Tuple[int, List[Tuple[int, float]]]]] = []
        self._cell_units: List[List[int]] = [[] for _ in range(live.size)]
        for u in range(n):
            pairs: List[Tuple[int, List[Tuple[int, float]]]] = []
            for s, c, r in entries[first[u] : first[u + 1]]:
                if not pairs or pairs[-1][0] != s:
                    pairs.append((s, []))
                pairs[-1][1].append((c, r))
                self._cell_units[c].append(u)
            self._pairs.append(pairs)

    # -- pricing ------------------------------------------------------------------

    def _cost_delta(self, u: int, target: float) -> float:
        """Storage + creation cost change of setting unit ``u`` to target.

        Only the run boundaries change the creation cost: the create into
        ``start`` and the create into ``end + 1`` (interior creates of an
        equal-valued run are zero before and after).
        """
        value, prev = self._value[u], self._prev[u]
        delta = _pos(target - prev) - _pos(value - prev)
        if self._has_succ[u]:
            succ = self._succ[u]
            delta = delta + (_pos(succ - target) - _pos(succ - value))
        return self.costs.alpha * (target - value) * self._length[u] + self.costs.beta * delta

    def _price(self, u: int) -> None:
        """Cache unit ``u``'s round-up key and, when rounding it down saves
        cost, its round-down key and QoS deltas; push the keys."""
        self._release(u)
        tie = (self._ns[u], self._start[u], self._k[u], u)
        # Round-up: cost over the Figure-6 reward, the reachable demand no
        # integral replica covers yet.
        cost = self._cost_delta(u, 1.0)
        if 0.0 > cost:
            cost = 0.0
        int_cov = self._int_cov
        reward = 0.0
        for _scope, cells in self._pairs[u]:
            for cell, read in cells:
                if int_cov[cell] == 0:
                    reward += read
        key = (cost / reward if reward > 0 else math.inf, cost) + tie
        self._up_key[u] = key
        heapq.heappush(self._up_heap, key)

        # Round-down: savings per coverage lost; the pairs whose coverage
        # moves are the ones the goal check reads.
        savings = -self._cost_delta(u, 0.0)
        if not savings > 0:
            self._down_key[u] = None
            return
        change = 0.0 - self._value[u]
        cov = self._cov
        keyed = []
        lost = 0.0
        for scope, cells in self._pairs[u]:
            delta = 0.0
            moved = False
            for cell, read in cells:
                old = cov[cell]
                new = old + change
                gain = (new if new < 1.0 else 1.0) - (old if old < 1.0 else 1.0)
                delta += read * gain
                moved = moved or gain != 0.0
            if moved:
                keyed.append((scope, delta))
            lost += 0.0 if 0.0 < delta else delta
        key = (-(savings / (-lost + 1e-12)), -savings) + tie
        self._down_key[u] = key
        self._keyed[u] = keyed
        heapq.heappush(self._down_heap, key)

    def _fits(self, u: int) -> bool:
        """Whether rounding ``u`` down keeps every scope above its floor."""
        sat, floor = self._sat, self._floor
        return all(not sat[scope] + delta < floor[scope] for scope, delta in self._keyed[u])

    def _pick_up(self) -> int:
        """The pending unit with the smallest ``(ratio, cost, ns, start, k)``."""
        while True:
            key = heapq.heappop(self._up_heap)
            u = key[-1]
            if self._pending[u] and self._up_key[u] is key:
                return u

    def _pick_down(self) -> Optional[int]:
        """The pending unit with the smallest ``(-ratio, -savings, ns,
        start, k)`` among those that save cost and fit the goal, or None.

        One that does not fit is parked: the live coverage only falls in a
        round-down sweep, so it cannot fit again before a round-up raises
        the coverage of one of its scopes (:meth:`_unpark`) or a step
        re-prices it.
        """
        while self._down_heap:
            key = heapq.heappop(self._down_heap)
            u = key[-1]
            if not self._pending[u] or self._down_key[u] is not key:
                continue
            if self._fits(u):
                return u
            self._parked[u] = key
            for scope, _delta in self._keyed[u]:
                self._parked_in.setdefault(scope, set()).add(u)
        return None

    def _release(self, u: int) -> Optional[tuple]:
        """Take ``u`` out of the parked units; its parked key, if it had one."""
        key = self._parked.pop(u, None)
        if key is not None:
            for scope, _delta in self._keyed[u]:
                self._parked_in[scope].discard(u)
        return key

    def _unpark(self, u: int) -> None:
        """Return the parked units sharing a goal scope with ``u`` to the
        round-down heap, after rounding ``u`` up raised those scopes.

        Keys are unique (they end in the unit), so the order they are
        pushed in cannot change a pick.
        """
        for scope, _cells in self._pairs[u]:
            for v in list(self._parked_in.get(scope, ())):
                heapq.heappush(self._down_heap, self._release(v))

    # -- mutation -------------------------------------------------------------------

    def _apply(self, u: int, target: float) -> None:
        """Round ``u`` to target and re-price the units that step touched."""
        change = target - self._value[u]
        integral = target >= 1.0 - _FRAC_TOL  # a fractional unit became a replica
        cov, int_cov, sat = self._cov, self._int_cov, self._sat
        for scope, cells in self._pairs[u]:
            for cell, read in cells:
                old = cov[cell]
                new = old + change
                cov[cell] = new
                if integral:
                    int_cov[cell] += 1
                sat[scope] += read * ((new if new < 1.0 else 1.0) - (old if old < 1.0 else 1.0))
        self.store[self._ns[u], self._start[u] : self._end[u] + 1, self._k[u]] = target
        self._value[u] = target
        self._pending[u] = False
        self._release(u)
        left, right = self._left[u], self._right[u]
        if left >= 0:
            self._succ[left] = target
        if right >= 0:
            self._prev[right] = target
        cell_units = self._cell_units
        touched = {v for _s, cells in self._pairs[u] for c, _r in cells for v in cell_units[c]}
        touched.update((left, right))
        for v in touched:
            if v >= 0 and self._pending[v]:
                self._price(v)
                self.repriced += 1

    # -- the Figure-5 loop ---------------------------------------------------------

    def run(self) -> Tuple[int, int]:
        remaining = len(self.units)
        for u in range(remaining):
            self._price(u)
        while remaining:
            # Round-up step: lowest cost / reward ratio.
            best = self._pick_up()
            self._apply(best, 1.0)
            self.rounded_up += 1
            remaining -= 1
            self._unpark(best)

            # Round-down sweep: best savings per coverage lost, repeatedly.
            while True:
                candidate = self._pick_down()
                if candidate is None:
                    break
                self._apply(candidate, 0.0)
                self.rounded_down += 1
                remaining -= 1
        return self.rounded_up, self.rounded_down


def _pos(x: float) -> float:
    """``max(0.0, x)`` with Python's tie rule (a zero stays 0.0)."""
    return x if x > 0.0 else 0.0


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
    PERF.count("round.greedy.repriced", rounder.repriced)
    return _finish(
        form,
        rounder.store,
        repair,
        audit,
        fractional_units=num_units,
        rounded_up=up,
        rounded_down=down,
    )


def _finish(form: Formulation, store: np.ndarray, repair: bool, audit, **counts) -> RoundingResult:
    """Legalize, repair and price a rounder's integral store.

    Proposition 1 keeps zeros at zero, but independent up/down roundings in
    one column can still imply a creation at a forbidden interval for
    Know/Hist/React classes; backfill moves such creations to the latest
    permitted interval (extra storage only — coverage can only grow).  The
    final store's QoS is evaluated once, by the repair or here.
    """
    legalized = _enforce_create_legality(form, store)
    inst = form.instance
    goal = form.problem.goal
    if repair:
        repaired, qos = _repair(form, store)
    else:
        repaired, qos = 0, qos_by_scope(inst, goal, store)
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
        feasible=qos_met(goal, qos),
        repaired=repaired,
        legalized=legalized,
        qos=qos,
        **counts,
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
