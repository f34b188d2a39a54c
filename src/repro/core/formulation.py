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
In the classes where nothing ties a storer's cells to that storer (no
storage constraint, node opening or creation mask), a storer whose covering
set for k another storer contains gets no chain for k at all
(:func:`compute_dominated_storers`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.problem import MCPerfProblem, PlacementInstance
from repro.core.properties import HeuristicProperties, StorageConstraint
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
    # The greedy rounder's index of ``instance`` (repro.core.rounding), built
    # on first use; a QoS re-target leaves the instance, so it stays.
    rounding_index: Optional[object] = field(default=None, init=False, repr=False, compare=False)

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


def compute_dominated_storers(
    instance: PlacementInstance,
    props: HeuristicProperties,
    allowed: Optional[np.ndarray],
    use_open: bool,
) -> Optional[np.ndarray]:
    """The (Ns, K) mask of (storer, object) pairs whose chain is never built.

    ``D_k(n)`` is the set of demanders with a goal read of k that storer n
    reaches and the origin does not cover.  Storer c dominates a for k
    when ``D_k(a) ⊆ D_k(c)`` and a holds no initial replica of k that c
    lacks; among pairs alike in both, the lower index dominates.  That
    order is strict, so every dominated pair has an undominated dominator,
    and a pair is dropped when any storer dominates it.

    Under a QoS goal with no storage constraint, no node-opening
    variables and no creation mask, moving a's chain into c as
    ``min(1, s_c + s_a)`` (and ``min(1, create_c + create_a)``) keeps
    every cover row (c reaches every demander a did, in every interval of
    a's demand window), only loosens the rc rows, and costs no more:
    alpha + delta*writes is the same at every storer and the positive
    variation of ``min(1, x + y)`` is at most the sum of the two.  It
    keeps integral points integral, so the LP bound and the integral
    optimum are both unchanged.  Returns None for any other class, whose
    sc/open rows or creation mask tie a storer's cells to that storer.
    """
    if (
        props.storage_constraint is not StorageConstraint.NONE
        or use_open
        or allowed is not None
    ):
        return None
    reads = instance.qos_reads()
    demand = (reads.sum(axis=1) > 0) & (instance.origin_covers == 0)[:, None]  # (Nd, K)
    reach = instance.reach.astype(np.float64)  # (Nd, Ns)
    # shared[k, a, c] = |D_k(a) ∩ D_k(c)|, exact in float64.
    shared = (demand.T[:, None, :] * reach.T[None, :, :]) @ reach
    size = np.diagonal(shared, axis1=1, axis2=2)  # (K, Ns): |D_k(n)|
    covers = shared == size[:, :, None]  # covers[k, a, c]: D_k(a) ⊆ D_k(c)
    ns_count = instance.num_storers
    if instance.initial_store is not None:
        held = (instance.initial_store > 0).T  # (K, Ns)
    else:
        held = np.zeros((reads.shape[2], ns_count), dtype=bool)
    held_a, held_c = held[:, :, None], held[:, None, :]
    alike = covers & covers.transpose(0, 2, 1) & (held_a == held_c)
    lower = np.arange(ns_count)[None, :, None] > np.arange(ns_count)[None, None, :]
    beaten = covers & (held_a <= held_c) & (~alike | lower)
    return beaten.any(axis=2).T


def build_formulation(
    problem: MCPerfProblem,
    properties: Optional[HeuristicProperties] = None,
    with_open_vars: Optional[bool] = None,
) -> Formulation:
    """Assemble the MC-PERF LP for one heuristic class.

    The bulk row families are built as NumPy blocks
    (:mod:`repro.core.assembly`).

    Parameters
    ----------
    problem:
        The system/workload/goal/cost specification.
    properties:
        The heuristic class's properties; ``None`` builds the general bound.
    with_open_vars:
        Force node-opening variables on/off; by default they are created
        iff ``problem.costs.zeta > 0``.
    """
    from repro.core.assembly import build_formulation_vectorized

    PERF.count("form.build.vectorized")
    with PERF.timer("form.build"):
        return build_formulation_vectorized(problem, properties, with_open_vars)
