"""The per-cell Python greedy rounder, frozen as a test oracle.

This is the Appendix-C (Figures 5–7) loop exactly as ``repro.core.rounding``
ran it before the rounder moved to arrays: every step re-prices every
pending unit cell by cell.  Tests and the hot-path bench compare the array
rounder against it — identical ``store`` bytes and identical round-up /
round-down counts on every instance.  ``loop_repair`` is the goal repair as
it ran before its QoS reads were hoisted out of the candidate loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.evaluate import qos_by_scope
from repro.core.formulation import Formulation
from repro.core.goals import GoalScope, QoSGoal, scope_key
from repro.core.rounding import _FRAC_TOL, _QOS_TOL


@dataclass
class _Unit:
    """A roundable unit: one fractional cell, or a run of equal cells."""

    ns: int
    k: int
    start: int  # first interval of the run
    end: int  # last interval (inclusive)
    value: float

    @property
    def length(self) -> int:
        return self.end - self.start + 1


class LoopRounder:
    """Stateful implementation of the Figure-5 loop."""

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

        reach = self.inst.reach.astype(bool)
        self.reachers: List[np.ndarray] = [
            np.nonzero(reach[:, ns])[0] for ns in range(self.inst.num_storers)
        ]
        # Fractional coverage sums per demand cell.
        self.cov = np.einsum("ds,sik->dik", self.inst.reach.astype(float), store)
        self.reads = self.inst.qos_reads()
        # Integral-replica coverage counts (for Figure 6's reward): number of
        # already-rounded-to-1 stores reaching each demand cell.  Maintained
        # incrementally by _apply so reward lookups are O(affected cells).
        self.int_cov = np.einsum(
            "ds,sik->dik",
            self.inst.reach.astype(np.int64),
            (store >= 1.0 - _FRAC_TOL).astype(np.int64),
        )

        # Per-scope satisfied coverage and requirements.
        self.sat: Dict[object, float] = {}
        self.req: Dict[object, float] = {}
        self._init_scope_tracking()

        self.units = self._collect_units()
        self.rounded_up = 0
        self.rounded_down = 0

    # -- scope bookkeeping ---------------------------------------------------

    def _scope_key(self, nd: int, k: int):
        scope = self.goal.scope
        if scope is GoalScope.PER_USER:
            return nd
        if scope is GoalScope.OVERALL:
            return "all"
        if scope is GoalScope.PER_OBJECT:
            return ("k", k)
        return (nd, k)

    def _init_scope_tracking(self) -> None:
        inst = self.inst
        for nd in range(inst.num_demanders):
            origin = bool(inst.origin_covers[nd])
            nz = np.nonzero(self.reads[nd])
            for i, k in zip(*nz):
                r = float(self.reads[nd, i, k])
                key = self._scope_key(nd, int(k))
                self.req[key] = self.req.get(key, 0.0) + r
                covered = r if origin else r * min(1.0, float(self.cov[nd, i, k]))
                self.sat[key] = self.sat.get(key, 0.0) + covered
        for key in self.req:
            self.req[key] *= self.goal.fraction

    # -- unit collection -------------------------------------------------------

    def _collect_units(self) -> List[_Unit]:
        ns_count, intervals, _objects = self.store.shape
        # Snap near-integral values.
        self.store[self.store < _FRAC_TOL] = 0.0
        self.store[self.store > 1.0 - _FRAC_TOL] = 1.0
        units: List[_Unit] = []
        frac_ns, frac_i, frac_k = np.nonzero(
            (self.store > 0.0) & (self.store < 1.0)
        )
        if not self.run_length:
            for ns, i, k in zip(frac_ns, frac_i, frac_k):
                units.append(_Unit(int(ns), int(k), int(i), int(i), float(self.store[ns, i, k])))
            return units
        # Group consecutive equal-valued intervals per (ns, k).
        by_pair: Dict[Tuple[int, int], List[int]] = {}
        for ns, i, k in zip(frac_ns, frac_i, frac_k):
            by_pair.setdefault((int(ns), int(k)), []).append(int(i))
        for (ns, k), idxs in by_pair.items():
            idxs.sort()
            start = idxs[0]
            prev = idxs[0]
            value = float(self.store[ns, prev, k])
            for i in idxs[1:]:
                v = float(self.store[ns, i, k])
                if i == prev + 1 and abs(v - value) < 1e-9:
                    prev = i
                    continue
                units.append(_Unit(ns, k, start, prev, value))
                start, prev, value = i, i, v
            units.append(_Unit(ns, k, start, prev, value))
        return units

    # -- pricing ------------------------------------------------------------------

    def _beta_delta(self, unit: _Unit, target: float) -> float:
        """Exact change in replica-creation cost from setting the unit to target.

        Only the run boundaries change: the create into ``start`` and the
        create into ``end + 1`` (interior creates of an equal-valued run are
        zero before and after).
        """
        ns, k = unit.ns, unit.k
        before_prev = (
            self.store[ns, unit.start - 1, k] if unit.start > 0 else self.initial[ns, k]
        )
        old_in = max(0.0, unit.value - before_prev)
        new_in = max(0.0, target - before_prev)
        delta = new_in - old_in
        if unit.end + 1 < self.store.shape[1]:
            succ = self.store[ns, unit.end + 1, k]
            old_out = max(0.0, succ - unit.value)
            new_out = max(0.0, succ - target)
            delta += new_out - old_out
        return self.costs.beta * delta

    def _cost_delta(self, unit: _Unit, target: float) -> float:
        """Storage + creation cost change of rounding the unit to target."""
        alpha_part = self.costs.alpha * (target - unit.value) * unit.length
        return alpha_part + self._beta_delta(unit, target)

    def _qos_effects(self, unit: _Unit, target: float) -> Dict[object, float]:
        """Per-scope-key change in satisfied coverage (without mutating state)."""
        deltas: Dict[object, float] = {}
        change = target - unit.value
        for nd in self.reachers[unit.ns]:
            for i in range(unit.start, unit.end + 1):
                r = self.reads[nd, i, unit.k]
                if r <= 0 or self.inst.origin_covers[nd]:
                    continue
                old = float(self.cov[nd, i, unit.k])
                gain = min(1.0, old + change) - min(1.0, old)
                if gain != 0.0:
                    key = self._scope_key(int(nd), unit.k)
                    deltas[key] = deltas.get(key, 0.0) + float(r) * gain
        return deltas

    def _reward(self, unit: _Unit) -> float:
        """Figure-6 reward: demand reachable from the unit's node that no
        integral replica already covers (cached counts, O(affected cells))."""
        reward = 0.0
        for nd in self.reachers[unit.ns]:
            if self.inst.origin_covers[nd]:
                continue
            for i in range(unit.start, unit.end + 1):
                r = self.reads[nd, i, unit.k]
                if r > 0 and self.int_cov[nd, i, unit.k] == 0:
                    reward += float(r)
        return reward

    # -- mutation -------------------------------------------------------------------

    def _apply(self, unit: _Unit, target: float) -> None:
        change = target - unit.value
        int_delta = 1 if target >= 1.0 - _FRAC_TOL else 0
        for nd in self.reachers[unit.ns]:
            for i in range(unit.start, unit.end + 1):
                r = self.reads[nd, i, unit.k]
                old = float(self.cov[nd, i, unit.k])
                self.cov[nd, i, unit.k] = old + change
                if int_delta:
                    # A fractional unit became an integral replica.
                    self.int_cov[nd, i, unit.k] += 1
                if r <= 0 or self.inst.origin_covers[nd]:
                    continue
                gain = min(1.0, old + change) - min(1.0, old)
                if gain != 0.0:
                    key = self._scope_key(int(nd), unit.k)
                    self.sat[key] = self.sat.get(key, 0.0) + float(r) * gain
        self.store[unit.ns, unit.start : unit.end + 1, unit.k] = target
        unit.value = target

    def _down_feasible(self, unit: _Unit) -> Optional[Dict[object, float]]:
        """QoS deltas of rounding down, or None when the goal would break."""
        deltas = self._qos_effects(unit, 0.0)
        for key, delta in deltas.items():
            slack = _QOS_TOL * max(1.0, self.req.get(key, 0.0))
            if self.sat.get(key, 0.0) + delta < self.req.get(key, 0.0) - slack:
                return None
        return deltas

    # -- the Figure-5 loop ---------------------------------------------------------

    def run(self) -> Tuple[int, int]:
        pending = list(self.units)
        while pending:
            # Round-up step: lowest cost / reward ratio.
            best = None
            best_key = None
            for unit in pending:
                cost = max(self._cost_delta(unit, 1.0), 0.0)
                reward = self._reward(unit)
                ratio = cost / reward if reward > 0 else float("inf")
                key = (ratio, cost, unit.ns, unit.start, unit.k)
                if best_key is None or key < best_key:
                    best, best_key = unit, key
            assert best is not None
            self._apply(best, 1.0)
            self.rounded_up += 1
            pending.remove(best)

            # Round-down sweep: best savings per coverage lost, repeatedly.
            while True:
                candidate = None
                candidate_key = None
                candidate_deltas = None
                for unit in pending:
                    deltas = self._down_feasible(unit)
                    if deltas is None:
                        continue
                    savings = -self._cost_delta(unit, 0.0)
                    if savings <= 0:
                        continue
                    lost = -sum(min(d, 0.0) for d in deltas.values())
                    ratio = savings / (lost + 1e-12)
                    key = (-ratio, -savings, unit.ns, unit.start, unit.k)
                    if candidate_key is None or key < candidate_key:
                        candidate, candidate_key, candidate_deltas = unit, key, deltas
                if candidate is None:
                    break
                del candidate_deltas  # applied via _apply below
                self._apply(candidate, 0.0)
                self.rounded_down += 1
                pending.remove(candidate)
        return self.rounded_up, self.rounded_down


def loop_repair(form: Formulation, store: np.ndarray, max_steps: int = 10_000) -> int:
    """Greedy round-up repair: add permitted replicas until the goal holds.

    Candidates are cells the formulation created store variables for (so all
    class restrictions remain respected).  Each step adds the replica with
    the best uncovered-demand gain.  Returns the number of replicas added.
    """
    inst = form.instance
    goal = form.problem.goal
    if not isinstance(goal, QoSGoal):
        return 0
    steps = 0
    for _ in range(max_steps):
        achieved = qos_by_scope(inst, goal, store)
        failing = {key for key, v in achieved.items() if v < goal.fraction - 1e-9}
        if not failing:
            return steps
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
                r = inst.qos_reads()[nd, i, k] if inst.warmup_intervals else inst.reads[nd, i, k]
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
