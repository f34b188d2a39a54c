"""The per-cell placement certificate, frozen as the array version's oracle.

This is ``repro.audit.certificates._placement_report`` as it stood before
creation legality ran on arrays: it walks every (storer, object, interval)
cell in Python, carrying the previous interval's value (the initial
placement before interval 0) and flagging each rise by more than ``tol``
where the class may not create a replica.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.audit.certificates import PlacementReport


def oracle_placement_report(
    instance,
    properties,
    goal,
    costs,
    store: np.ndarray,
    allowed: Optional[np.ndarray],
    count_opening: bool,
    tol: float,
    max_reported: int,
) -> PlacementReport:
    """The placement certificate against a lowered instance (no LP needed)."""
    from repro.core.evaluate import meets_goal, solution_cost

    problems: List[str] = []

    expected = (instance.num_storers, instance.num_intervals, instance.num_objects)
    if store.shape != expected:
        raise ValueError(f"store has shape {store.shape}, expected {expected}")

    # 1. integrality
    fractional = np.nonzero((store > tol) & (store < 1 - tol))
    integral = len(fractional[0]) == 0
    if not integral:
        for ns, i, k in list(zip(*fractional))[:max_reported]:
            problems.append(f"fractional store[{ns},{i},{k}]={store[ns, i, k]:.4f}")

    # 2. creation legality
    creation_legal = True
    if allowed is not None:
        initial = (
            instance.initial_store
            if instance.initial_store is not None
            else np.zeros((store.shape[0], store.shape[2]))
        )
        reported = 0
        for ns in range(store.shape[0]):
            for k in range(store.shape[2]):
                prev = float(initial[ns, k])
                for i in range(store.shape[1]):
                    cur = float(store[ns, i, k])
                    if cur > prev + tol and not allowed[ns, i, k]:
                        creation_legal = False
                        if reported < max_reported:
                            problems.append(
                                f"creation at store[{ns},{i},{k}] violates the "
                                "class's history/knowledge restriction"
                            )
                            reported += 1
                    prev = cur

    # 3. goal
    goal_met = meets_goal(instance, goal, store)
    if not goal_met:
        problems.append("performance goal not met")

    # 4. cost
    cost = solution_cost(
        instance,
        properties,
        costs,
        store,
        goal=goal,
        count_opening=count_opening,
    )

    return PlacementReport(
        valid=integral and creation_legal and goal_met,
        integral=integral,
        creation_legal=creation_legal,
        goal_met=goal_met,
        cost=cost,
        problems=problems,
    )
