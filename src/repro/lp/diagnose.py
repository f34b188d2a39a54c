"""Infeasibility diagnostics for assembled LPs.

When an MC-PERF relaxation comes back infeasible, "the class cannot meet
the goal" is true but unhelpful: *which* requirement broke it?  The rows
built by :mod:`repro.core.formulation` carry family-prefixed names
(``qos[...]``, ``sc[...]``, ``rc[...]``, ``cover[...]``, ``avg[...]``,
``route-one[...]``; auto-named ``c<n>`` rows are the store/create coupling
structure).  :func:`diagnose_infeasibility` relaxes one family at a time and
re-solves: a family whose removal restores feasibility is *binding* — the
conflict runs through it.

This is the classic deletion-filter step of IIS isolation, coarsened to
constraint families so the answer reads as "the replica constraint conflicts
with the QoS goal" instead of a list of 400 row names.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.lp.model import LinearProgram
from repro.lp.solution import SolveStatus


def constraint_family(name: str) -> str:
    """The family prefix of a constraint name (text before the first ``[``).

    Auto-generated names (``c0``, ``c17``, ...) collapse to ``"coupling"`` —
    in MC-PERF models every unnamed row is store/create coupling structure.
    """
    prefix = name.split("[", 1)[0]
    if prefix.startswith("c") and prefix[1:].isdigit():
        return "coupling"
    return prefix or "coupling"


@dataclass
class InfeasibilityDiagnosis:
    """Which constraint families participate in an infeasibility.

    Attributes
    ----------
    binding:
        Families whose removal (alone) makes the model feasible — the
        conflict necessarily runs through each of them.
    families:
        Row count per family, for scale context in reports.
    isolated:
        False when no single family's removal restores feasibility (the
        conflict spans bound constraints or multiple families at once).
    """

    binding: List[str] = field(default_factory=list)
    families: Dict[str, int] = field(default_factory=dict)
    isolated: bool = True

    def render(self) -> str:
        if not self.families:
            return "no constraints to diagnose"
        if not self.binding:
            return (
                "no single constraint family is binding on its own "
                "(conflict spans variable bounds or several families)"
            )
        parts = [f"{name} ({self.families[name]} rows)" for name in self.binding]
        return "binding constraint families: " + ", ".join(parts)


def diagnose_infeasibility(
    model: LinearProgram, backend: str = "auto"
) -> InfeasibilityDiagnosis:
    """Find the constraint families a conflict runs through.

    Solves one relaxation per family present in ``model`` (families are few
    — this is a handful of extra LP solves, not per-row work).  Intended for
    models already known infeasible; on a feasible model every family comes
    back non-binding.
    """
    of_row = np.array([constraint_family(name) for name in model.row_names()], dtype=object)
    families: Dict[str, int] = {}
    for fam in of_row.tolist():
        families[fam] = families.get(fam, 0) + 1

    diagnosis = InfeasibilityDiagnosis(families=families)
    for fam in sorted(families):
        # The family's rows freed: -inf <= A x <= +inf binds nothing.
        drop = of_row == fam
        relaxed = copy.deepcopy(model)
        relaxed.name = f"{model.name}/without-{fam}"
        arrays = relaxed.assembled()
        arrays.row_lower[drop] = -np.inf
        arrays.row_upper[drop] = np.inf
        solution = relaxed.solve(backend=backend)
        if solution.status is not SolveStatus.INFEASIBLE:
            diagnosis.binding.append(fam)
    diagnosis.isolated = bool(diagnosis.binding)
    return diagnosis
