"""Linear-programming substrate.

A small, self-contained LP modeling layer used by the MC-PERF formulation in
:mod:`repro.core`.  It provides:

* :class:`~repro.lp.model.LinearProgram` — an LP held in the one form HiGHS
  takes: column arrays, model-order CSR rows and row bounds, built a row or
  a family at a time, with names rendered on demand.
* :class:`~repro.lp.solution.LPSolution` — solved values, objective and status.
* :func:`~repro.lp.scipy_backend.solve_with_scipy` — the production backend:
  HiGHS through scipy's bindings, fed exactly what ``linprog`` would feed it,
  returning HiGHS's optimal basis alongside values and duals, and re-solving
  patched models hot inside the HiGHS instance it keeps on the model;
  :func:`~repro.lp.scipy_backend.solve_mip` solves the same model with
  chosen columns integral, on HiGHS's own MIP solver.
* :func:`~repro.audit.certificates.check_solution` — an independent
  feasibility checker used by tests and by the rounding algorithm
  (re-exported here; it lives in the audit subsystem).
* :func:`~repro.lp.diagnose.diagnose_infeasibility` — constraint-family
  deletion filter that names what an infeasibility runs through.

The paper used CPLEX; any exact LP solver produces the same optimum, so the
choice of backend does not affect the reproduced results (see DESIGN.md).
HiGHS is the one solver; the ``full`` audit certifies each optimum it
reports by weak duality (:func:`repro.audit.dual_bound`) instead of
re-solving on a second solver.
"""

from repro.lp.model import LinearProgram, LPArrays, Names, Sense
from repro.lp.solution import LPSolution, MIPSolution, SolveStatus
from repro.lp.basis import Basis
from repro.lp.scipy_backend import solve_mip, solve_with_scipy
from repro.audit.certificates import ValidationReport, check_solution
from repro.lp.diagnose import InfeasibilityDiagnosis, diagnose_infeasibility

__all__ = [
    "LinearProgram",
    "LPArrays",
    "Names",
    "Sense",
    "LPSolution",
    "MIPSolution",
    "SolveStatus",
    "Basis",
    "solve_with_scipy",
    "solve_mip",
    "check_solution",
    "ValidationReport",
    "InfeasibilityDiagnosis",
    "diagnose_infeasibility",
]
