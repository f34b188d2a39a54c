"""What HiGHS is given, and what a solving process imports to give it.

The scipy backend builds HiGHS's column-wise matrix from the model's
assembled CSR rows with NumPy, and loads only the HiGHS extension, not
``scipy.optimize`` or ``scipy.sparse``.  The matrix must be entry for entry
what ``scipy.sparse.csc_array`` makes of the same rows — in model order,
each with its own signs — and the extension, registered under its package
name, must serve a later ``import scipy.optimize`` as is.
"""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy import sparse

import repro
from repro.core.classes import STANDARD_CLASSES
from repro.core.formulation import build_formulation
from repro.lp.scipy_backend import _colwise
from tests.lp.test_warm_start import build_random_lp


def assert_colwise_matches_scipy(lp):
    a = lp.assembled()
    want = sparse.csc_array(
        sparse.csr_array((a.data, a.indices, a.indptr), shape=(a.nrows, a.nvars))
    )
    start, index, value = _colwise(a)
    for got, ref in ((start, want.indptr), (index, want.indices), (value, want.data)):
        np.testing.assert_array_equal(got, ref)
    # Bit for bit, signed zeros included.
    assert value.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("problem_name", ["web_problem", "group_problem"])
@pytest.mark.parametrize("class_name", sorted(STANDARD_CLASSES))
def test_colwise_matrix_equals_scipy_csc_on_fixtures(request, problem_name, class_name):
    problem = request.getfixturevalue(problem_name)
    form = build_formulation(problem, STANDARD_CLASSES[class_name].properties)
    assert_colwise_matches_scipy(form.lp)


def test_colwise_matrix_equals_scipy_csc_with_both_blocks():
    # Inequality and equality rows interleaved in one model-order matrix
    # (they were once split into a <= block over an == block).
    mixed = 0
    for seed in range(12):
        lp = build_random_lp(seed, senses=("<=", ">=", "=="))
        assert_colwise_matches_scipy(lp)
        mixed += len(set(lp.assembled().sense.tolist())) == 3
    assert mixed  # <=, >= and == rows in one matrix


def test_missing_extension_raises_import_error_naming_the_directory(monkeypatch, tmp_path):
    import scipy

    from repro.lp import scipy_backend

    loaded = sys.modules.get(scipy_backend._CORE_NAME)
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "optimize" / "_highspy"))):
        scipy_backend._load_core()
    assert sys.modules.get(scipy_backend._CORE_NAME) is loaded


_GUARD_SCRIPT = r"""
import json, sys

import numpy as np

from repro.core.bounds import compute_lower_bound
from repro.core.classes import get_class
from repro.core.costs import CostModel
from repro.core.goals import QoSGoal
from repro.core.problem import MCPerfProblem
from repro.topology.generators import as_level_topology
from repro.workload.demand import DemandMatrix
from repro.workload.generators import web_workload

problem = MCPerfProblem(
    topology=as_level_topology(num_nodes=8, seed=1),
    demand=DemandMatrix.from_trace(
        web_workload(num_nodes=8, num_objects=24, requests_scale=0.02, seed=7),
        num_intervals=6,
    ),
    goal=QoSGoal(tlat_ms=150.0, fraction=0.9),
    costs=CostModel.paper_defaults(),
)
result = compute_lower_bound(problem, get_class("general").properties, audit="fast")
out = {
    "feasible": result.feasible,
    "audit_ok": result.audit.ok,
    "loaded": sorted(m for m in ("scipy.optimize", "scipy.sparse") if m in sys.modules),
}
core = sys.modules["scipy.optimize._highspy._core"]
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

out["reused"] = sys.modules["scipy.optimize._highspy._core"] is core
lp = linprog([-1.0, -2.0], A_ub=[[1.0, 1.0]], b_ub=[3.0], bounds=[(0, 2), (0, 2)])
out["linprog"] = [lp.status, lp.fun]
mip = milp([-1.0, -2.0], integrality=[1, 1], bounds=Bounds(0, 2),
           constraints=LinearConstraint([[1.0, 1.0]], -np.inf, 3.0))
out["milp"] = [mip.status, mip.fun]
print(json.dumps(out))
"""


def run_fresh(script):
    """Run ``script`` in a fresh interpreter; its last stdout line, as JSON."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_solving_process_imports_neither_scipy_optimize_nor_sparse():
    out = run_fresh(_GUARD_SCRIPT)
    assert out["feasible"] and out["audit_ok"]
    assert out["loaded"] == []
    # scipy.optimize took the registered extension and solves with it.
    assert out["reused"]
    assert out["linprog"] == [0, -5.0]
    assert out["milp"] == [0, -5.0]


_THREADS_SCRIPT = r"""
import json, sys, threading

sys.setswitchinterval(1e-6)
from repro.lp.model import LinearProgram
from repro.perf import PERF

results, barrier = [], threading.Barrier(4)

def first_solve():
    lp = LinearProgram()
    lp.var("x", upper=2.0, obj=-1.0)
    lp.var("y", upper=2.0, obj=-2.0)
    lp.add_row([0, 1], [1.0, 1.0], "<=", 3.0)
    barrier.wait(timeout=60)
    results.append(lp.solve().objective)

threads = [threading.Thread(target=first_solve) for _ in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=120)
assert not any(t.is_alive() for t in threads)
print(json.dumps({"objectives": results, "loads": PERF.timer_calls["lp.highs.load"]}))
"""


def test_concurrent_first_solves_load_one_extension():
    out = run_fresh(_THREADS_SCRIPT)
    assert out == {"objectives": [-5.0] * 4, "loads": 1}
