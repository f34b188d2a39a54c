"""True integrality gap of the rounding (exact IP via HiGHS MIP).

§5 of the paper: solving the IP exactly is "feasible only at a very small
scale", so the method argues tightness from the LP-vs-rounded gap.  With
the exact mode this bench measures the *true* gap — rounded cost vs the
integral optimum — on an instance beyond brute-force size, confirming the
rounded solutions the whole methodology leans on are genuinely near-optimal.
"""

import pytest

from repro.analysis.report import render_series_table
from repro.core.costs import CostModel
from repro.core.exact import compute_exact_bound
from repro.core.goals import QoSGoal
from repro.core.problem import MCPerfProblem
from repro.topology.generators import as_level_topology
from repro.workload.demand import DemandMatrix
from repro.workload.generators import web_workload

from benchmarks.conftest import TLAT_MS, write_report

LEVELS = [0.7, 0.85]


def run_exact_gap():
    topo = as_level_topology(num_nodes=8, seed=4)
    trace = web_workload(
        num_nodes=8, num_objects=12, populations=topo.populations,
        requests_scale=0.02, seed=2,
    )
    demand = DemandMatrix.from_trace(trace, num_intervals=5)
    rows = []
    results = []
    for level in LEVELS:
        problem = MCPerfProblem(
            topology=topo,
            demand=demand,
            goal=QoSGoal(tlat_ms=TLAT_MS, fraction=level),
            costs=CostModel.paper_defaults(),
        )
        exact = compute_exact_bound(problem, node_limit=4_000)
        rows.append(
            [
                f"{level:.0%}",
                round(exact.lp_cost, 1) if exact.lp_cost else None,
                round(exact.exact_cost, 1) if exact.exact_cost else None,
                round(exact.rounded_cost, 1) if exact.rounded_cost else None,
                exact.status,
                exact.nodes,
            ]
        )
        results.append(exact)
    return rows, results


def test_exact_gap(benchmark):
    rows, results = benchmark.pedantic(run_exact_gap, rounds=1, iterations=1)
    write_report(
        "exact_gap",
        render_series_table(
            "True integrality gap (WEB, 8 nodes x 5 intervals x 12 objects)",
            ["QoS", "LP bound", "exact IP", "rounded", "status", "MIP nodes"],
            rows,
        ),
    )
    # Pinned on the earlier hand-written branch and bound: at 70 % it left
    # the bracket [41.59, 42] at its node limit, at 85 % it proved 63.
    at70, at85 = results
    assert at70.status == at85.status == "optimal"
    assert at70.exact_cost == pytest.approx(42.0, abs=1e-6)
    assert 41.589091 - 1e-5 <= at70.exact_cost <= 42.0
    assert at85.exact_cost == pytest.approx(63.0, abs=1e-6)
    # At 85 % the integral optimum is below the greedy rounded cost.
    assert at85.rounded_cost == pytest.approx(64.0, abs=1e-6)
    for exact in results:
        assert exact.feasible
        # Bracket always holds, even on node-limited runs.
        assert exact.lower_bound >= exact.lp_cost - 1e-6
        if exact.exact_cost is not None:
            assert exact.exact_cost >= exact.lp_cost - 1e-6
        if exact.status == "optimal" and exact.rounded_cost is not None:
            assert exact.rounded_cost >= exact.exact_cost - 1e-6
            # The paper's tightness claim, now against the true optimum.
            assert exact.rounding_gap is not None
            assert exact.rounding_gap <= 0.15
