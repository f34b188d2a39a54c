"""The brownout approximation never exceeds the exact bound it stands in for.

Under pressure the service answers a bound query with a one-interval solve
(``PlacementService._bound_task(..., approx=True)``).  Aggregating any
placement of the exact multi-interval problem into one interval (store
once wherever it is ever stored) is feasible there at no higher cost, so
the approximate answer must be at most the exact one for every class —
and feasible whenever the exact one is.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classes import STANDARD_CLASSES, get_class
from repro.service import PlacementService


def service(topology, trace, tlat_ms):
    # _bound_task reads only the daemon's task parameters and its traces.
    daemon = SimpleNamespace(
        task=SimpleNamespace(topology=topology, tlat_ms=tlat_ms, alpha=1.0, beta=1.0),
        _traces={0: trace},
    )
    return PlacementService(daemon)


@settings(max_examples=40, deadline=None)
@given(
    workload=st.sampled_from(["web", "group"]),
    class_name=st.sampled_from(sorted(STANDARD_CLASSES)),
    qos=st.sampled_from([0.5, 0.9, 0.99]),
    tlat_ms=st.sampled_from([100.0, 150.0]),
)
def test_approx_bound_is_at_most_the_exact_bound(
    small_topology, web_trace, group_trace, workload, class_name, qos, tlat_ms
):
    trace = web_trace if workload == "web" else group_trace
    svc = service(small_topology, trace, tlat_ms)
    klass = get_class(class_name)
    exact = svc._bound_task(klass, qos, "auto", 0).run()
    approx = svc._bound_task(klass, qos, "auto", 0, approx=True).run()
    if exact.feasible:
        assert approx.feasible
        assert approx.lp_cost <= exact.lp_cost + 1e-9 * max(1.0, exact.lp_cost)
