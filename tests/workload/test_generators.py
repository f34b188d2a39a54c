"""Tests for the WEB / GROUP workload generators."""

import numpy as np
import pytest

from repro.runner.digest import digest_of
from repro.topology.generators import as_level_topology
from repro.workload import generators
from repro.workload.generators import (
    WorkloadSpec,
    _sample_times,
    flash_crowd_workload,
    group_workload,
    synthetic_workload,
    web_workload,
)
from repro.workload.trace import Request, Trace
from repro.workload.stats import characterize, object_counts


def test_web_matches_paper_anchors_at_full_scale():
    trace = web_workload(num_nodes=5, num_objects=1000, requests_scale=1.0, seed=1)
    stats = characterize(trace)
    assert stats.max_object_count == 36_000
    assert stats.min_object_count == 1
    assert stats.num_requests == pytest.approx(300_000, rel=0.15)


def test_web_scaled_keeps_heavy_tail():
    trace = web_workload(num_nodes=5, num_objects=100, requests_scale=0.02, seed=1)
    counts = object_counts(trace)
    assert counts.max() >= 100 * counts[counts > 0].min()


def test_web_deterministic():
    a = web_workload(num_nodes=4, num_objects=20, requests_scale=0.01, seed=9)
    b = web_workload(num_nodes=4, num_objects=20, requests_scale=0.01, seed=9)
    assert [(r.time_s, r.node, r.obj) for r in a] == [(r.time_s, r.node, r.obj) for r in b]


def test_web_rejects_bad_scale():
    with pytest.raises(ValueError):
        web_workload(requests_scale=0.0)


def test_group_all_objects_popular():
    trace = group_workload(num_nodes=5, num_objects=30, requests_scale=0.01, seed=2)
    counts = object_counts(trace)
    assert (counts > 0).all()
    # Uniform band: max/min ratio bounded by ~36000/8500 plus sampling noise.
    assert counts.max() / counts.min() < 8.0


def test_group_full_scale_band():
    trace = group_workload(num_nodes=3, num_objects=40, requests_scale=1.0, seed=2)
    counts = object_counts(trace)
    assert counts.min() >= 8_000
    assert counts.max() <= 36_500


def test_group_rejects_bad_scale():
    with pytest.raises(ValueError):
        group_workload(requests_scale=-1.0)


def test_populations_skew_demand():
    pops = [10.0, 1.0, 1.0, 1.0]
    trace = web_workload(num_nodes=4, num_objects=50, populations=pops, requests_scale=0.05, seed=3)
    per_node = characterize(trace).reads_per_node
    assert per_node[0] > 3 * per_node[1]


def test_requests_within_duration():
    trace = group_workload(num_nodes=3, num_objects=10, requests_scale=0.001, duration_s=1000.0)
    assert all(0 <= r.time_s < 1000.0 for r in trace)


def test_write_fraction():
    spec = WorkloadSpec(
        num_nodes=2,
        num_objects=5,
        counts=np.full(5, 200),
        write_fraction=0.5,
        seed=4,
    )
    trace = synthetic_workload(spec)
    frac = trace.num_writes / len(trace)
    assert 0.4 < frac < 0.6


def test_diurnal_concentrates_midday():
    spec = WorkloadSpec(
        num_nodes=1,
        num_objects=3,
        counts=np.full(3, 2000),
        diurnal=True,
        seed=5,
    )
    trace = synthetic_workload(spec)
    mid = sum(1 for r in trace if 0.25 < r.time_s / trace.duration_s < 0.75)
    assert mid / len(trace) > 0.55


def test_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(num_nodes=0, num_objects=1, counts=np.array([1]))
    with pytest.raises(ValueError):
        WorkloadSpec(num_nodes=1, num_objects=2, counts=np.array([1]))
    with pytest.raises(ValueError):
        WorkloadSpec(num_nodes=1, num_objects=1, counts=np.array([-1]))
    with pytest.raises(ValueError):
        WorkloadSpec(num_nodes=1, num_objects=1, counts=np.array([1]), write_fraction=2.0)
    with pytest.raises(ValueError):
        WorkloadSpec(
            num_nodes=2, num_objects=1, counts=np.array([1]), populations=np.array([0.0, 0.0])
        )


def test_zero_count_objects_skipped():
    spec = WorkloadSpec(num_nodes=1, num_objects=3, counts=np.array([5, 0, 5]), seed=0)
    trace = synthetic_workload(spec)
    assert object_counts(trace)[1] == 0
    assert len(trace) == 10


def test_trace_names():
    assert web_workload(num_nodes=2, num_objects=5, requests_scale=0.001).name == "WEB"
    assert group_workload(num_nodes=2, num_objects=5, requests_scale=0.001).name == "GROUP"


def test_flash_crowd_spikes_target_object():
    from repro.workload.generators import flash_crowd_workload

    trace = flash_crowd_workload(
        num_nodes=5, num_objects=20, base_scale=0.02, flash_object=3,
        flash_start_frac=0.5, flash_duration_frac=0.25, flash_multiplier=30.0,
        seed=4,
    )
    from repro.workload.stats import object_counts

    counts = object_counts(trace)
    # the flash object dominates even the rank-1 background object
    assert counts[3] > counts[0]
    # and its extra traffic is concentrated in the flash window
    in_window = sum(
        1
        for r in trace
        if r.obj == 3 and 0.5 <= r.time_s / trace.duration_s < 0.75
    )
    assert in_window > 0.8 * (counts[3] - counts.mean())


def test_flash_crowd_validation():
    from repro.workload.generators import flash_crowd_workload
    import pytest as _pytest

    with _pytest.raises(ValueError):
        flash_crowd_workload(num_objects=5, flash_object=9)
    with _pytest.raises(ValueError):
        flash_crowd_workload(flash_start_frac=1.2)
    with _pytest.raises(ValueError):
        flash_crowd_workload(flash_start_frac=0.9, flash_duration_frac=0.5)
    with _pytest.raises(ValueError):
        flash_crowd_workload(flash_multiplier=0.0)


def test_flash_crowd_deterministic():
    from repro.workload.generators import flash_crowd_workload

    a = flash_crowd_workload(num_nodes=3, num_objects=10, base_scale=0.01, seed=5)
    b = flash_crowd_workload(num_nodes=3, num_objects=10, base_scale=0.01, seed=5)
    assert len(a) == len(b)
    assert [(r.time_s, r.node, r.obj) for r in a][:50] == [
        (r.time_s, r.node, r.obj) for r in b
    ][:50]


# -- the vectorised builder against the per-(object, node) loop -----------------


def _loop_synthetic_workload(spec: WorkloadSpec) -> Trace:
    """Oracle: one ``Request`` per draw, built object by object, node by node."""
    rng = np.random.default_rng(spec.seed)
    pops = (
        spec.populations
        if spec.populations is not None
        else np.ones(spec.num_nodes, dtype=float)
    )
    probs = pops / pops.sum()
    requests = []
    for obj, count in enumerate(spec.counts):
        if count == 0:
            continue
        node_counts = rng.multinomial(int(count), probs)
        for node, node_count in enumerate(node_counts):
            if node_count == 0:
                continue
            times = _sample_times(rng, int(node_count), spec.duration_s, spec.diurnal)
            writes = (
                rng.random(int(node_count)) < spec.write_fraction
                if spec.write_fraction > 0
                else np.zeros(int(node_count), dtype=bool)
            )
            for t, w in zip(times, writes):
                requests.append(
                    Request(min(float(t), spec.duration_s * (1 - 1e-12)), node, obj, bool(w))
                )
    return Trace(requests, spec.duration_s, spec.num_nodes, spec.num_objects, spec.name)


def _typed(trace: Trace):
    return [
        tuple((type(v), v) for v in (r.time_s, r.node, r.obj, r.is_write)) for r in trace
    ]


def _assert_same_trace(actual: Trace, expected: Trace) -> None:
    assert (actual.duration_s, actual.num_nodes, actual.num_objects, actual.name) == (
        expected.duration_s, expected.num_nodes, expected.num_objects, expected.name
    )
    assert _typed(actual) == _typed(expected)


@pytest.mark.parametrize(
    "make",
    [
        lambda: web_workload(num_nodes=6, num_objects=30, requests_scale=0.01, seed=3),
        lambda: web_workload(
            num_nodes=5, num_objects=25, populations=[5.0, 1.0, 0.0, 2.0, 1.0],
            requests_scale=0.01, seed=8, diurnal=True,
        ),
        lambda: group_workload(num_nodes=4, num_objects=10, requests_scale=0.002, seed=2),
        lambda: group_workload(
            num_nodes=3, num_objects=6, requests_scale=0.002, seed=5, diurnal=True
        ),
        lambda: flash_crowd_workload(num_nodes=4, num_objects=12, base_scale=0.01, seed=6),
    ],
    ids=["web", "web-diurnal-pops", "group", "group-diurnal", "flash-crowd"],
)
def test_generators_match_the_per_request_loop(monkeypatch, make):
    actual = make()
    monkeypatch.setattr(generators, "synthetic_workload", _loop_synthetic_workload)
    _assert_same_trace(actual, make())


@pytest.mark.parametrize("diurnal", [False, True])
@pytest.mark.parametrize("write_fraction", [0.0, 0.2])
def test_synthetic_workload_matches_the_per_request_loop(diurnal, write_fraction):
    spec = WorkloadSpec(
        num_nodes=4,
        num_objects=9,
        counts=np.array([40, 0, 7, 1, 0, 25, 3, 60, 2]),
        populations=np.array([3.0, 0.0, 1.0, 0.5]),
        duration_s=500.0,
        write_fraction=write_fraction,
        diurnal=diurnal,
        seed=11,
    )
    _assert_same_trace(synthetic_workload(spec), _loop_synthetic_workload(spec))


def test_benchmark_web_trace_digest_is_pinned():
    # The e2e pipeline benchmark's WEB trace: every cache key hangs off it.
    topo = as_level_topology(20, seed=2)
    trace = web_workload(
        num_nodes=20, num_objects=80, populations=topo.populations,
        requests_scale=0.15, seed=1,
    )
    assert len(trace) == 45_004
    assert digest_of(trace) == (
        "6a5a63ff6cdf0eb7052a33ccabc78b4d2235822719dafe0d837fcf3ccd10813d"
    )
