"""Trace serialization round-trips."""

import json
import re

import numpy as np
import pytest

from repro.workload.generators import web_workload
from repro.workload.io import load_trace, save_trace, trace_from_dict, trace_to_dict
from tests.conftest import make_trace


def test_dict_round_trip():
    t = make_trace([(1, 0, 0), (2, 1, 1, True)], name="rt")
    back = trace_from_dict(trace_to_dict(t))
    assert back.name == "rt"
    assert len(back) == 2
    assert back.requests[1].is_write
    assert back.num_nodes == t.num_nodes


def test_file_round_trip(tmp_path):
    t = web_workload(num_nodes=3, num_objects=10, requests_scale=0.001, seed=1)
    path = tmp_path / "trace.json"
    save_trace(t, path)
    back = load_trace(path)
    assert len(back) == len(t)
    assert [r.obj for r in back] == [r.obj for r in t]


def test_dict_is_json_serializable():
    t = make_trace([(1, 0, 0)])
    json.dumps(trace_to_dict(t))


def test_version_check():
    data = trace_to_dict(make_trace([(1, 0, 0)]))
    data["version"] = 42
    with pytest.raises(ValueError, match="version"):
        trace_from_dict(data)


def test_inconsistent_columns_rejected():
    data = trace_to_dict(make_trace([(1, 0, 0)]))
    data["nodes"] = []
    with pytest.raises(ValueError, match="inconsistent"):
        trace_from_dict(data)


# -- load-time validation (repro.errors.ValidationError) ----------------------


def corrupt(mutate):
    data = trace_to_dict(make_trace([(1, 0, 0), (2, 1, 1)]))
    mutate(data)
    return data


def test_nan_time_rejected():
    from repro.errors import ValidationError

    data = corrupt(lambda d: d["times"].__setitem__(1, float("nan")))
    with pytest.raises(ValidationError, match="request 1"):
        trace_from_dict(data)


def test_negative_time_rejected():
    from repro.errors import ValidationError

    data = corrupt(lambda d: d["times"].__setitem__(0, -5.0))
    with pytest.raises(ValidationError, match="negative or non-finite"):
        trace_from_dict(data)


def test_nonpositive_duration_rejected():
    from repro.errors import ValidationError

    data = corrupt(lambda d: d.update(duration_s=0.0))
    with pytest.raises(ValidationError, match="duration"):
        trace_from_dict(data)


def test_nan_duration_rejected():
    from repro.errors import ValidationError

    data = corrupt(lambda d: d.update(duration_s=float("nan")))
    with pytest.raises(ValidationError, match="duration"):
        trace_from_dict(data)


def test_nonpositive_counts_rejected():
    from repro.errors import ValidationError

    for field in ("num_nodes", "num_objects"):
        data = corrupt(lambda d: d.update({field: 0}))
        with pytest.raises(ValidationError, match="must be positive"):
            trace_from_dict(data)


def test_empty_trace_rejected():
    from repro.errors import ValidationError

    data = corrupt(
        lambda d: d.update(times=[], nodes=[], objects=[], writes=[])
    )
    with pytest.raises(ValidationError, match="no requests"):
        trace_from_dict(data)


def test_out_of_range_node_rejected():
    from repro.errors import ValidationError

    data = corrupt(lambda d: d["nodes"].__setitem__(0, 99))
    with pytest.raises(ValidationError, match="node 99"):
        trace_from_dict(data)


def test_out_of_range_object_rejected():
    from repro.errors import ValidationError

    data = corrupt(lambda d: d["objects"].__setitem__(1, -1))
    with pytest.raises(ValidationError, match="object -1"):
        trace_from_dict(data)


@pytest.mark.parametrize(
    "column, row, value, message",
    [
        ("nodes", 0, 1.7, "request 0: node 1.7 is not an integer id"),
        ("objects", 1, 1.9, "request 1: object 1.9 is not an integer id"),
        ("nodes", 1, float("inf"), "request 1: node inf is not an integer id"),
        ("writes", 1, 2, "request 1: write flag 2 is not 0 or 1"),
        ("writes", 0, -1, "request 0: write flag -1 is not 0 or 1"),
        ("writes", 1, 0.5, "request 1: write flag 0.5 is not 0 or 1"),
    ],
)
def test_non_integral_ids_and_bad_write_flags_rejected(column, row, value, message):
    from repro.errors import ValidationError

    data = corrupt(lambda d: d[column].__setitem__(row, value))
    with pytest.raises(ValidationError, match=re.escape(message)):
        trace_from_dict(data)


def test_first_offending_row_is_named_across_checks():
    from repro.errors import ValidationError

    def mutate(d):
        d["writes"][1] = 2
        d["nodes"][0] = 0.5

    with pytest.raises(ValidationError, match="request 0: node 0.5"):
        trace_from_dict(corrupt(mutate))


def test_integral_floats_and_bool_flags_load():
    data = corrupt(lambda d: d.update(nodes=[1.0, 0.0], writes=[True, False]))
    back = trace_from_dict(data)
    assert back.columns[1].dtype == np.int64
    assert [(r.node, r.is_write) for r in back] == [(1, True), (0, False)]


def test_time_at_or_past_duration_rejected():
    from repro.errors import ValidationError

    for late in (3600.0, 3600.5):
        data = corrupt(lambda d: d["times"].__setitem__(1, late))
        with pytest.raises(ValidationError, match=r"request 1: time .* outside \[0, 3600.0\)"):
            trace_from_dict(data)


# -- saved times keep full precision --------------------------------------------


def _reloaded(trace, tmp_path):
    path = tmp_path / "trace.json"
    save_trace(trace, path)
    return load_trace(path)


def test_request_just_before_the_end_reloads(tmp_path):
    # Rounded to 6 decimals this request used to save as 3600.0 and fail
    # to load.
    trace = make_trace([(1, 0, 0), (3599.9999996, 1, 1)], duration_s=3600.0)
    back = _reloaded(trace, tmp_path)
    assert [r.time_s for r in back] == [1.0, 3599.9999996]


def test_request_just_before_an_interval_boundary_keeps_its_interval(tmp_path):
    # Rounded to 6 decimals 899.9999996 became 900.0, moving the request
    # from demand interval 0 to interval 1.
    from repro.workload.demand import DemandMatrix

    trace = make_trace([(899.9999996, 1, 2)], duration_s=3600.0)
    back = _reloaded(trace, tmp_path)
    before = DemandMatrix.from_trace(trace, num_intervals=4).reads
    after = DemandMatrix.from_trace(back, num_intervals=4).reads
    assert before[1, 0, 2] == 1.0
    np.testing.assert_array_equal(after, before)


def test_benchmark_web_trace_reloads_bit_for_bit(tmp_path):
    from repro.runner.digest import digest_of
    from repro.topology.generators import as_level_topology

    topo = as_level_topology(20, seed=2)
    trace = web_workload(
        num_nodes=20, num_objects=80, populations=topo.populations,
        requests_scale=0.15, seed=1,
    )
    back = _reloaded(trace, tmp_path)
    for column, reloaded in zip(trace.columns, back.columns):
        np.testing.assert_array_equal(reloaded, column)
    assert back.columns[0].tobytes() == trace.columns[0].tobytes()
    assert digest_of(back) == digest_of(trace)

    again = tmp_path / "again.json"
    save_trace(back, again)
    assert again.read_bytes() == (tmp_path / "trace.json").read_bytes()
