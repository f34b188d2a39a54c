"""Tests for Request/Trace containers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.trace import Request, Trace
from tests.conftest import make_trace


def test_request_validation():
    with pytest.raises(ValueError):
        Request(-1.0, 0, 0)
    with pytest.raises(ValueError):
        Request(0.0, -1, 0)
    with pytest.raises(ValueError):
        Request(0.0, 0, -2)


def test_request_ordering_by_time():
    a = Request(1.0, 3, 3)
    b = Request(2.0, 0, 0)
    assert a < b


def test_trace_sorts_requests():
    t = make_trace([(30, 0, 0), (10, 1, 1), (20, 2, 2)])
    assert [r.time_s for r in t] == [10.0, 20.0, 30.0]


def test_trace_rejects_out_of_range():
    with pytest.raises(ValueError, match="duration"):
        make_trace([(5000, 0, 0)], duration_s=3600.0)
    with pytest.raises(ValueError, match="num_nodes"):
        make_trace([(1, 9, 0)], num_nodes=4)
    with pytest.raises(ValueError, match="num_objects"):
        make_trace([(1, 0, 9)], num_objects=4)


def test_trace_rejects_bad_universe():
    with pytest.raises(ValueError):
        Trace(requests=[], duration_s=0.0, num_nodes=1, num_objects=1)
    with pytest.raises(ValueError):
        Trace(requests=[], duration_s=1.0, num_nodes=0, num_objects=1)


def test_read_write_counts():
    t = make_trace([(1, 0, 0), (2, 0, 1, True), (3, 1, 0)])
    assert len(t) == 3
    assert t.num_reads == 2
    assert t.num_writes == 1


def test_between_half_open():
    t = make_trace([(10, 0, 0), (20, 1, 1), (30, 2, 2)])
    window = t.between(10, 30)
    assert [r.time_s for r in window] == [10.0, 20.0]


def test_between_empty_window():
    t = make_trace([(10, 0, 0)])
    assert t.between(11, 12) == []


def test_for_node_and_object():
    t = make_trace([(1, 0, 0), (2, 1, 0), (3, 0, 1)])
    assert len(t.for_node(0)) == 2
    assert len(t.for_object(0)) == 2


def test_filter_returns_new_trace():
    t = make_trace([(1, 0, 0), (2, 1, 1)])
    f = t.filter(lambda r: r.node == 0)
    assert len(f) == 1
    assert len(t) == 2


def test_remap_nodes():
    t = make_trace([(1, 0, 0), (2, 1, 1), (3, 2, 2)])
    m = t.remap_nodes({0: 3, 1: 3})
    nodes = [r.node for r in m]
    assert nodes == [3, 3, 2]


def test_remap_can_grow_universe():
    t = make_trace([(1, 0, 0)], num_nodes=2)
    m = t.remap_nodes({0: 4}, num_nodes=5)
    assert m.num_nodes == 5
    assert m.requests[0].node == 4


def test_merge():
    a = make_trace([(1, 0, 0)], duration_s=100.0, num_nodes=2, num_objects=2)
    b = make_trace([(2, 3, 3)], duration_s=200.0, num_nodes=4, num_objects=4)
    m = Trace.merge([a, b])
    assert len(m) == 2
    assert m.duration_s == 200.0
    assert m.num_nodes == 4


def test_merge_empty_rejected():
    with pytest.raises(ValueError):
        Trace.merge([])


def test_repr():
    t = make_trace([(1, 0, 0)], name="demo")
    assert "demo" in repr(t)


# -- sort and range checks against the record order -----------------------------

_requests = st.lists(
    st.builds(
        Request,
        # Few distinct values, so ties on every field (and full duplicates) are common.
        time_s=st.sampled_from([0.0, 0.5, 1.0, 2.5, 3.0, 7.0]),
        node=st.integers(0, 4),
        obj=st.integers(0, 4),
        is_write=st.booleans(),
    ),
    max_size=40,
)


def _first_offender(requests, duration_s, num_nodes, num_objects):
    """The message of the first request out of range, in record sort order."""
    for req in sorted(requests):
        if req.time_s >= duration_s:
            return f"request at {req.time_s}s outside trace duration {duration_s}s"
        if req.node >= num_nodes:
            return f"request node {req.node} >= num_nodes {num_nodes}"
        if req.obj >= num_objects:
            return f"request object {req.obj} >= num_objects {num_objects}"
    return None


@settings(max_examples=200, deadline=None)
@given(_requests)
def test_trace_order_is_the_request_order(requests):
    trace = Trace(list(requests), duration_s=10.0, num_nodes=5, num_objects=5)
    expected = sorted(requests)
    # Record for record: equal fields of equal types, duplicates included.
    assert trace.requests == tuple(expected)
    assert [tuple(map(type, r)) for r in trace.requests] == [
        (float, int, int, bool)
    ] * len(expected)
    assert all(type(r) is Request for r in trace.requests)


@settings(max_examples=200, deadline=None)
@given(
    _requests,
    st.sampled_from([0.75, 2.5, 3.5, 10.0]),
    # Half the draws cover every node (object), so a violation of the other
    # fields alone is common too.
    st.one_of(st.just(5), st.integers(1, 4)),
    st.one_of(st.just(5), st.integers(1, 4)),
)
def test_trace_names_the_first_offender_in_sorted_order(
    requests, duration_s, num_nodes, num_objects
):
    message = _first_offender(requests, duration_s, num_nodes, num_objects)
    if message is None:
        trace = Trace(list(requests), duration_s, num_nodes, num_objects)
        assert trace.requests == tuple(sorted(requests))
    else:
        with pytest.raises(ValueError) as err:
            Trace(list(requests), duration_s, num_nodes, num_objects)
        assert str(err.value) == message


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_request_rejects_non_finite_time(bad):
    # A NaN time used to pass, leave the trace unsorted and crash
    # DemandMatrix.from_trace with a negative index.
    with pytest.raises(ValueError, match="finite"):
        Request(bad, 0, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_trace_rejects_non_finite_duration(bad):
    with pytest.raises(ValueError, match="duration"):
        Trace(requests=[Request(1.0, 0, 0)], duration_s=bad, num_nodes=1, num_objects=1)


def test_between_accepts_unbounded_windows():
    t = make_trace([(10, 0, 0), (20, 1, 1)])
    assert [r.time_s for r in t.between(-math.inf, math.inf)] == [10.0, 20.0]
    assert t.between(math.inf, math.inf) == []


def test_trace_is_immutable():
    t = make_trace([(1, 0, 0), (2, 1, 1, True)])
    for name, value in [("requests", ()), ("duration_s", 1.0), ("name", "x"), ("columns", ())]:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(t, name, value)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(t, name)
    assert isinstance(t.requests, tuple)
    with pytest.raises(AttributeError):
        t.requests[0].node = 3


def test_trace_columns_are_read_only_arrays():
    t = make_trace([(2, 1, 3), (1, 0, 2, True)])
    times, nodes, objects, writes = t.columns
    assert times.tolist() == [1.0, 2.0] and times.dtype.name == "float64"
    assert nodes.tolist() == [0, 1] and nodes.dtype.name == "int64"
    assert objects.tolist() == [2, 3] and objects.dtype.name == "int64"
    assert writes.tolist() == [True, False] and writes.dtype.name == "bool"
    for column in t.columns:
        assert not column.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0
    assert t.columns is t.columns


# -- the two constructors: records and columns ----------------------------------

_rows = st.lists(
    st.tuples(
        # -0.0 next to 0.0, and few distinct values, so ties are common.
        st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.5, 7.0, 9.5, 12.0]),
        st.integers(0, 5),
        st.integers(0, 5),
        st.booleans(),
    ),
    max_size=30,
)
#: Up to two fields overwritten with a value a record refuses.
_corruptions = st.lists(
    st.tuples(
        st.integers(0, 29),
        st.sampled_from(
            [(0, math.nan), (0, math.inf), (0, -math.inf), (0, -1.0), (1, -1), (2, -2)]
        ),
    ),
    max_size=2,
)


def _via_requests(rows, *universe):
    try:
        requests = [Request(*row) for row in rows]
        return Trace(requests, *universe), None
    except ValueError as exc:
        return None, str(exc)


def _via_columns(rows, *universe):
    columns = [[row[i] for row in rows] for i in range(4)]
    try:
        return Trace.from_columns(columns, *universe), None
    except ValueError as exc:
        return None, str(exc)


@settings(max_examples=300, deadline=None)
@given(
    _rows,
    _corruptions,
    st.sampled_from([2.5, 10.0, 20.0]),
    st.sampled_from([3, 6]),
    st.sampled_from([3, 6]),
)
def test_columns_and_requests_build_the_same_trace(
    rows, corruptions, duration_s, num_nodes, num_objects
):
    rows = [list(row) for row in rows]
    for at, (field, value) in corruptions:
        if rows:
            rows[at % len(rows)][field] = value
    universe = (duration_s, num_nodes, num_objects)
    by_records, record_error = _via_requests(rows, *universe)
    by_columns, column_error = _via_columns(rows, *universe)
    # The same refusal, naming the same first offender.
    assert record_error == column_error
    if by_records is None:
        return
    for a, b in zip(by_records.columns, by_columns.columns):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    # The sort is Python's stable sort of the records, to the bit (-0.0 too).
    expected = sorted(Request(*row) for row in rows)
    assert by_records.requests == tuple(expected)
    assert by_records.columns[0].tobytes() == np.array(
        [r.time_s for r in expected], dtype=np.float64
    ).tobytes()


def test_from_columns_copies_and_locks_its_input():
    times = np.array([2.0, 1.0])
    trace = Trace.from_columns((times, [1, 0], [0, 1], [False, True]), 10.0, 2, 2)
    times[0] = 9.0
    assert trace.columns[0].tolist() == [1.0, 2.0]
    assert [r.node for r in trace.requests] == [0, 1]
    assert not any(column.flags.writeable for column in trace.columns)


def test_from_columns_rejects_ragged_columns():
    with pytest.raises(ValueError, match="one length"):
        Trace.from_columns(([1.0, 2.0], [0], [0], [False]), 10.0, 2, 2)


@pytest.mark.parametrize("copy", ["pickle", "deepcopy"])
def test_copied_trace_keeps_read_only_columns_and_digest(copy):
    import copy as copying
    import pickle

    from repro.runner.digest import digest_of

    t = make_trace([(2, 1, 3), (1, 0, 2, True), (1, 0, 2, True)])
    assert len(t.requests) == 3  # the view is never carried over
    clone = pickle.loads(pickle.dumps(t)) if copy == "pickle" else copying.deepcopy(t)
    assert "requests" not in clone.__dict__
    assert not any(column.flags.writeable for column in clone.columns)
    assert digest_of(clone) == digest_of(t)
    assert clone == t and clone.requests == t.requests
    with pytest.raises(AttributeError, match="immutable"):
        clone.name = "x"


def test_request_is_a_tuple_record():
    r = Request(1.5, 2, 3)
    assert r == (1.5, 2, 3, False) and hash(r) == hash((1.5, 2, 3, False))
    assert r._fields == ("time_s", "node", "obj", "is_write")
    assert repr(r) == "Request(time_s=1.5, node=2, obj=3, is_write=False)"
    assert Request(time_s=1.5, node=2, obj=3, is_write=True) > r


def test_slices_match_a_walk_over_the_records():
    t = make_trace([(5, 0, 1), (1, 2, 3, True), (3, 0, 3), (3, 1, 1), (9, 2, 1)])
    records = t.requests
    assert t.between(3, 9) == [r for r in records if 3 <= r.time_s < 9]
    assert t.between(9, 3) == []
    for node in range(4):
        assert t.for_node(node) == [r for r in records if r.node == node]
    for obj in range(4):
        assert t.for_object(obj) == [r for r in records if r.obj == obj]
