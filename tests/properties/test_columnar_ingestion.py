"""Property: batch ingestion registers queries exactly like one-at-a-time
registration.

``QueryColumns.extend`` grows every column with one C-level ``extend`` per
batch, and ``submit()`` registers a single query through the same routine.
The reference below appends one query at a time, column by column, as the
store did before batch ingestion; both must give byte-equal column buffers
and the same rows, into an empty store and after earlier registrations.
"""

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.schedulers import FifsScheduler
from repro.sim.cluster import InferenceServerSimulator
from repro.sim.columnar import QueryColumns
from repro.workload.query import Query
from repro.workload.trace import QueryTrace
from tests.sim.helpers import MODEL, constant_profile, make_instances

#: column name -> array typecode, in ``QueryColumns`` order
COLUMNS = {
    "arrival": "d",
    "dispatch": "d",
    "start": "d",
    "finish": "d",
    "deadline": "d",
    "batch": "q",
    "instance": "q",
    "announced": "b",
    "fail_time": "d",
    "retries": "q",
}


def reference_columns(queries):
    """The per-query reference: one append per column per query."""
    nan = float("nan")
    columns = {name: array(code) for name, code in COLUMNS.items()}
    for query in queries:
        columns["arrival"].append(query.arrival_time)
        columns["deadline"].append(nan if query.sla_target is None else query.sla_target)
        columns["batch"].append(query.batch)
        for name in ("dispatch", "start", "finish", "fail_time"):
            columns[name].append(nan)
        columns["instance"].append(-1)
        columns["announced"].append(0)
        columns["retries"].append(0)
    return columns


def assert_matches_reference(store, queries):
    reference = reference_columns(queries)
    for name in COLUMNS:
        assert getattr(store, name).tobytes() == reference[name].tobytes(), name
    assert store.queries == queries


query_fields = st.tuples(
    st.integers(1, 64),
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
    st.one_of(st.none(), st.floats(1e-6, 10.0, allow_nan=False)),
)


def build(fields, first_id=0):
    return [
        Query(first_id + offset, MODEL, batch, arrival, sla)
        for offset, (batch, arrival, sla) in enumerate(fields)
    ]


@settings(max_examples=60, deadline=None)
@given(
    earlier=st.lists(query_fields, max_size=3),
    batch=st.lists(query_fields, max_size=40),
)
def test_batch_registration_matches_per_query_reference(earlier, batch):
    first = build(earlier)
    later = build(batch, first_id=len(first))
    store = QueryColumns()
    for query in first:
        store.extend((query,))  # what submit() does
    store.extend(later)
    assert_matches_reference(store, first + later)


def make_simulator():
    return InferenceServerSimulator(
        instances=make_instances((1, 7)),
        profiles={MODEL: constant_profile({1: 2.0, 7: 1.0})},
        scheduler=FifsScheduler(),
    )


@settings(max_examples=30, deadline=None)
@given(
    batch=st.lists(query_fields, min_size=1, max_size=30),
    mid_run=st.booleans(),
)
def test_submit_trace_registers_like_per_query_submits(batch, mid_run):
    simulator = make_simulator()
    simulator.begin()
    first = []
    if mid_run:
        # a mid-run submit(), already dispatched when the trace arrives
        first = build([(1, 0.0, None)])
        simulator.submit(first[0])
        simulator.run_until(0.0)
    store = simulator._columns
    before = {name: getattr(store, name).tobytes() for name in COLUMNS}
    later = build(sorted(batch, key=lambda fields: fields[1]), first_id=len(first))
    simulator.submit_trace(QueryTrace(tuple(later)))
    reference = reference_columns(later)
    for name in COLUMNS:
        assert getattr(store, name).tobytes() == before[name] + reference[name].tobytes()
    assert store.queries[len(first):] == later
    result = simulator.finish()
    assert result.statistics.completed_queries == len(first) + len(later)


def test_unsorted_duck_typed_trace_falls_back_to_per_query_submits():
    simulator = make_simulator()
    simulator.begin()
    queries = build([(1, 3.0, None), (2, 1.0, 0.5), (4, 2.0, None)])
    simulator.submit_trace(queries)  # a plain list: arrivals not sorted
    assert simulator.pending_events == 3
    assert_matches_reference(simulator._columns, queries)
    result = simulator.finish()
    assert [q.query_id for q in result.queries] == [0, 1, 2]
    assert [q.start_time for q in result.queries] == [3.0, 1.0, 2.0]


def test_past_arrival_raises_before_any_state_changes():
    simulator = make_simulator()
    simulator.begin()
    first = build([(1, 0.0, None)])
    simulator.submit(first[0])
    simulator.run_until(None)  # drained: the event queue is empty again
    store = simulator._columns
    before = {name: getattr(store, name).tobytes() for name in COLUMNS}
    sequence = simulator._events._sequence
    now = simulator.now
    late = build([(1, now - 0.5, None), (1, now + 1.0, None)], first_id=1)
    with pytest.raises(ValueError, match=r"^query 1 arrives at .* before the current simulation"):
        simulator.submit_trace(QueryTrace(tuple(late)))
    assert len(simulator.submitted_queries) == 1
    assert simulator.pending_events == 0
    assert simulator._events._sequence == sequence
    assert {name: getattr(store, name).tobytes() for name in COLUMNS} == before


def test_a_batch_that_does_not_fit_raises_before_any_column_grows():
    store = QueryColumns()
    first = build([(1, 0.0, None)])
    store.extend(first)
    before = {name: getattr(store, name).tobytes() for name in COLUMNS}
    good, bad = build([(2, 1.0, 0.5), (2.5, 2.0, None)], first_id=1)
    with pytest.raises(TypeError):
        store.extend([good, bad])
    assert {name: getattr(store, name).tobytes() for name in COLUMNS} == before
    assert store.queries == first
