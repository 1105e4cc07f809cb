"""Tests for the discrete-event engine."""

import heapq
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.schedulers import FifsScheduler, LeastLoadedScheduler
from repro.sim.cluster import InferenceServerSimulator
from repro.sim.engine import SimulationClock, TupleEventQueue
from repro.sim.events import EventKind
from repro.workload.query import Query
from tests.sim.helpers import MODEL, constant_profile, make_instances, make_trace


def make_query(qid=0):
    return Query(query_id=qid, model="toy", batch=1, arrival_time=0.0)


class TestSimulationClock:
    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            SimulationClock(start=-1.0)


class TestEvent:
    """Events are plain ``(time, kind, seq, query, worker)`` heap tuples."""

    def test_completion_sorts_before_arrival_at_same_time(self):
        queue = TupleEventQueue()
        arrival = queue.push(1.0, EventKind.ARRIVAL, make_query())
        completion = queue.push(1.0, EventKind.COMPLETION, make_query(), worker="w")
        # the completion's later sequence number loses to the kind tie-break
        assert completion[2] > arrival[2]
        assert completion < arrival


class TestEventQueue:
    """The event-queue contract: time order, FIFO ties, peek, pop, emptiness."""

    def test_orders_by_time(self):
        queue = TupleEventQueue()
        queue.push(2.0, EventKind.ARRIVAL, make_query(0))
        queue.push(1.0, EventKind.ARRIVAL, make_query(1))
        queue.push(3.0, EventKind.ARRIVAL, make_query(2))
        times = [queue.pop()[0] for _ in range(3)]
        assert times == [1.0, 2.0, 3.0]

    def test_fifo_within_same_timestamp_and_kind(self):
        queue = TupleEventQueue()
        first = queue.push(1.0, EventKind.ARRIVAL, make_query(0))
        second = queue.push(1.0, EventKind.ARRIVAL, make_query(1))
        queue.push(1.0, EventKind.RECONFIG)
        assert queue.pop() is first
        assert queue.pop() is second
        assert queue.pop()[1] == int(EventKind.RECONFIG)  # reconfigurations last

    def test_peek_does_not_remove(self):
        queue = TupleEventQueue()
        queue.push(2.0, EventKind.ARRIVAL, make_query(0))
        queue.push(1.0, EventKind.ARRIVAL, make_query(1))
        earliest = queue.peek()
        assert earliest[0] == 1.0
        assert queue.peek() is earliest
        assert len(queue) == 2
        assert queue.pop() is earliest

    def test_pop_and_peek_empty_raise(self):
        queue = TupleEventQueue()
        with pytest.raises(IndexError):
            queue.pop()
        with pytest.raises(IndexError):
            queue.peek()

    def test_len_and_truthiness(self):
        queue = TupleEventQueue()
        assert not queue
        queue.push(0.0, EventKind.ARRIVAL, make_query())
        assert queue
        assert len(queue) == 1


class TestTupleEventQueue:
    def make(self):
        return TupleEventQueue()

    def test_orders_by_time_kind_sequence(self):
        queue = self.make()
        queue.push(2.0, EventKind.ARRIVAL, make_query(0))
        queue.push(1.0, EventKind.ARRIVAL, make_query(1))
        queue.push(1.0, EventKind.COMPLETION, make_query(2), worker="w")
        order = [queue.pop() for _ in range(3)]
        # completion beats arrival at t=1.0 (EventKind tie-break)
        assert [(e[0], e[1]) for e in order] == [
            (1.0, int(EventKind.COMPLETION)),
            (1.0, int(EventKind.ARRIVAL)),
            (2.0, int(EventKind.ARRIVAL)),
        ]

    def test_peek_does_not_remove(self):
        queue = self.make()
        queue.push(1.0, EventKind.ARRIVAL, make_query())
        assert queue.peek()[0] == 1.0
        assert len(queue) == 1
        with pytest.raises(IndexError):
            self.make().peek()

    def test_extend_sorted_bulk_load(self):
        queue = self.make()
        queries = [make_query(i) for i in range(4)]
        queue.extend_sorted([0.0, 0.5, 0.5, 2.0], EventKind.ARRIVAL, queries)
        drained = [queue.pop() for _ in range(4)]
        assert [e[0] for e in drained] == [0.0, 0.5, 0.5, 2.0]
        assert [e[3] for e in drained] == queries
        # sequences keep increasing for later pushes
        entry = queue.push(9.0, EventKind.ARRIVAL, make_query(9))
        assert entry[2] == 4

    def test_extend_sorted_rejects_unsorted_and_nonempty(self):
        queue = self.make()
        with pytest.raises(ValueError):
            queue.extend_sorted([1.0, 0.5], EventKind.ARRIVAL, [make_query(0), make_query(1)])
        assert not queue  # failed bulk load leaves the queue empty
        queue.push(0.0, EventKind.ARRIVAL, make_query())
        with pytest.raises(ValueError):
            queue.extend_sorted([1.0], EventKind.ARRIVAL, [make_query(1)])
        queue.pop()
        queue.extend_sorted([1.0, 2.0], EventKind.ARRIVAL, [make_query(1), make_query(2)])
        queue.pop()  # the heap is empty, but the run still holds one entry
        with pytest.raises(ValueError, match="empty queue"):
            queue.extend_sorted([3.0], EventKind.ARRIVAL, [make_query(3)])
        assert queue._sequence == 3  # untouched by the failed load
        assert queue.pop()[2] == 2
        queue.extend_sorted([3.0], EventKind.ARRIVAL, [make_query(3)])  # exhausted
        assert queue.pop()[2] == 3


#: Times on a coarse grid, so pushes tie run entries exactly.
GRID = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
KINDS = st.sampled_from([int(kind) for kind in EventKind])
#: One step of an interleaving: push (time, kind), pop, peek, or reload (a
#: second bulk load, which must raise unless the queue is empty).
STEPS = st.one_of(
    st.tuples(st.just("push"), GRID, KINDS),
    st.just(("pop",)),
    st.just(("peek",)),
    st.tuples(st.just("reload"), st.lists(GRID, max_size=4)),
)


@settings(max_examples=300, deadline=None)
@given(
    before=st.lists(st.tuples(GRID, KINDS), max_size=4),
    run=st.lists(GRID, max_size=12),
    run_kind=KINDS,
    steps=st.lists(STEPS, max_size=40),
)
def test_run_and_heap_fire_in_one_heap_order(before, run, run_kind, steps):
    """The queue yields exactly what one heap holding every entry yields.

    Entries pushed and popped before the bulk load move the sequence counter
    off zero; after it, pushes of every kind (ties with the run's entries
    included), pops, peeks and attempted reloads interleave at random.
    """
    queue = TupleEventQueue()
    reference = []
    sequence = 0

    def push(time, kind):
        nonlocal sequence
        payload = object()
        entry = queue.push(time, kind, payload)
        assert entry == (time, kind, sequence, payload, None)
        heapq.heappush(reference, entry)
        sequence += 1

    def load(times, kind):
        nonlocal sequence
        times = sorted(times)
        payloads = [object() for _ in times]
        if reference:
            with pytest.raises(ValueError, match="empty queue"):
                queue.extend_sorted(times, kind, payloads)
            assert queue._sequence == sequence
            return
        queue.extend_sorted(times, kind, payloads)
        for offset, (time, payload) in enumerate(zip(times, payloads)):
            heapq.heappush(reference, (time, kind, sequence + offset, payload, None))
        sequence += len(times)

    def check_size():
        assert len(queue) == len(reference)
        assert bool(queue) == bool(reference)

    for time, kind in before:
        push(time, kind)
    while reference:
        assert queue.pop() == heapq.heappop(reference)
    load(run, run_kind)
    check_size()
    for step in steps:
        if step[0] == "push":
            push(step[1], step[2])
        elif step[0] == "reload":
            load(step[1], run_kind)
        elif not reference:
            with pytest.raises(IndexError):
                queue.pop() if step[0] == "pop" else queue.peek()
        elif step[0] == "pop":
            assert queue.pop() == heapq.heappop(reference)
        else:
            assert queue.peek() == reference[0]
        check_size()
    drained = []
    while queue:
        drained.append(queue.pop())
    assert drained == [heapq.heappop(reference) for _ in range(len(reference))]
    assert len(queue) == 0


def test_consumed_run_entries_are_not_kept():
    size = 1000
    queue = TupleEventQueue()
    queries = [make_query(i) for i in range(size)]
    times = [float(i) for i in range(size)]
    unreferenced = sys.getrefcount(queries), sys.getrefcount(times)
    queue.extend_sorted(times, EventKind.ARRIVAL, queries)
    assert queue._heap == []  # the run never enters the heap
    drained = [queue.pop() for _ in range(size - 1)]
    assert len(queue) == 1  # the run is not exhausted
    assert [entry[3] for entry in drained] == queries[:-1]
    # Count the references of an entry held only by a list, as seen here;
    # a consumed entry above that is still held by the queue.  The run's
    # ``zip`` keeps its first result tuple to recycle (entry 0); no other
    # consumed entry survives.
    baseline = [sys.getrefcount(entry) for entry in [(0.0,)]][0]
    held = [entry[2] for entry in drained if sys.getrefcount(entry) > baseline]
    assert held in ([], [0])
    # the last entry exhausts the run, and the queue lets go of its lists
    assert sys.getrefcount(queries) > unreferenced[0]
    assert queue.pop()[3] is queries[-1]
    assert (sys.getrefcount(queries), sys.getrefcount(times)) == unreferenced


def replay_record(simulator, result):
    return (
        simulator.events_processed,
        [
            (q.query_id, q.dispatch_time, q.start_time, q.finish_time, q.instance_id)
            for q in result.queries
        ],
    )


@settings(max_examples=40, deadline=None)
@given(
    slots=st.lists(st.integers(0, 40), min_size=1, max_size=60),
    batches=st.lists(st.sampled_from([1, 2, 4]), min_size=1, max_size=60),
    policy=st.sampled_from(["fifs", "least-loaded"]),
    frontend=st.sampled_from([None, 8.0, 40.0]),
    stops=st.lists(st.floats(0.0, 3.0), max_size=4),
)
def test_replay_stopped_by_run_until_resumes_into_the_one_shot_result(
    slots, batches, policy, frontend, stops
):
    """A run cut at arbitrary instants (run entries and heap entries pending
    on both sides of each cut) ends exactly where one uninterrupted run
    does: the cursor and the heap resume in the same order."""
    trace = make_trace(
        [(slot * 0.05, batches[i % len(batches)]) for i, slot in enumerate(sorted(slots))]
    )

    def simulator():
        return InferenceServerSimulator(
            instances=make_instances((1, 2, 4)),
            profiles={MODEL: constant_profile({1: 0.3, 2: 0.2, 4: 0.1})},
            scheduler=FifsScheduler() if policy == "fifs" else LeastLoadedScheduler(),
            frontend_capacity_qps=frontend,
        )

    one_shot = simulator()
    expected = replay_record(one_shot, one_shot.run(trace))
    chunked = simulator()
    chunked.begin()
    chunked.submit_trace(trace)
    for stop in sorted(stops):
        chunked.run_until(stop)
    assert replay_record(chunked, chunked.finish()) == expected
