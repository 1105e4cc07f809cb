"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationClock, TupleEventQueue
from repro.sim.events import EventKind
from repro.workload.query import Query


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
