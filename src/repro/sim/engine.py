"""Minimal deterministic discrete-event engine.

The engine is intentionally tiny: a priority queue of events and a
monotonically advancing clock.  The interesting behaviour (queueing,
scheduling, execution) lives in :mod:`repro.sim.cluster`; keeping the engine
separate makes it independently testable.

:class:`TupleEventQueue` is a heap of plain ``(time, kind, seq, query,
worker)`` tuples.  Tuples compare element-wise in C, so the O(log n)
comparisons of every heap operation never enter Python and no event object
is ever constructed in the replay loop.  Entries order by ``(time, kind,
sequence)``: completions beat arrivals at equal timestamps, and
reconfigurations come last (see :class:`~repro.sim.events.EventKind`).
"""

from __future__ import annotations

import heapq
from itertools import repeat
from operator import le
from typing import Any, List, Optional, Tuple

from repro.workload.query import Query

#: A heap entry: ``(time, kind, seq, query, worker)``.  ``seq`` is
#: unique per queue, so comparisons never reach the non-comparable payload
#: slots; completions carry the worker object directly (no id -> worker map
#: lookup when the event fires), and the simulator's frontend slot events
#: are arrivals without a query.
TupleEvent = Tuple[float, int, int, Optional[Query], Any]


class SimulationClock:
    """A monotonically non-decreasing simulation clock."""

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError("start time must be non-negative")
        self._now = start

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now


class TupleEventQueue:
    """The simulator's tuple-keyed event heap.

    A deterministic ``(time, kind, sequence)`` total order over plain tuples:
    no object construction per event, and heap comparisons run entirely in C.
    """

    __slots__ = ("_heap", "_sequence")

    def __init__(self) -> None:
        self._heap: List[TupleEvent] = []
        self._sequence = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(
        self,
        time: float,
        kind: int,
        query: Optional[Query] = None,
        worker: Any = None,
    ) -> TupleEvent:
        """Enqueue ``(time, kind, seq, query, worker)`` and return the entry."""
        entry = (time, int(kind), self._sequence, query, worker)
        self._sequence += 1
        heapq.heappush(self._heap, entry)
        return entry

    def extend_sorted(self, times: List[float], kind: int, queries: List[Query]) -> None:
        """Bulk-enqueue already-sorted same-kind events into an *empty* queue.

        A list sorted by ``(time, kind, seq)`` is already a valid min-heap,
        so a whole trace submission costs one C-level pass instead of n
        O(log n) ``heappush`` walks.

        Raises:
            ValueError: when the queue is non-empty or the times are not
                non-decreasing (callers pre-check and take the per-event
                push path instead).  Both checks run before any change, so
                a failed bulk load leaves the queue empty and the sequence
                counter untouched.
        """
        if self._heap:
            raise ValueError("extend_sorted requires an empty queue")
        if not all(map(le, times, times[1:])):
            raise ValueError("extend_sorted requires non-decreasing times")
        sequence = self._sequence
        self._sequence = sequence + len(times)
        self._heap.extend(
            zip(times, repeat(int(kind)), range(sequence, self._sequence), queries, repeat(None))
        )

    def pop(self) -> TupleEvent:
        """Remove and return the earliest entry.

        Raises:
            IndexError: if the queue is empty.
        """
        if not self._heap:
            raise IndexError("pop from empty event queue")
        return heapq.heappop(self._heap)

    def peek(self) -> TupleEvent:
        """Return (without removing) the earliest entry."""
        if not self._heap:
            raise IndexError("peek into empty event queue")
        return self._heap[0]
