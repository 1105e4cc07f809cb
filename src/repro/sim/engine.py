"""Minimal deterministic discrete-event engine.

The engine is intentionally tiny: a priority queue of events and a
monotonically advancing clock.  The interesting behaviour (queueing,
scheduling, execution) lives in :mod:`repro.sim.cluster`; keeping the engine
separate makes it independently testable.

:class:`TupleEventQueue` orders plain ``(time, kind, seq, row, worker)``
tuples.  Tuples compare element-wise in C, so no event object is ever
constructed in the replay loop.  Entries order by ``(time, kind,
sequence)``: completions beat arrivals at equal timestamps, and
reconfigurations come last (see :class:`~repro.sim.events.EventKind`).

The queue has two parts.  A bulk-loaded, sorted trace is a *run*: its
entries are built one at a time, when an entry becomes the run's next
candidate, and are never retained once consumed.  Everything else (each
completion, slot event, re-entry, reconfiguration and single ``push``) goes
on a heap, which therefore holds only the in-flight events.  The earliest
entry is the smaller of the run's head and ``heap[0]`` by full tuple
comparison, so events fire in exactly the order one heap holding every
entry would give.
"""

from __future__ import annotations

import heapq
from itertools import repeat
from operator import le
from typing import Any, Iterator, List, Optional, Sequence, Tuple

#: A queue entry: ``(time, kind, seq, row, worker)``.  ``seq`` is unique
#: per queue, so comparisons never reach the payload slots; ``row`` is the
#: query's row in the run's columnar store, completions carry the worker
#: object directly (no id -> worker map lookup when the event fires), and
#: the simulator's frontend slot events are arrivals without a row.
TupleEvent = Tuple[float, int, int, Optional[int], Any]


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
    """The simulator's event queue: a sorted run merged with a heap.

    A deterministic ``(time, kind, sequence)`` total order over plain tuples:
    no object construction per event, and comparisons run entirely in C.

    The run is the bulk-loaded rows and their arrival times, the sequence
    number of the first one and a cursor (a ``zip`` over the two).
    ``_head`` is the run's next entry, built when it becomes the next
    candidate (``None`` once the run is exhausted); ``_run_end`` is the
    sequence number one past the run's last entry.  The replay loop in
    :class:`~repro.sim.cluster.InferenceServerSimulator` inlines :meth:`pop`
    and :meth:`_advance` over these slots.
    """

    __slots__ = ("_head", "_heap", "_run", "_run_end", "_sequence")

    def __init__(self) -> None:
        self._heap: List[TupleEvent] = []
        self._sequence = 0
        self._run: Iterator[TupleEvent] = iter(())
        self._head: Optional[TupleEvent] = None
        self._run_end = 0

    def __len__(self) -> int:
        head = self._head
        run = 0 if head is None else self._run_end - head[2]
        return len(self._heap) + run

    def __bool__(self) -> bool:
        return self._head is not None or bool(self._heap)

    def push(
        self,
        time: float,
        kind: int,
        row: Optional[int] = None,
        worker: Any = None,
    ) -> TupleEvent:
        """Enqueue ``(time, kind, seq, row, worker)`` and return the entry."""
        entry = (time, int(kind), self._sequence, row, worker)
        self._sequence += 1
        heapq.heappush(self._heap, entry)
        return entry

    def extend_sorted(self, times: List[float], kind: int, rows: Sequence[int]) -> None:
        """Bulk-enqueue already-sorted same-kind events into an *empty* queue.

        The events become the queue's run: they take the next
        ``len(times)`` sequence numbers, so they fire exactly as if each had
        been pushed in turn, but they never enter the heap and only the
        run's next entry exists as a tuple.  The queue keeps ``times`` and
        ``rows`` (not copies) until the run is exhausted.

        Raises:
            ValueError: when the queue is non-empty (its heap holds entries
                or its run is not exhausted) or the times are not
                non-decreasing (callers pre-check and take the per-event
                push path instead).  Both checks run before any change, so
                a failed bulk load leaves the queue empty and the sequence
                counter untouched.
        """
        if self:
            raise ValueError("extend_sorted requires an empty queue")
        if not all(map(le, times, times[1:])):
            raise ValueError("extend_sorted requires non-decreasing times")
        base = self._sequence
        self._sequence = self._run_end = base + len(times)
        sequences = range(base, self._run_end)
        self._run = zip(times, repeat(int(kind)), sequences, rows, repeat(None))
        self._advance()

    def _advance(self) -> None:
        """Build the run's next entry; drop the run's lists once it is exhausted."""
        head = self._head = next(self._run, None)
        if head is None:
            self._run = iter(())

    def pop(self) -> TupleEvent:
        """Remove and return the earliest entry.

        Raises:
            IndexError: if the queue is empty.
        """
        head, heap = self._head, self._heap
        if head is not None and not (heap and heap[0] < head):
            self._advance()
            return head
        if not heap:
            raise IndexError("pop from empty event queue")
        return heapq.heappop(heap)

    def peek(self) -> TupleEvent:
        """Return (without removing) the earliest entry."""
        head, heap = self._head, self._heap
        if head is not None and not (heap and heap[0] < head):
            return head
        if not heap:
            raise IndexError("peek into empty event queue")
        return heap[0]
