"""Columnar (struct-of-arrays) per-query runtime state of a replay.

A query's runtime state — dispatch, start, finish, executing instance,
retries, failure — is kept here during a replay rather than as attributes on
each :class:`~repro.workload.query.Query` object, as flat ``array('d')`` /
``array('q')`` columns indexed by submission order:

* the replay loop writes plain array slots instead of object attributes;
* statistics digestion (:func:`repro.sim.metrics.completed_arrays_from_columns`)
  wraps the columns in numpy views via the buffer protocol — zero copies, no
  per-query Python loop — and produces results bit-identical to an object
  scan (:func:`repro.sim.metrics.compute_statistics`: same IEEE operations
  over the same float64 values in the same, submission, order);
* :meth:`QueryColumns.write_back` materialises the columns onto the Query
  objects once at the end of a run, so ``SimulationResult.queries`` carries
  every timestamp.

``NaN`` marks an unset timestamp (and a query without an SLA deadline);
``-1`` marks an unset instance id.  The ``announced`` flags replace the
per-run "emitted QueryArrived already?" identity set: crash retries and
reconfiguration buffering re-enqueue the same query as a new arrival event,
but observers must see each query arrive exactly once.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workload.query import Query

#: Sentinel for "timestamp not set" / "no SLA deadline" column slots.
NAN = float("nan")


class QueryColumns:
    """Struct-of-arrays runtime state of every query submitted to one run.

    One row per submitted query, indexed by submission order; the row index
    is stored on the query object (``Query.index``) so workers can address
    their columns in O(1).  Static per-query facts (model, batch) stay on the
    Query object — they are written once by the generator and only read here.
    """

    __slots__ = (
        "queries",
        "arrival",
        "dispatch",
        "start",
        "finish",
        "deadline",
        "batch",
        "instance",
        "announced",
        "fail_time",
        "retries",
    )

    def __init__(self) -> None:
        self.queries: List["Query"] = []
        self.arrival = array("d")
        self.dispatch = array("d")
        self.start = array("d")
        self.finish = array("d")
        self.deadline = array("d")
        self.batch = array("q")
        self.instance = array("q")
        self.announced = array("b")
        self.fail_time = array("d")
        self.retries = array("q")

    def __len__(self) -> int:
        return len(self.queries)

    def add(self, query: "Query") -> int:
        """Register ``query`` and return its row index (also set on the query)."""
        index = len(self.queries)
        query.index = index
        self.queries.append(query)
        self.arrival.append(query.arrival_time)
        sla = query.sla_target
        self.deadline.append(NAN if sla is None else sla)
        self.batch.append(query.batch)
        self.dispatch.append(NAN)
        self.start.append(NAN)
        self.finish.append(NAN)
        self.instance.append(-1)
        self.announced.append(0)
        self.fail_time.append(NAN)
        self.retries.append(0)
        return index

    def clear_dispatch(self, index: int) -> None:
        """Forget a query's dispatch (a reconfiguration requeued it)."""
        self.dispatch[index] = NAN
        self.instance[index] = -1

    def write_back(self) -> None:
        """Materialise the columns onto the Query objects.

        Idempotent; called once when a run finishes (and by introspection
        surfaces that hand out the query objects mid-run) so the objects
        carry exactly the runtime state recorded in the columns.
        """
        dispatch = self.dispatch
        start = self.start
        finish = self.finish
        instance = self.instance
        fail_time = self.fail_time
        retries = self.retries
        for index, query in enumerate(self.queries):
            value = dispatch[index]
            query.dispatch_time = value if value == value else None
            value = start[index]
            query.start_time = value if value == value else None
            value = finish[index]
            query.finish_time = value if value == value else None
            assigned = instance[index]
            query.instance_id = assigned if assigned >= 0 else None
            value = fail_time[index]
            query.fail_time = value if value == value else None
            query.retries = retries[index]


__all__ = ["NAN", "QueryColumns"]
