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
from typing import TYPE_CHECKING, List, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workload.query import Query

#: Sentinel for "timestamp not set" / "no SLA deadline" column slots.
NAN = float("nan")

#: One row of each runtime column's initial value as raw bytes: ``n`` new
#: rows extend a column by the row repeated ``n`` times.
_UNSET_ROW = array("d", [NAN]).tobytes()
_NO_INSTANCE_ROW = array("q", [-1]).tobytes()
_ZERO_FLAG_ROW = array("b", [0]).tobytes()
_ZERO_COUNT_ROW = array("q", [0]).tobytes()


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

    def extend(self, queries: Sequence["Query"]) -> None:
        """Register ``queries`` as the next rows, in order.

        Each query's row index is set on it (``Query.index``).  Every column
        grows by one C-level extend, the runtime columns from repeated
        initial rows.  The batch column is converted first: a validated
        query's arrival and SLA are real numbers, so a non-integer batch is
        what can fail, and it raises before any column grows.
        """
        batch = array("q", [query.batch for query in queries])
        for index, query in enumerate(queries, len(self.queries)):
            query.index = index
        self.queries.extend(queries)
        self.batch += batch
        self.arrival.fromlist([query.arrival_time for query in queries])
        self.deadline.fromlist(
            [NAN if query.sla_target is None else query.sla_target for query in queries]
        )
        count = len(queries)
        unset = _UNSET_ROW * count
        self.dispatch.frombytes(unset)
        self.start.frombytes(unset)
        self.finish.frombytes(unset)
        self.fail_time.frombytes(unset)
        self.instance.frombytes(_NO_INSTANCE_ROW * count)
        self.announced.frombytes(_ZERO_FLAG_ROW * count)
        self.retries.frombytes(_ZERO_COUNT_ROW * count)

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
