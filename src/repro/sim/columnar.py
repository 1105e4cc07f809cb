"""Columnar (struct-of-arrays) per-query runtime state of a replay.

A query's runtime state — dispatch, start, finish, executing instance,
retries, failure — lives here and only here, as flat ``array('d')`` /
``array('q')`` columns indexed by *row*, the query's position in the run's
submission order:

* the replay loop carries rows and writes plain array slots; the
  :class:`~repro.workload.query.Query` objects are the requests alone and
  are never written, so one trace can feed any number of runs;
* statistics digestion (:func:`repro.sim.metrics.completed_arrays_from_columns`)
  wraps the columns in numpy views via the buffer protocol — zero copies, no
  per-query Python loop — and produces results bit-identical to a record
  scan (:func:`repro.sim.metrics.compute_statistics`: same IEEE operations
  over the same float64 values in the same, submission, order);
* a finished run's :class:`QueryRecords` builds one :class:`QueryRecord` per
  row from the columns on first element access, so a result that is only
  digested never pays for them.

``NaN`` marks an unset timestamp (and a query without an SLA deadline);
``-1`` marks an unset instance id.  The ``announced`` flags mark the rows
whose arrival has fired: crash retries and reconfiguration buffering
re-enqueue the same row as a new arrival event, but observers must see each
query arrive exactly once.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, List, MutableSequence, Optional, Sequence

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

    Row ``i`` holds the ``i``-th submitted query: ``queries[i]`` is its
    request, and every column's slot ``i`` one piece of its outcome.  The
    request's arrival, deadline and batch are copied into columns so
    digestion reads them zero-copy.
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

        The queries themselves are not touched.  Every column grows by one
        C-level extend, the runtime columns from repeated initial rows.  The
        batch column is converted first: a validated query's arrival and SLA
        are real numbers, so a non-integer batch is what can fail, and it
        raises before any column grows.
        """
        batch = array("q", [query.batch for query in queries])
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

    def clear_dispatch(self, row: int) -> None:
        """Forget a query's dispatch (a reconfiguration requeued it)."""
        self.dispatch[row] = NAN
        self.instance[row] = -1


@dataclass(slots=True)
class QueryRecord:
    """One query of a finished run: its request and the run's outcome.

    Built from a run's columns by :class:`QueryRecords`; an unset timestamp
    or instance is ``None``.

    Attributes:
        query_id / model / batch / arrival_time / sla_target: the request
            (:class:`~repro.workload.query.Query`).
        dispatch_time: when the scheduler assigned the query to a partition.
        start_time: when execution began on the partition.
        finish_time: when execution completed.
        instance_id: partition instance that executed the query.
        retries: times the query was displaced by a worker crash and
            requeued (0 without fault injection).
        fail_time: when the query exhausted its retry budget and failed
            (``None`` for queries that completed or never failed).
    """

    query_id: int
    model: str
    batch: int
    arrival_time: float
    sla_target: Optional[float] = None
    dispatch_time: Optional[float] = None
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    instance_id: Optional[int] = None
    retries: int = 0
    fail_time: Optional[float] = None

    @property
    def completed(self) -> bool:
        """Whether the query has finished execution."""
        return self.finish_time is not None

    @property
    def failed(self) -> bool:
        """Whether the query exhausted its crash-retry budget and failed."""
        return self.fail_time is not None

    @property
    def latency(self) -> float:
        """End-to-end latency (finish - arrival) in seconds.

        Raises:
            ValueError: if the query has not completed.
        """
        if self.finish_time is None:
            raise ValueError(f"query {self.query_id} has not completed")
        return self.finish_time - self.arrival_time

    @property
    def queueing_delay(self) -> float:
        """Time spent waiting before execution started, in seconds."""
        if self.start_time is None:
            raise ValueError(f"query {self.query_id} has not started")
        return self.start_time - self.arrival_time

    @property
    def service_time(self) -> float:
        """Pure execution time on the partition, in seconds."""
        if self.start_time is None or self.finish_time is None:
            raise ValueError(f"query {self.query_id} has not completed")
        return self.finish_time - self.start_time

    @property
    def sla_violated(self) -> bool:
        """Whether the completed query missed its SLA (False if no SLA set)."""
        if self.sla_target is None:
            return False
        return self.latency > self.sla_target


class QueryRecords(MutableSequence[QueryRecord]):
    """The per-query outcomes of one run, in submission order.

    ``len()`` reads the columns; the first element access (indexing,
    iteration, ``pop``, ...) builds every :class:`QueryRecord` once, into
    one list that later accesses, and any edits, share.  The columns must
    no longer change, so only closed runs hand these out.
    """

    __slots__ = ("_columns", "_records")

    def __init__(self, columns: QueryColumns) -> None:
        self._columns = columns
        self._records: Optional[List[QueryRecord]] = None

    def _built(self) -> List[QueryRecord]:
        records = self._records
        if records is None:
            columns = self._columns
            records = self._records = [
                QueryRecord(
                    query.query_id,
                    query.model,
                    query.batch,
                    query.arrival_time,
                    query.sla_target,
                    dispatch if dispatch == dispatch else None,
                    start if start == start else None,
                    finish if finish == finish else None,
                    instance if instance >= 0 else None,
                    retries,
                    fail_time if fail_time == fail_time else None,
                )
                for query, dispatch, start, finish, instance, retries, fail_time in zip(
                    columns.queries,
                    columns.dispatch,
                    columns.start,
                    columns.finish,
                    columns.instance,
                    columns.retries,
                    columns.fail_time,
                )
            ]
        return records

    def __len__(self) -> int:
        records = self._records
        return len(self._columns) if records is None else len(records)

    def __getitem__(self, index: Any) -> Any:
        return self._built()[index]

    def __setitem__(self, index: Any, value: Any) -> None:
        self._built()[index] = value

    def __delitem__(self, index: Any) -> None:
        del self._built()[index]

    def insert(self, index: int, value: QueryRecord) -> None:
        self._built().insert(index, value)

    def __iter__(self) -> Iterator[QueryRecord]:
        return iter(self._built())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QueryRecords):
            other = other._built()
        return isinstance(other, list) and self._built() == other

    def __repr__(self) -> str:
        return f"QueryRecords({len(self)} queries)"


__all__ = ["NAN", "QueryColumns", "QueryRecord", "QueryRecords"]
