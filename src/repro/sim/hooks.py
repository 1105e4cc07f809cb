"""Typed lifecycle events and the simulator observer layer.

:class:`~repro.sim.cluster.InferenceServerSimulator` no longer only
accumulates per-query timestamps: every interesting moment of a run is
published as a typed event to registered :class:`SimulationObserver`
instances.  An event carries the query's request
(:class:`~repro.workload.query.Query`) and the run state of its moment:
``QueryCompleted.time`` is the finish time, ``QueryFailed.retries`` the
retries spent.  Mid-run statistics come from
:meth:`~repro.sim.cluster.InferenceServerSimulator.snapshot_statistics`.
:class:`WindowedMetrics` is the observer the serving session attaches by
default, producing per-time-window latency / throughput / SLA-violation
series from the run's columnar store (:class:`~repro.sim.columnar.QueryColumns`).

Events published per run:

* :class:`QueryArrived` — a query reached the server frontend (emitted once
  per query, even when a crash retries or a reconfiguration buffers it);
* :class:`QueryDispatched` — the scheduler placed the query on a partition;
* :class:`QueryCompleted` — execution finished;
* :class:`SlaViolated` — the completed query missed its SLA;
* :class:`WorkerIdle` — a partition finished with nothing left to do;
* :class:`QueryRequeued` — a mid-run reconfiguration pulled a not-yet-started
  query back off a partition's local queue;
* :class:`ReconfigStarted` / :class:`ReconfigFinished` — a live MIG
  repartition began draining / came back online;
* :class:`ServerScaledOut` / :class:`ServerScaledIn` /
  :class:`ServerPreempted` — the fleet control plane
  (:mod:`repro.autoscale`) added, drained or lost a whole server; the
  serving session constructs them and delivers them through the
  simulator's dispatch table
  (:meth:`~repro.sim.cluster.InferenceServerSimulator.emit_event`), before
  the :class:`ReconfigStarted` of the swap they cause, and only while a run
  is open;
* :class:`WorkerCrashed` / :class:`WorkerRecovered` — fault injection
  (:mod:`repro.faults`) took a partition down / brought it back;
* :class:`QueryFailed` — a displaced query exhausted its retry budget and
  became a first-class failure;
* :class:`ReconfigFailed` — an injected reconfiguration failure rolled the
  partition plan back (constructed by the serving session and delivered
  the same way).

Observers subclass :class:`SimulationObserver` and override any subset of the
``on_*`` handlers; unknown events are ignored, so observers stay forward
compatible with new event types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.sim.columnar import QueryColumns
from repro.workload.query import Query

# --------------------------------------------------------------------------- #
# typed lifecycle events
# --------------------------------------------------------------------------- #


@dataclass(slots=True)
class SimEvent:
    """Base class of every lifecycle event (``time`` is simulation seconds)."""

    time: float


@dataclass(slots=True)
class QueryArrived(SimEvent):
    """A query reached the server frontend."""

    query: Query


@dataclass(slots=True)
class QueryDispatched(SimEvent):
    """The scheduler placed a query on a partition's local queue."""

    query: Query
    instance_id: int


@dataclass(slots=True)
class QueryCompleted(SimEvent):
    """A query finished executing."""

    query: Query
    instance_id: int


@dataclass(slots=True)
class SlaViolated(SimEvent):
    """A completed query missed its SLA target."""

    query: Query
    instance_id: int


@dataclass(slots=True)
class WorkerIdle(SimEvent):
    """A partition went completely idle (nothing running, nothing queued)."""

    instance_id: int


@dataclass(slots=True)
class QueryRequeued(SimEvent):
    """A reconfiguration pulled an undispatched query back to the frontend."""

    query: Query
    instance_id: Optional[int]


@dataclass(slots=True)
class ReconfigStarted(SimEvent):
    """A live repartition started draining the old partition set."""

    old_instance_ids: Tuple[int, ...]
    requeued: int


@dataclass(slots=True)
class ReconfigFinished(SimEvent):
    """The new partition set came online after the modeled downtime."""

    new_instance_ids: Tuple[int, ...]
    downtime: float


@dataclass(slots=True)
class ServerScaledOut(SimEvent):
    """The autoscaler commissioned a whole server into the fleet.

    Constructed by the serving session's control plane when a commission's
    provisioning lead time elapses (or on a manual ``scale_out``) and the
    new server joins the pool; delivered through the simulator's dispatch
    table before the reconfiguration it causes.
    """

    server_index: int
    spec: str
    reason: str


@dataclass(slots=True)
class ServerScaledIn(SimEvent):
    """The autoscaler drained a whole server out of the fleet."""

    server_index: int
    spec: str
    reason: str


@dataclass(slots=True)
class ServerPreempted(SimEvent):
    """A spot-instance preemption removed a server from the fleet.

    ``notice`` is the warning the provider gave before reclaiming the
    capacity (seconds between the preemption notice and this removal).
    """

    server_index: int
    spec: str
    notice: float


@dataclass(slots=True)
class WorkerCrashed(SimEvent):
    """Fault injection crashed a partition mid-run.

    The partition's in-flight and queued queries are requeued (or failed,
    once their retry budget is exhausted) — each displaced query also gets
    its own :class:`QueryRequeued` / :class:`QueryFailed` event.
    """

    instance_id: int
    gpcs: int


@dataclass(slots=True)
class WorkerRecovered(SimEvent):
    """A crashed partition came back (restart event or reconfiguration)."""

    instance_id: int
    gpcs: int


@dataclass(slots=True)
class QueryFailed(SimEvent):
    """A displaced query exhausted its retry budget and failed for good.

    Failed queries are first-class outcomes: they are counted in
    :attr:`~repro.sim.metrics.ServerStatistics.failed_queries` and the
    per-window series alongside SLA violations, never silently dropped.
    """

    query: Query
    instance_id: int
    retries: int


@dataclass(slots=True)
class ReconfigFailed(SimEvent):
    """An injected reconfiguration failure rolled back to the old plan.

    Constructed by the serving session and delivered through the
    simulator's dispatch table before the rollback's
    :class:`ReconfigStarted`: the attempted repartition burns ``downtime``
    seconds of drain and comes back online with the *previous* partition
    shapes.
    """

    instance_ids: Tuple[int, ...]
    downtime: float


# --------------------------------------------------------------------------- #
# the observer interface
# --------------------------------------------------------------------------- #

_HANDLERS = {
    QueryArrived: "on_query_arrived",
    QueryDispatched: "on_query_dispatched",
    QueryCompleted: "on_query_completed",
    SlaViolated: "on_sla_violated",
    WorkerIdle: "on_worker_idle",
    QueryRequeued: "on_query_requeued",
    ReconfigStarted: "on_reconfig_started",
    ReconfigFinished: "on_reconfig_finished",
    ServerScaledOut: "on_server_scaled_out",
    ServerScaledIn: "on_server_scaled_in",
    ServerPreempted: "on_server_preempted",
    WorkerCrashed: "on_worker_crashed",
    WorkerRecovered: "on_worker_recovered",
    QueryFailed: "on_query_failed",
    ReconfigFailed: "on_reconfig_failed",
}


class SimulationObserver:
    """Base class for simulation observers.

    Subclasses override any subset of the ``on_*`` handlers; the default
    implementations are no-ops.  The simulator delivers events through
    :meth:`on_event`, which dispatches by event type (events of unknown
    types are silently ignored, keeping observers forward compatible).
    """

    def on_event(self, event: SimEvent) -> None:
        """Dispatch ``event`` to its typed handler."""
        handler = _HANDLERS.get(type(event))
        if handler is not None:
            getattr(self, handler)(event)

    def on_query_arrived(self, event: QueryArrived) -> None:
        """A query reached the frontend."""

    def on_query_dispatched(self, event: QueryDispatched) -> None:
        """A query was placed on a partition."""

    def on_query_completed(self, event: QueryCompleted) -> None:
        """A query finished executing."""

    def on_sla_violated(self, event: SlaViolated) -> None:
        """A completed query missed its SLA."""

    def on_worker_idle(self, event: WorkerIdle) -> None:
        """A partition went idle."""

    def on_query_requeued(self, event: QueryRequeued) -> None:
        """A reconfiguration requeued an undispatched query."""

    def on_reconfig_started(self, event: ReconfigStarted) -> None:
        """A live repartition started."""

    def on_reconfig_finished(self, event: ReconfigFinished) -> None:
        """A live repartition finished."""

    def on_server_scaled_out(self, event: ServerScaledOut) -> None:
        """The control plane commissioned a server into the fleet."""

    def on_server_scaled_in(self, event: ServerScaledIn) -> None:
        """The control plane drained a server out of the fleet."""

    def on_server_preempted(self, event: ServerPreempted) -> None:
        """A spot preemption removed a server from the fleet."""

    def on_worker_crashed(self, event: WorkerCrashed) -> None:
        """Fault injection crashed a partition."""

    def on_worker_recovered(self, event: WorkerRecovered) -> None:
        """A crashed partition came back online."""

    def on_query_failed(self, event: QueryFailed) -> None:
        """A query exhausted its retry budget and failed."""

    def on_reconfig_failed(self, event: ReconfigFailed) -> None:
        """An injected reconfiguration failure rolled the plan back."""


def build_dispatch_table(observers: Iterable[Any]) -> Dict[type, Tuple]:
    """Pre-resolve observers into ``{event type: (bound handlers, ...)}``.

    The simulator emits through this table so that (a) handler resolution
    happens once per run instead of once per event, and (b) event types no
    observer handles are never even constructed — the hook layer's cost
    scales with what observers actually listen to.

    Observers overriding :meth:`SimulationObserver.on_event` itself (or
    plain duck-typed objects exposing ``on_event``) subscribe to every event
    type; otherwise only the overridden ``on_*`` handlers subscribe.
    """
    table: Dict[type, List] = {}
    for observer in observers:
        cls = type(observer)
        generic = (
            not isinstance(observer, SimulationObserver)
            or cls.on_event is not SimulationObserver.on_event
        )
        if generic:
            for event_type in _HANDLERS:
                table.setdefault(event_type, []).append(observer.on_event)
            continue
        for event_type, name in _HANDLERS.items():
            if getattr(cls, name) is not getattr(SimulationObserver, name):
                table.setdefault(event_type, []).append(getattr(observer, name))
    return {event_type: tuple(handlers) for event_type, handlers in table.items()}


class EventLog(SimulationObserver):
    """Records every event in order — handy for tests and debugging."""

    def __init__(self) -> None:
        self.events: List[SimEvent] = []

    def on_event(self, event: SimEvent) -> None:
        self.events.append(event)

    def of_type(self, event_type: type) -> List[SimEvent]:
        """All recorded events of ``event_type``, in emission order."""
        return [e for e in self.events if isinstance(e, event_type)]


# --------------------------------------------------------------------------- #
# windowed metrics
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class WindowStats:
    """Digested metrics of one time window ``[start, end)``.

    Attributes:
        index: zero-based window index.
        start / end: window bounds in simulation seconds.
        arrivals: queries that arrived at the frontend in the window.
        completions: queries that finished in the window.
        throughput_qps: ``completions / window length``.
        mean_latency / p95_latency: over completions in the window (0 when
            nothing completed).
        sla_count: completions carrying an SLA target.
        violations: completions that missed their SLA.
        violation_rate: ``violations / sla_count`` (0 when no SLA queries).
        reconfiguring: True when the window overlaps a reconfiguration
            downtime interval.
        failures: queries that exhausted their crash-retry budget in the
            window (0 without fault injection).
    """

    index: int
    start: float
    end: float
    arrivals: int
    completions: int
    throughput_qps: float
    mean_latency: float
    p95_latency: float
    sla_count: int
    violations: int
    violation_rate: float
    reconfiguring: bool
    failures: int = 0


class WindowedMetrics(SimulationObserver):
    """Per-time-window latency / throughput / violation series of one run.

    The simulator binds the observer to its run's columnar store
    (:meth:`attach_columns`), and every view — :meth:`series`,
    :meth:`observed_batch_histogram` / :meth:`observed_batch_pdf`,
    :meth:`recent_violation_stats`, :meth:`horizon`, :meth:`backlog` —
    digests those columns, vectorised, when it is read, so the replay loop
    never pays a Python callback per query.  The observer handles only the
    reconfiguration and fault events, whose downtime and timing the columns
    do not hold; per-query events sent to :meth:`on_event` are ignored, like
    any unhandled event.

    One observer describes **one run**: binding it to a new run's store
    resets it, and an observer not yet bound reads an empty store.

    Args:
        window: window length in simulation seconds.
    """

    def __init__(self, window: float = 1.0) -> None:
        if not 0 < window < math.inf:
            raise ValueError(f"window must be positive and finite, got {window}")
        self.window = window
        self._columns = QueryColumns()
        self._downtime: List[Tuple[float, float]] = []
        self._reconfig_started_at: Optional[float] = None
        # The latest reconfiguration or fault event; the columns hold the
        # time of every query event.
        self._last_event_time = 0.0

    def attach_columns(self, columns: QueryColumns) -> None:
        """Bind this observer to a run's columnar store.

        Binding resets the observer: it now describes exactly the bound
        run.  Re-attaching the store it is already bound to (the simulator
        re-resolving its observers when another observer is added mid-run)
        is a no-op, so already-recorded reconfiguration history survives.
        """
        if self._columns is columns:
            return
        self._columns = columns
        self._downtime.clear()
        self._reconfig_started_at = None
        self._last_event_time = 0.0

    def _state(
        self,
    ) -> Tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray
    ]:
        """Numpy views + masks of the bound columns.

        ``seen`` marks the queries whose arrival event has actually fired —
        the simulator raises the ``announced`` flag exactly once per query,
        at its first arrival event — so queries submitted mid-run at the
        current instant, whose events are still pending, are not counted
        yet.  Completions are recorded only when their event fires, so the
        finish column needs no filter.
        """
        columns = self._columns
        arrival = np.frombuffer(columns.arrival, dtype=np.float64)
        batch = np.frombuffer(columns.batch, dtype=np.int64)
        finish = np.frombuffer(columns.finish, dtype=np.float64)
        deadline = np.frombuffer(columns.deadline, dtype=np.float64)
        seen = np.frombuffer(columns.announced, dtype=np.int8) != 0
        completed = ~np.isnan(finish)
        return arrival, batch, finish, deadline, seen, completed

    def _fail_times(self) -> np.ndarray:
        """Fail times of retry-exhausted queries."""
        fail = np.frombuffer(self._columns.fail_time, dtype=np.float64)
        return fail[~np.isnan(fail)]

    def _horizon(self, state: Tuple[np.ndarray, ...]) -> float:
        arrival, _, finish, _, seen, completed = state
        horizon = self._last_event_time
        if seen.any():
            horizon = max(horizon, float(arrival[seen].max()))
        if completed.any():
            horizon = max(horizon, float(finish[completed].max()))
        failed = self._fail_times()
        if failed.size:
            horizon = max(horizon, float(failed.max()))
        return horizon

    # ------------------------------------------------------------------ #
    # reconfiguration and fault events
    # ------------------------------------------------------------------ #
    def on_worker_crashed(self, event: WorkerCrashed) -> None:
        # fault times count toward the horizon so the availability
        # integration bills outages even past the last query event
        self._last_event_time = max(self._last_event_time, event.time)

    def on_worker_recovered(self, event: WorkerRecovered) -> None:
        self._last_event_time = max(self._last_event_time, event.time)

    def on_reconfig_started(self, event: ReconfigStarted) -> None:
        self._reconfig_started_at = event.time
        self._last_event_time = max(self._last_event_time, event.time)

    def on_reconfig_finished(self, event: ReconfigFinished) -> None:
        start = (
            self._reconfig_started_at
            if self._reconfig_started_at is not None
            else event.time - event.downtime
        )
        self._downtime.append((start, event.time))
        self._reconfig_started_at = None
        self._last_event_time = max(self._last_event_time, event.time)

    # ------------------------------------------------------------------ #
    # digestion
    # ------------------------------------------------------------------ #
    @property
    def downtime_intervals(self) -> List[Tuple[float, float]]:
        """Closed reconfiguration downtime intervals seen so far."""
        return list(self._downtime)

    def _overlaps_downtime(self, start: float, end: float) -> bool:
        return any(start < hi and lo < end for lo, hi in self._downtime)

    def series(self, until: Optional[float] = None) -> List[WindowStats]:
        """The windowed series from time 0 through ``until`` (default: the
        last observed event), including empty windows so gaps — e.g. a
        reconfiguration dip — stay visible.  An explicit ``until`` truncates:
        windows starting after it are not reported."""
        window = self.window
        state = self._state()
        arrival, _, finish, deadline, seen, completed = state
        if until is None:
            horizon = self._horizon(state)
            if (
                horizon <= 0
                and not self._downtime
                and not seen.any()
                and not completed.any()
            ):
                return []
            last_index = int(max(horizon, 0.0) // window)
        else:
            if until < 0:
                return []
            last_index = int(until // window)
        count = last_index + 1

        arrival_index = (arrival[seen] // window).astype(np.int64)
        arrivals_per = np.bincount(
            arrival_index[arrival_index <= last_index], minlength=count
        )

        finished = finish[completed]
        latencies = finished - arrival[completed]
        deadlines = deadline[completed]
        finish_index = (finished // window).astype(np.int64)
        in_range = finish_index <= last_index
        finish_index = finish_index[in_range]
        latencies = latencies[in_range]
        deadlines = deadlines[in_range]
        completions_per = np.bincount(finish_index, minlength=count)
        has_sla = ~np.isnan(deadlines)
        violated = latencies > deadlines  # NaN deadline compares False
        sla_per = np.bincount(finish_index, weights=has_sla, minlength=count)
        violations_per = np.bincount(finish_index, weights=violated, minlength=count)

        failed_times = self._fail_times()
        fail_index = (failed_times // window).astype(np.int64)
        failures_per = np.bincount(fail_index[fail_index <= last_index], minlength=count)

        # Group completion latencies by window for the mean/p95 summaries.
        order = np.argsort(finish_index, kind="stable")
        sorted_latencies = latencies[order]
        boundaries = np.searchsorted(finish_index[order], np.arange(count + 1))

        out: List[WindowStats] = []
        for index in range(count):
            start = index * window
            end = start + window
            completions = int(completions_per[index])
            lo, hi = boundaries[index], boundaries[index + 1]
            if completions:
                window_latencies = sorted_latencies[lo:hi]
                mean_latency = float(window_latencies.mean())
                p95 = float(np.percentile(window_latencies, 95))
            else:
                mean_latency = p95 = 0.0
            sla_count = int(sla_per[index])
            violations = int(violations_per[index])
            out.append(
                WindowStats(
                    index=index,
                    start=start,
                    end=end,
                    arrivals=int(arrivals_per[index]),
                    completions=completions,
                    throughput_qps=completions / window,
                    mean_latency=mean_latency,
                    p95_latency=p95,
                    sla_count=sla_count,
                    violations=violations,
                    violation_rate=violations / sla_count if sla_count else 0.0,
                    reconfiguring=self._overlaps_downtime(start, end),
                    failures=int(failures_per[index]),
                )
            )
        return out

    # ------------------------------------------------------------------ #
    # trigger-facing views
    # ------------------------------------------------------------------ #
    def _last_lookback_window(self, now: float) -> int:
        """Index of the newest window a lookback at ``now`` should cover.

        The window containing ``now`` counts only when ``now`` lies strictly
        inside it: at an exact boundary (the session's checkpoint times) that
        window just opened and holds no elapsed time, so counting it would
        silently shorten every lookback by one full window.
        """
        last = int(now // self.window)
        if last > 0 and now <= last * self.window:
            last -= 1
        return last

    def observed_batch_histogram(
        self, now: float, lookback_windows: int
    ) -> Dict[int, int]:
        """Arrival batch-size histogram over the ``lookback_windows`` windows
        preceding ``now`` (the window containing ``now`` included only when
        ``now`` lies strictly inside it)."""
        if lookback_windows < 1:
            raise ValueError("lookback_windows must be >= 1")
        last = self._last_lookback_window(now)
        first = max(0, last - lookback_windows + 1)
        arrival, batch, _, _, seen, _ = self._state()
        index = (arrival // self.window).astype(np.int64)
        mask = seen & (index >= first) & (index <= last)
        values, counts = np.unique(batch[mask], return_counts=True)
        return {int(b): int(c) for b, c in zip(values, counts)}

    def observed_batch_pdf(self, now: float, lookback_windows: int) -> Dict[int, float]:
        """Arrival batch-size PDF over the recent lookback (empty when no
        arrivals were observed)."""
        histogram = self.observed_batch_histogram(now, lookback_windows)
        total = sum(histogram.values())
        if total == 0:
            return {}
        return {batch: count / total for batch, count in histogram.items()}

    def recent_violation_stats(
        self, now: float, lookback_windows: int
    ) -> Tuple[int, int]:
        """``(violations, sla_count)`` over the recent lookback windows."""
        if lookback_windows < 1:
            raise ValueError("lookback_windows must be >= 1")
        last = self._last_lookback_window(now)
        first = max(0, last - lookback_windows + 1)
        arrival, _, finish, deadline, _, completed = self._state()
        finished = finish[completed]
        index = (finished // self.window).astype(np.int64)
        mask = (index >= first) & (index <= last)
        deadlines = deadline[completed][mask]
        latencies = finished[mask] - arrival[completed][mask]
        sla_count = int((~np.isnan(deadlines)).sum())
        violations = int((latencies > deadlines).sum())
        return violations, sla_count

    def horizon(self) -> float:
        """The last observed event time: the latest fired arrival,
        completion, failure, reconfiguration or fault event.

        The fleet-timeline integration (:mod:`repro.autoscale.timeline`)
        uses this as the end of the billing period.
        """
        return self._horizon(self._state())

    def backlog(self) -> int:
        """Queries that arrived but neither completed nor failed (queue
        depth): fired arrivals minus recorded completions and failures, the
        integer the scale-out triggers key on."""
        _, _, _, _, seen, completed = self._state()
        return int(seen.sum()) - int(completed.sum()) - int(self._fail_times().size)
