"""The inference-server simulator.

:class:`InferenceServerSimulator` replays a query trace against a set of
partition workers under a pluggable scheduling policy, using the
discrete-event engine.  It implements the server structure of Figure 6/9 of
the paper:

* a *frontend* receives queries (arrival events) and immediately consults the
  scheduler; when rate-limited it admits one query per dispatch gap, and
  queries that find it busy wait in a FIFO queue;
* per-partition *local scheduling queues* hold dispatched queries until their
  partition is free (ELSA-style policies);
* a server-wide *central queue* holds queries the scheduler chose not to
  dispatch yet (FIFS-style policies), drained whenever a partition goes idle.

Execution latency comes from the profiled lookup tables, so the simulator,
ELSA's estimator and PARIS all share one source of truth — exactly as in the
paper, where all three consume the same one-time profiling results.

Two run surfaces are offered:

* the classic one-shot :meth:`InferenceServerSimulator.run` (replay a whole
  trace, get one :class:`SimulationResult`), and
* a **streaming** surface — :meth:`begin` / :meth:`submit` /
  :meth:`run_until` / :meth:`finish` — used by
  :class:`~repro.serving.session.ServingSession` to pause the simulation at
  trigger checkpoints and :meth:`reconfigure` the partition set *mid-run*
  with a modeled MIG reconfiguration downtime.

Both surfaces publish typed lifecycle events (:mod:`repro.sim.hooks`) to any
registered observers; with no observers attached the event layer is skipped
entirely, so the one-shot replay loop costs the same as before it existed.

The replay loop is columnar: events are plain tuples
(:class:`~repro.sim.engine.TupleEventQueue`: the submitted trace is a sorted
run read through a cursor, and only in-flight events sit on a heap; C-level
comparisons, no event objects), per-query runtime state lives only in a
struct-of-arrays store (:class:`~repro.sim.columnar.QueryColumns`,
registered a batch at a time) that statistics digestion reads zero-copy,
events, queues and workers carry a query's row in that store (never the
query object, which no run writes), a dispatch onto an idle worker starts
the query without queueing it,
execution and wait estimates go through one memoized
:class:`~repro.perf.lookup.CachedEstimator`, and one reused
:class:`~repro.sim.scheduler_api.SchedulingContext` stands in for
per-event snapshots.  The context's change feed lists the workers whose
state changed since the previous arrival, so policies keep their own
indexes current instead of polling every worker (see
:mod:`repro.sim.drain_index` and FIFS's idle index).  Simulated outcomes
are pinned by the committed replay corpus
(``baselines/replay_corpus.json``).
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from collections import deque
from dataclasses import dataclass
from operator import le
from typing import Deque, Dict, List, Optional, Protocol, Sequence, Set, Tuple

import numpy as np

from repro.gpu.partition import PartitionInstance
from repro.perf.lookup import CachedEstimator, ProfileTable
from repro.sim.columnar import NAN, QueryColumns, QueryRecords
from repro.sim.engine import SimulationClock, TupleEventQueue
from repro.sim.events import EventKind
from repro.sim.hooks import (
    QueryArrived,
    QueryCompleted,
    QueryDispatched,
    QueryFailed,
    QueryRequeued,
    ReconfigFinished,
    ReconfigStarted,
    SimEvent,
    SimulationObserver,
    SlaViolated,
    WorkerCrashed,
    WorkerIdle,
    WorkerRecovered,
    build_dispatch_table,
)
from repro.sim.metrics import (
    ServerStatistics,
    completed_arrays_from_columns,
    compute_statistics_from_arrays,
)

# Re-exported: the layer tracer (``perfbench/layers.py``) patches
# ``compute_statistics`` under this module's name.
from repro.sim.metrics import compute_statistics  # noqa: F401
from repro.sim.scheduler_api import Scheduler, SchedulingContext
from repro.sim.worker import LatencyFn, PartitionWorker
from repro.workload.query import Query
from repro.workload.trace import QueryTrace

#: EventKind values as plain ints: the replay loop compares heap-entry kinds
#: against these without touching the enum machinery.
_ARRIVAL = int(EventKind.ARRIVAL)
_COMPLETION = int(EventKind.COMPLETION)

#: Tolerance (seconds) of the frontend's timing checks: a frontend that
#: frees at most this long after an event counts as free at that event.
_FRONTEND_SLACK = 1e-15


class RetryPolicyLike(Protocol):
    """What :meth:`InferenceServerSimulator.crash_worker` needs from a retry
    policy (structurally :class:`repro.faults.RetryPolicy` — duck-typed so
    the simulator layer does not import the faults package)."""

    max_retries: int

    def delay(self, attempt: int) -> float:
        """Backoff in seconds before retry ``attempt`` (1-based)."""
        ...


@dataclass(frozen=True)
class ReconfigurationRecord:
    """One live MIG repartition performed during a streaming run.

    Attributes:
        started: simulation time the reconfiguration was requested (old
            partitions stop accepting new work from this instant).
        drain_completed: when the last in-flight query of the old partition
            set finished executing.
        finished: when the new partition set came online
            (``drain_completed + reconfig_cost``).
        requeued: queries pulled back off local/central queues at ``started``.
        buffered_arrivals: queries that arrived during the downtime and were
            buffered at the frontend.
        old_instance_ids / new_instance_ids: the partition instances swapped
            out / in.
    """

    started: float
    drain_completed: float
    finished: float
    requeued: int
    buffered_arrivals: int
    old_instance_ids: Tuple[int, ...]
    new_instance_ids: Tuple[int, ...]

    @property
    def downtime(self) -> float:
        """Wall-clock span the server accepted no new work (seconds)."""
        return self.finished - self.started


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulated trace replay.

    Attributes:
        statistics: aggregate latency/utilization/throughput statistics.
        queries: one :class:`~repro.sim.columnar.QueryRecord` per submitted
            query, in submission order, built from the run's columns on
            first element access.
        per_instance_queries: number of queries each partition instance served.
        scheduler_name: the policy that produced this result.
        reconfigurations: live repartitions performed during the run (empty
            for classic one-shot replays).
    """

    statistics: ServerStatistics
    queries: QueryRecords
    per_instance_queries: Dict[int, int]
    scheduler_name: str
    reconfigurations: Tuple[ReconfigurationRecord, ...] = ()

    @property
    def p95_latency(self) -> float:
        """p95 tail latency in seconds."""
        return self.statistics.latency.p95

    @property
    def throughput_qps(self) -> float:
        """Achieved throughput in queries per second."""
        return self.statistics.throughput_qps

    @property
    def sla_violation_rate(self) -> float:
        """Fraction of SLA-carrying queries that missed their SLA."""
        return self.statistics.latency.sla_violation_rate


@dataclass
class _StagedReconfig:
    """Bookkeeping of an in-flight reconfiguration (internal)."""

    started: float
    drain_deadline: float
    new_workers: List[PartitionWorker]
    requeued: List[int]
    old_instance_ids: Tuple[int, ...]


class InferenceServerSimulator:
    """Replay query traces against a partitioned multi-GPU server.

    Args:
        instances: the partition instances of the server (from
            :meth:`repro.gpu.server.MultiGPUServer.configure` or a
            :class:`~repro.serving.deployment.Deployment`).
        profiles: profiled lookup tables keyed by model name; every model
            appearing in a trace must be present.
        scheduler: the scheduling policy to drive.
        execution_noise_std: relative log-normal noise on execution times
            (0 = deterministic).
        seed: RNG seed for execution noise.
        frontend_capacity_qps: maximum rate at which the server frontend can
            dispatch queries to the GPU workers, in queries/second.  The
            paper's serving stack (DeepRecInfra) has such a frontend, and
            Section V explicitly calls out configurations where the backend
            GPU workers outpace it.  Queries that find it busy wait in FIFO
            order; ``None`` disables the limit.
        observers: lifecycle-event observers (:mod:`repro.sim.hooks`); more
            can be attached later with :meth:`add_observer`.
        arch_profiles: per-architecture per-model lookup tables
            (``architecture name -> model name -> table``) for
            mixed-architecture fleets.  With two or more architectures every
            worker executes (and every scheduling context estimates)
            through *its own* architecture's memoized oracle; the scheduling
            context additionally exposes the per-architecture oracles via
            ``SchedulingContext.estimators``.  ``None`` (or a single
            architecture) keeps the classic single-oracle behaviour
            bit-for-bit.
    """

    def __init__(
        self,
        instances: Sequence[PartitionInstance],
        profiles: Dict[str, ProfileTable],
        scheduler: Scheduler,
        execution_noise_std: float = 0.0,
        seed: int = 0,
        frontend_capacity_qps: Optional[float] = None,
        observers: Sequence[SimulationObserver] = (),
        arch_profiles: Optional[Dict[str, Dict[str, ProfileTable]]] = None,
    ) -> None:
        if not instances:
            raise ValueError("simulator requires at least one partition instance")
        if not profiles:
            raise ValueError("simulator requires at least one profiled model")
        if frontend_capacity_qps is not None and not (
            0 < frontend_capacity_qps < math.inf
        ):
            raise ValueError(
                "frontend_capacity_qps must be positive and finite when set, "
                f"got {frontend_capacity_qps}"
            )
        self.profiles = dict(profiles)
        self.scheduler = scheduler
        self.frontend_capacity_qps = frontend_capacity_qps
        self._instances = sorted(instances, key=lambda i: (i.gpcs, i.instance_id))
        self._noise = execution_noise_std
        self._seed = seed
        self._observers: List[SimulationObserver] = list(observers)
        self._columns = QueryColumns()
        self._rebind_handlers()
        #: The latency oracle handed to workers and scheduling contexts; one
        #: persistent object so the workers' queued-work caches can key on it.
        self._estimator = CachedEstimator(self.profiles)
        #: Mixed fleets: one persistent memoized oracle per architecture.
        self._arch_estimators: Optional[Dict[str, CachedEstimator]] = None
        if arch_profiles is not None and len(arch_profiles) > 1:
            self._arch_estimators = {
                name: CachedEstimator(dict(tables))
                for name, tables in arch_profiles.items()
            }
            missing = sorted(
                {
                    instance.partition.architecture.name
                    for instance in self._instances
                }
                - set(self._arch_estimators)
            )
            if missing:
                raise ValueError(
                    f"instances use architecture(s) {missing} absent from "
                    f"arch_profiles {sorted(self._arch_estimators)}"
                )
        self.workers: List[PartitionWorker] = []
        self._active = False
        self._build_workers()
        self._reset_run_state()

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    def _worker_latency_fn(self, instance: PartitionInstance) -> LatencyFn:
        """The execution oracle for a worker on ``instance`` (per-architecture
        on mixed fleets, the shared oracle otherwise)."""
        if self._arch_estimators is not None:
            return self._arch_estimators[instance.partition.architecture.name]
        return self._estimator

    def _build_workers(self) -> None:
        self.workers = [
            PartitionWorker(
                instance=instance,
                latency_fn=self._worker_latency_fn(instance),
                noise_std=self._noise,
                seed=self._seed + idx,
                columns=self._columns,
            )
            for idx, instance in enumerate(self._instances)
        ]
        self._workers_by_id = {w.instance_id: w for w in self.workers}

    def _reset_run_state(self) -> None:
        self._clock = SimulationClock()
        self._events = TupleEventQueue()
        self._central_queue: Deque[int] = deque()
        self._events_processed = 0
        self._context: Optional[SchedulingContext] = None
        # The change feed (``SchedulingContext.changed``): workers whose
        # scheduling state changed since the last arrival's decision.
        self._changed: List[PartitionWorker] = []
        self._frontend_gap = (
            1.0 / self.frontend_capacity_qps if self.frontend_capacity_qps else 0.0
        )
        self._frontend_available = 0.0
        # The FIFO frontend queue, the time of its pending slot event, and
        # how many queries went ahead of the waiting ones while it is stale.
        self._frontend_queue: Deque[int] = deque()
        self._slot_time: Optional[float] = None
        self._slot_front = 0
        self._retired_workers: List[PartitionWorker] = []
        self._draining_ids: Set[int] = set()
        self._held: List[int] = []
        self._staged: Optional[_StagedReconfig] = None
        self._reconfig_log: List[ReconfigurationRecord] = []
        self._next_instance_id = 1 + max(i.instance_id for i in self._instances)
        # Fault-injection state: crashed workers by instance id (insertion =
        # crash order), queries that exhausted their retry budget, and
        # tombstones discarding the already-scheduled completion events of
        # aborted in-flight queries.  Keys are fully deterministic
        # (finish time, row, instance id) — never object identity.
        self._crashed: Dict[int, PartitionWorker] = {}
        self._failed: List[int] = []
        self._tombstones: Dict[Tuple[float, int, int], int] = {}

    def _rebind_handlers(self) -> None:
        """Pre-resolve the observer dispatch table into per-type attributes.

        The hot loop reads one attribute per event instead of a dictionary
        lookup per emission point; an empty tuple means "nobody listens —
        do not even construct the event".

        Observers that read the run's columns (those defining
        ``attach_columns``, e.g. :class:`~repro.sim.hooks.WindowedMetrics`)
        are bound to the current store first.
        """
        for observer in self._observers:
            attach = getattr(observer, "attach_columns", None)
            if attach is not None:
                attach(self._columns)
        self._dispatch_table = build_dispatch_table(self._observers)
        get = self._dispatch_table.get
        self._h_arrived = get(QueryArrived, ())
        self._h_dispatched = get(QueryDispatched, ())
        self._h_completed = get(QueryCompleted, ())
        self._h_sla = get(SlaViolated, ())
        self._h_idle = get(WorkerIdle, ())
        self._h_requeued = get(QueryRequeued, ())
        self._h_reconfig_started = get(ReconfigStarted, ())
        self._h_reconfig_finished = get(ReconfigFinished, ())
        self._h_failed = get(QueryFailed, ())
        self._h_crashed = get(WorkerCrashed, ())
        self._h_recovered = get(WorkerRecovered, ())

    def add_observer(self, observer: SimulationObserver) -> None:
        """Attach a lifecycle-event observer."""
        self._observers.append(observer)
        self._rebind_handlers()

    # ------------------------------------------------------------------ #
    # scheduling context
    # ------------------------------------------------------------------ #
    def _context_at(self, now: float) -> SchedulingContext:
        """The scheduling context: one reused object over live (read-only) views.

        The central queue and change feed are the simulator's own
        structures — documented read-only for schedulers — and only ``now``
        changes between scheduling moments, so the frozen dataclass is
        rebuilt only when the worker list itself is swapped (a live
        reconfiguration).
        """
        context = self._context
        if context is None or context.workers is not self.workers:
            context = self._context = SchedulingContext(
                now=now,
                workers=self.workers,
                central_queue=self._central_queue,
                estimator=self._estimator,
                estimators=self._arch_estimators,
                changed=self._changed,
            )
        else:
            object.__setattr__(context, "now", now)
        return context

    def estimate_latency(self, model: str, batch: int, gpcs: int) -> float:
        """Profiled execution latency of (model, batch) on ``GPU(gpcs)``.

        Raises:
            KeyError: if the model was not profiled.
        """
        return self._estimator(model, batch, gpcs)

    # ------------------------------------------------------------------ #
    # one-shot surface
    # ------------------------------------------------------------------ #
    def run(self, trace: QueryTrace) -> SimulationResult:
        """Replay ``trace`` and return the resulting statistics.

        The trace is read, never written, so one trace object can be
        replayed against any number of designs.
        """
        self.begin()
        self.submit_trace(trace)
        self.run_until(None)
        return self.finish(offered_load_qps=trace.arrival_rate())

    # ------------------------------------------------------------------ #
    # streaming surface
    # ------------------------------------------------------------------ #
    @property
    def active(self) -> bool:
        """True while a streaming run is open (``begin`` without ``finish``)."""
        return self._active

    @property
    def now(self) -> float:
        """Current simulation time of the open run, in seconds."""
        return self._clock.now

    @property
    def pending_events(self) -> int:
        """Number of simulation events not yet processed."""
        return len(self._events)

    @property
    def events_processed(self) -> int:
        """Simulation events processed since the run opened: arrivals,
        completions, reconfigurations and frontend slot events (one per
        query admitted from the frontend queue, plus one re-arm whenever an
        arrival at the slot's instant takes the slot first)."""
        return self._events_processed

    @property
    def reconfiguring(self) -> bool:
        """True while the partition set is offline mid-reconfiguration."""
        return self._staged is not None

    @property
    def pending_instances(self) -> Tuple[PartitionInstance, ...]:
        """The partition instances staged by an in-flight reconfiguration.

        :meth:`reconfigure` reassigns instance ids so generations never
        collide; callers that keep their own view of the server (e.g. a
        session's deployment) must adopt these renumbered instances, or
        their ids will not match completion events and per-instance
        statistics.

        Raises:
            RuntimeError: when no reconfiguration is in flight.
        """
        if self._staged is None:
            raise RuntimeError("no reconfiguration is in progress")
        return tuple(worker.instance for worker in self._staged.new_workers)

    @property
    def submitted_queries(self) -> Sequence[Query]:
        """Every query submitted to the open (or just-finished) run, in
        submission order."""
        return tuple(self._columns.queries)

    def begin(self) -> None:
        """Open a streaming run: fresh clock, queues, workers and scheduler.

        Raises:
            RuntimeError: when a streaming run is already open.
        """
        if self._active:
            raise RuntimeError("a streaming run is already open; call finish() first")
        self.scheduler.reset()
        self._columns = QueryColumns()
        # bind the column-reading observers to the fresh store
        self._rebind_handlers()
        self._build_workers()
        self._reset_run_state()
        self._active = True

    def submit(self, query: Query) -> None:
        """Inject one query into the open run (arrival at its own
        ``arrival_time``, which must not lie in the simulation's past)."""
        if not self._active:
            raise RuntimeError("submit() requires an open run; call begin() first")
        if query.arrival_time < self._clock.now:
            raise ValueError(
                f"query {query.query_id} arrives at {query.arrival_time}, "
                f"before the current simulation time {self._clock.now}"
            )
        columns = self._columns
        row = len(columns)
        columns.extend((query,))
        self._events.push(query.arrival_time, EventKind.ARRIVAL, row)

    def submit_trace(self, trace: QueryTrace) -> None:
        """Inject every query of ``trace``.

        A whole-trace submission into an empty event queue is bulk-loaded:
        the queries register in one batch and become the event queue's
        sorted run, so no arrival ever enters the heap.  Anything
        else (a non-empty queue, an unsorted duck-typed trace) falls back
        to one :meth:`submit` per query.
        """
        if not self._active:
            raise RuntimeError("submit() requires an open run; call begin() first")
        queries = list(trace)
        times = [query.arrival_time for query in queries]
        # Validate the bulk-load preconditions *before* touching any state:
        # QueryTrace guarantees sortedness, but duck-typed trace objects may
        # not, and a partial registration would leave phantom queries.
        if not queries or self._events or not all(map(le, times, times[1:])):
            for query in queries:
                self.submit(query)
            return
        if times[0] < self._clock.now:
            # sorted, so the first query is the earliest
            raise ValueError(
                f"query {queries[0].query_id} arrives at {times[0]}, "
                f"before the current simulation time {self._clock.now}"
            )
        base = len(self._columns)
        self._columns.extend(queries)
        self._events.extend_sorted(times, _ARRIVAL, range(base, base + len(queries)))

    def run_until(self, time: Optional[float] = None) -> float:
        """Process events up to and including ``time`` (``None`` = drain all).

        The clock ends on the last processed event, so the makespan reflects
        actual activity rather than the checkpoint grid.

        Returns:
            The simulation time after processing.
        """
        if not self._active:
            raise RuntimeError("run_until() requires an open run; call begin() first")
        return self._replay(time)

    def finish(self, offered_load_qps: Optional[float] = None) -> SimulationResult:
        """Drain every remaining event and close the run.

        Args:
            offered_load_qps: offered arrival rate to report; derived from
                the submitted queries when omitted.
        """
        if not self._active:
            raise RuntimeError("finish() requires an open run; call begin() first")
        self.run_until(None)
        return self._close(offered_load_qps)

    def abort(self, offered_load_qps: Optional[float] = None) -> SimulationResult:
        """Close the run *now*, without draining the pending events.

        The partial result digests exactly what has been simulated so far —
        in-flight and never-dispatched queries simply have no completion
        timestamps.  This is the cancellation surface: a serving daemon
        killing a tenant job mid-run reports the work done up to the
        cancellation instant instead of silently simulating to the end.

        Args:
            offered_load_qps: offered arrival rate to report; derived from
                the submitted queries when omitted.
        """
        if not self._active:
            raise RuntimeError("abort() requires an open run; call begin() first")
        return self._close(offered_load_qps)

    def _close(self, offered_load_qps: Optional[float]) -> SimulationResult:
        """Digest and seal the open run at the current simulation time.

        The scheduler is reset here as well as at :meth:`begin`, so no
        per-run policy state outlives the run.
        """
        self._active = False
        self.scheduler.reset()
        if offered_load_qps is None:
            offered_load_qps = self._observed_arrival_rate()
        makespan = self._clock.now
        all_workers = (
            self._retired_workers + list(self._crashed.values()) + self.workers
        )
        statistics = compute_statistics_from_arrays(
            completed_arrays_from_columns(self._columns),
            all_workers,
            makespan,
            total_queries=len(self._columns),
            offered_load_qps=offered_load_qps,
            failed=len(self._failed),
        )
        per_instance = {worker.instance_id: worker.completed for worker in all_workers}
        return SimulationResult(
            statistics=statistics,
            queries=QueryRecords(self._columns),
            per_instance_queries=per_instance,
            scheduler_name=self.scheduler.name,
            reconfigurations=tuple(self._reconfig_log),
        )

    def snapshot_statistics(self) -> ServerStatistics:
        """Digest the run *so far* (at the current simulation time).

        Unlike :meth:`finish` this leaves the run open; use it for live
        metrics mid-run.  The digestion reads the columnar store directly —
        no object materialisation, no Python re-scan.
        """
        all_workers = (
            self._retired_workers + list(self._crashed.values()) + self.workers
        )
        return compute_statistics_from_arrays(
            completed_arrays_from_columns(self._columns),
            all_workers,
            self._clock.now,
            total_queries=len(self._columns),
            offered_load_qps=self._observed_arrival_rate(),
            failed=len(self._failed),
        )

    def _observed_arrival_rate(self) -> float:
        # submit() only forbids arrivals in the simulation's past, so the
        # submission order need not be arrival order — span over min/max.
        arrivals = np.frombuffer(self._columns.arrival, dtype=np.float64)
        if arrivals.size < 2:
            return 0.0
        span = float(arrivals.max()) - float(arrivals.min())
        if span <= 0:
            return 0.0
        return (arrivals.size - 1) / span

    # ------------------------------------------------------------------ #
    # live reconfiguration
    # ------------------------------------------------------------------ #
    def reconfigure(
        self,
        instances: Sequence[PartitionInstance],
        reconfig_cost: float = 0.0,
    ) -> float:
        """Swap the partition set mid-run, modeling MIG reconfiguration.

        Semantics (the paper's observe → repartition → reconfigure loop):

        * old partitions stop accepting new work immediately; queries sitting
          in local queues or the central queue are *requeued* (they keep
          their original arrival times);
        * in-flight queries run to completion on the old partitions
          (MIG cannot reconfigure a busy instance);
        * once drained, the reconfiguration itself takes ``reconfig_cost``
          seconds during which the server executes nothing; arrivals are
          buffered at the frontend;
        * the new partitions come online together at
          ``drain_deadline + reconfig_cost`` and absorb the backlog.

        Args:
            instances: the new partition set (instance ids are reassigned so
                they never collide with earlier generations).
            reconfig_cost: modeled MIG reconfiguration downtime in seconds.

        Returns:
            The simulation time at which the new partitions come online.

        Raises:
            RuntimeError: outside an open run, or mid-reconfiguration.
            ValueError: for an empty instance set or a negative or
                non-finite cost.
        """
        if not self._active:
            raise RuntimeError(
                "reconfigure() requires an open streaming run; use "
                "begin()/submit()/run_until()"
            )
        if self._staged is not None:
            raise RuntimeError("a reconfiguration is already in progress")
        if not instances:
            raise ValueError("reconfigure() requires at least one partition instance")
        if not 0 <= reconfig_cost < math.inf:
            raise ValueError(
                f"reconfig_cost must be non-negative and finite, got {reconfig_cost}"
            )

        now = self._clock.now
        old_ids = tuple(w.instance_id for w in self.workers)

        # A reconfiguration heals crashed workers: the whole partition set is
        # replaced, so the outage ends here.  Crashed workers hold no queued
        # or in-flight work (aborted at crash time) — they just retire.
        if self._crashed:
            recovered_handlers = self._h_recovered
            for crashed_id, crashed_worker in self._crashed.items():
                self._retired_workers.append(crashed_worker)
                if recovered_handlers:
                    recovered = WorkerRecovered(now, crashed_id, crashed_worker.gpcs)
                    for handler in recovered_handlers:
                        handler(recovered)
            self._crashed.clear()

        # Pull back every query that has not started executing.
        requeue_handlers = self._h_requeued
        queries = self._columns.queries
        requeued: List[int] = []
        for row in self._central_queue:
            for handler in requeue_handlers:
                handler(QueryRequeued(now, queries[row], None))
            requeued.append(row)
        self._central_queue.clear()
        drain_deadline = now
        for worker in self.workers:
            for row in worker.drain_queue():
                self._columns.clear_dispatch(row)
                for handler in requeue_handlers:
                    handler(QueryRequeued(now, queries[row], worker.instance_id))
                requeued.append(row)
            if worker.current_finish_time is not None:
                drain_deadline = max(drain_deadline, worker.current_finish_time)
                # A busy worker stays accountable until its in-flight query
                # drains; an idle one retires the moment the swap starts.
                worker.retired_at = worker.current_finish_time
            else:
                worker.retired_at = now
            self._draining_ids.add(worker.instance_id)

        # Renumber the new instances so ids stay unique across generations
        # (per-instance statistics and completion events never collide).
        renumbered: List[PartitionInstance] = []
        for instance in sorted(instances, key=lambda i: (i.gpcs, i.instance_id)):
            renumbered.append(
                dataclasses.replace(instance, instance_id=self._next_instance_id)
            )
            self._next_instance_id += 1
        new_workers = [
            PartitionWorker(
                instance=instance,
                latency_fn=self._worker_latency_fn(instance),
                noise_std=self._noise,
                seed=self._seed + instance.instance_id,
                columns=self._columns,
            )
            for instance in renumbered
        ]

        self._retired_workers.extend(self.workers)
        self.workers = []
        self._staged = _StagedReconfig(
            started=now,
            drain_deadline=drain_deadline,
            new_workers=new_workers,
            requeued=requeued,
            old_instance_ids=old_ids,
        )
        for handler in self._h_reconfig_started:
            handler(ReconfigStarted(now, old_ids, len(requeued)))
        online_at = drain_deadline + reconfig_cost
        self._events.push(online_at, EventKind.RECONFIG)
        return online_at

    def _complete_reconfigure(self, now: float) -> None:
        staged = self._staged
        assert staged is not None
        new_workers = sorted(
            staged.new_workers, key=lambda w: (w.gpcs, w.instance_id)
        )
        self.workers = new_workers
        self._workers_by_id = {w.instance_id: w for w in new_workers}
        for worker in new_workers:
            worker.created_at = now
        self._draining_ids.clear()
        self._staged = None
        record = ReconfigurationRecord(
            started=staged.started,
            drain_completed=staged.drain_deadline,
            finished=now,
            requeued=len(staged.requeued),
            buffered_arrivals=len(self._held),
            old_instance_ids=staged.old_instance_ids,
            new_instance_ids=tuple(w.instance_id for w in new_workers),
        )
        self._reconfig_log.append(record)
        for handler in self._h_reconfig_finished:
            handler(
                ReconfigFinished(
                    now,
                    record.new_instance_ids,
                    downtime=record.downtime,
                )
            )
        # Re-inject the backlog (requeued + buffered arrivals) in arrival
        # order; each query re-enters through the frontend but keeps its
        # original arrival_time, so queueing delay includes the downtime.
        # With a rate-limited frontend the re-entries are pre-staggered one
        # dispatch slot apart, at `start + position * gap`.  Those times
        # differ in the last ulp from the chained slot times (`slot + gap`),
        # so queueing the backlog at the frontend instead would move
        # dispatch times.
        backlog = staged.requeued + self._held
        self._held = []
        arrival, queries = self._columns.arrival, self._columns.queries
        backlog.sort(key=lambda row: (arrival[row], queries[row].query_id))
        gap = self._frontend_gap
        start = max(now, self._frontend_available) if gap > 0 else now
        for position, row in enumerate(backlog):
            self._reenter(start + position * gap, row)

    # ------------------------------------------------------------------ #
    # the rate-limited frontend
    # ------------------------------------------------------------------ #
    # One pending slot event (an ARRIVAL-kind heap entry with no row)
    # admits the head of the FIFO frontend queue and re-arms one gap later,
    # so a backlog costs one event per admission.  Two rules for events at
    # the slot's instant keep the admission order of the former scheme, in
    # which every waiting query re-arrived at each slot:
    #
    # 1. Stale slot.  An arrival at the slot's instant that is processed
    #    before the slot event takes the slot, and the slot goes stale.
    #    Further arrivals at that instant go ahead of the waiting queries,
    #    in arrival order.
    # 2. Re-entry on the slot.  A query re-entering the frontend exactly at
    #    a pending, non-stale slot joins the queue at once, ahead of any
    #    arrival that comes before the slot fires.
    def _arm_slot(self, time: float) -> None:
        self._slot_time = time
        self._events.push(time, _ARRIVAL)

    def _wait_at_frontend(self, row: int, available: float) -> None:
        """Queue ``row``, which found the frontend busy until ``available``."""
        queue = self._frontend_queue
        slot = self._slot_time
        if slot is None:
            queue.append(row)
            self._arm_slot(available)
        elif available > slot + _FRONTEND_SLACK:
            # Rule 1: the slot is stale.
            queue.insert(self._slot_front, row)
            self._slot_front += 1
        else:
            queue.append(row)

    def _fire_slot(self, now: float) -> Optional[int]:
        """The slot event at ``now``: the row it admits, if any."""
        queue = self._frontend_queue
        self._slot_front = 0
        if self._staged is not None:
            # Draining/reconfiguring: the waiting queries are buffered too.
            self._held.extend(queue)
            queue.clear()
            self._slot_time = None
            return None
        available = self._frontend_available
        if available > now + _FRONTEND_SLACK:
            # Stale: admit the head when the frontend frees.
            self._arm_slot(available)
            return None
        self._frontend_available = available = now + self._frontend_gap
        row = queue.popleft()
        if queue:
            self._arm_slot(available)
        else:
            self._slot_time = None
        return row

    def _reenter(self, time: float, row: int) -> None:
        """Send an arrived query back through the frontend at ``time``."""
        if self._slot_time == time and self._frontend_available <= time + _FRONTEND_SLACK:
            # Rule 2: due exactly at the pending, non-stale slot.
            self._frontend_queue.append(row)
        else:
            self._events.push(time, _ARRIVAL, row)

    # ------------------------------------------------------------------ #
    # fault injection (worker crashes, stragglers)
    # ------------------------------------------------------------------ #
    @property
    def crashed_workers(self) -> Tuple[int, ...]:
        """Instance ids of currently crashed (not yet restored) workers."""
        return tuple(sorted(self._crashed))

    @property
    def failed_queries(self) -> Tuple[Query, ...]:
        """Queries that exhausted their retry budget, in failure order."""
        queries = self._columns.queries
        return tuple(queries[row] for row in self._failed)

    def crash_worker(
        self, instance_id: int, retry_policy: RetryPolicyLike
    ) -> Tuple[int, int]:
        """Crash a live partition worker at the current simulation time.

        The worker leaves the scheduling pool immediately.  Its in-flight
        query is aborted (the already-scheduled completion event is
        tombstoned and discarded when it pops) and, together with every
        locally queued query, is pushed back through the frontend as a fresh
        arrival after the policy's backoff — unless the query already burned
        its retry budget, in which case it becomes a first-class *failed*
        query (:class:`~repro.sim.hooks.QueryFailed`, counted in
        :attr:`~repro.sim.metrics.ServerStatistics.failed_queries`).

        Args:
            instance_id: the live worker to take down.
            retry_policy: retry budget + backoff for the displaced queries.

        Returns:
            ``(requeued, failed)`` — how many displaced queries were retried
            vs. failed.

        Raises:
            RuntimeError: outside an open run, mid-reconfiguration, or when
                the victim is the last live worker (an empty server cannot
                make progress; callers skip the event instead).
            KeyError: for an unknown or already-crashed instance id.
        """
        if not self._active:
            raise RuntimeError("crash_worker() requires an open run")
        if self._staged is not None:
            raise RuntimeError("cannot crash a worker mid-reconfiguration")
        worker = self._workers_by_id.get(instance_id)
        if worker is None or worker not in self.workers:
            raise KeyError(f"no live worker with instance id {instance_id}")
        if len(self.workers) <= 1:
            raise RuntimeError("cannot crash the last live worker")
        now = self._clock.now
        self.workers.remove(worker)  # in place: the context view stays live
        self._crashed[instance_id] = worker
        worker.retired_at = now
        handlers = self._h_crashed
        if handlers:
            crashed = WorkerCrashed(now, instance_id, worker.gpcs)
            for handler in handlers:
                handler(crashed)

        displaced: List[int] = []
        in_flight_finish = worker.current_finish_time
        if in_flight_finish is not None:
            aborted = worker.abort_current(now)
            key = (in_flight_finish, aborted, instance_id)
            self._tombstones[key] = self._tombstones.get(key, 0) + 1
            displaced.append(aborted)
        displaced.extend(worker.drain_queue())
        self._changed.append(worker)

        columns = self._columns
        queries = columns.queries
        requeued = failed = 0
        for row in displaced:
            columns.start[row] = NAN
            columns.clear_dispatch(row)
            retries = int(columns.retries[row])
            if retries >= retry_policy.max_retries:
                failed += 1
                columns.fail_time[row] = now
                self._failed.append(row)
                fail_handlers = self._h_failed
                if fail_handlers:
                    failed_event = QueryFailed(now, queries[row], instance_id, retries)
                    for handler in fail_handlers:
                        handler(failed_event)
                continue
            attempt = retries + 1
            columns.retries[row] = attempt
            requeued += 1
            requeue_handlers = self._h_requeued
            if requeue_handlers:
                requeue_event = QueryRequeued(now, queries[row], instance_id)
                for handler in requeue_handlers:
                    handler(requeue_event)
            # Re-enters through the frontend as a regular arrival: the
            # arrival-announce flag is already raised, so observers still
            # see the query arrive exactly once.
            self._reenter(now + retry_policy.delay(attempt), row)
        return requeued, failed

    def restore_worker(self, instance_id: int) -> None:
        """Bring a crashed worker back online at the current simulation time.

        The worker rejoins the scheduling pool (same instance id, same
        partition) and immediately offers itself to the central queue, like
        any worker going idle.

        Raises:
            RuntimeError: outside an open run or mid-reconfiguration.
            KeyError: when no crashed worker has ``instance_id``.
        """
        if not self._active:
            raise RuntimeError("restore_worker() requires an open run")
        if self._staged is not None:
            raise RuntimeError("cannot restore a worker mid-reconfiguration")
        worker = self._crashed.pop(instance_id, None)
        if worker is None:
            raise KeyError(f"no crashed worker with instance id {instance_id}")
        now = self._clock.now
        worker.retired_at = None
        self.workers.append(worker)
        self.workers.sort(key=lambda w: (w.gpcs, w.instance_id))  # in place
        self._workers_by_id[instance_id] = worker
        self._changed.append(worker)
        handlers = self._h_recovered
        if handlers:
            recovered = WorkerRecovered(now, instance_id, worker.gpcs)
            for handler in handlers:
                handler(recovered)
        # Offer the recovered worker backlog from the central queue, exactly
        # like the post-completion idle path.
        if self._central_queue:
            pulled = self.scheduler.on_worker_idle(worker, self._context_at(now))
            if pulled is not None:
                queue = self._central_queue
                if queue[0] == pulled:
                    queue.popleft()
                else:
                    queue.remove(pulled)
                self._dispatch(worker, pulled, now)

    def set_worker_slowdown(self, instance_id: int, multiplier: float) -> None:
        """Scale a worker's service times by ``multiplier`` (straggler).

        The factor also scales the worker's queued-work estimates, so
        wait-aware schedulers route around the slow partition; the in-flight
        query (if any) keeps its already-committed finish time.  ``1.0``
        restores normal speed.

        Raises:
            RuntimeError: outside an open run.
            KeyError: for an unknown instance id.
            ValueError: for a multiplier below 1 or not finite.
        """
        if not self._active:
            raise RuntimeError("set_worker_slowdown() requires an open run")
        if not 1.0 <= multiplier < math.inf:
            raise ValueError(f"multiplier must be >= 1 and finite, got {multiplier}")
        worker = self._workers_by_id.get(instance_id)
        if worker is None:
            raise KeyError(f"no worker with instance id {instance_id}")
        worker.slow_factor = multiplier
        self._changed.append(worker)

    def emit_event(self, event: SimEvent) -> None:
        """Deliver an externally constructed lifecycle event to observers.

        The serving session publishes every control-plane hook through it
        (fleet mutations and :class:`~repro.sim.hooks.ReconfigFailed`), so
        they reach observers through the same dispatch table as the
        simulator's own events.
        """
        for handler in self._dispatch_table.get(type(event), ()):
            handler(event)

    # ------------------------------------------------------------------ #
    # the replay loop
    # ------------------------------------------------------------------ #
    def _replay(self, until: Optional[float]) -> float:
        """Drain the event queue up to ``until`` with the hot logic inline.

        Entries are ``(time, kind, seq, row, worker)`` tuples; the loop
        unpacks them directly — no event objects, no per-event method
        dispatch, one clock write per event.  Each step takes the smaller of
        the run's head and ``heap[0]`` by full tuple comparison
        (:meth:`TupleEventQueue.pop` inlined).  The run's state is read from
        the queue at every step, so a bulk load from a handler mid-replay is
        seen.  The total order makes popped times non-decreasing, so the
        clock can be assigned without the monotonicity guard (push sites
        validate against the clock).
        """
        events = self._events
        heap = events._heap
        heappop = heapq.heappop
        clock = self._clock
        scheduler = self.scheduler
        central = self._central_queue
        gap = self._frontend_gap
        announced = self._columns.announced
        queries = self._columns.queries
        tombstones = self._tombstones
        changed = self._changed
        processed = self._events_processed
        now = clock.now
        try:
            while True:
                head = events._head
                if heap:
                    entry = heap[0]
                    if head is not None and head < entry:
                        entry = head
                elif head is None:
                    break
                else:
                    entry = head
                now = entry[0]
                if until is not None and now > until:
                    now = clock.now
                    break
                if entry is head:
                    # TupleEventQueue._advance, inlined
                    head = events._head = next(events._run, None)
                    if head is None:
                        events._run = iter(())
                else:
                    heappop(heap)
                processed += 1
                clock._now = now
                kind = entry[1]
                if kind == _ARRIVAL:
                    row = entry[3]
                    if row is None:
                        # The frontend's slot event.
                        row = self._fire_slot(now)
                        if row is None:
                            continue
                    else:
                        if not announced[row]:
                            # First firing of this query's arrival event: the
                            # flag is both the QueryArrived dedupe (crash
                            # retries and reconfig buffering re-enqueue the
                            # row) and the columnar "this arrival happened"
                            # marker the lazy metrics digestion filters on.
                            announced[row] = 1
                            handlers = self._h_arrived
                            if handlers:
                                arrived = QueryArrived(now, queries[row])
                                for handler in handlers:
                                    handler(arrived)
                        if self._staged is not None:
                            # Draining/reconfiguring: buffer at the frontend.
                            self._held.append(row)
                            continue
                        if gap > 0.0:
                            # The frontend dispatches queries serially; an
                            # arrival that finds it busy waits in its queue.
                            available = self._frontend_available
                            if available > now + _FRONTEND_SLACK:
                                self._wait_at_frontend(row, available)
                                continue
                            self._frontend_available = now + gap
                    worker = scheduler.on_arrival(queries[row], self._context_at(now))
                    # the scheduler has seen every change up to this decision
                    changed.clear()
                    if worker is None:
                        central.append(row)
                    else:
                        self._dispatch(worker, row, now)
                elif kind == _COMPLETION:
                    if tombstones:
                        # A crash aborted this completion's query; the event
                        # is stale.  Fault-free runs never populate the dict,
                        # so the hot path pays one truthiness check.
                        key = (now, entry[3], entry[4].instance_id)
                        count = tombstones.get(key)
                        if count:
                            if count == 1:
                                del tombstones[key]
                            else:
                                tombstones[key] = count - 1
                            continue
                    self._complete(entry[4], now)
                else:
                    self._complete_reconfigure(now)
        finally:
            self._events_processed = processed
        return now

    def _complete(self, worker: PartitionWorker, now: float) -> None:
        """Completion handling (the worker comes straight off the heap
        entry — no id -> worker map lookup)."""
        row = worker.complete_current(now)
        handlers = self._h_completed
        if handlers:
            completed = QueryCompleted(now, self._columns.queries[row], worker.instance_id)
            for handler in handlers:
                handler(completed)
        handlers = self._h_sla
        if handlers:
            query = self._columns.queries[row]
            sla = query.sla_target
            if sla is not None and now - query.arrival_time > sla:
                violated = SlaViolated(now, query, worker.instance_id)
                for handler in handlers:
                    handler(violated)

        if worker.instance_id in self._draining_ids:
            # A draining partition takes no further work; its local queue was
            # already requeued, so finishing the in-flight query empties it.
            return
        self._changed.append(worker)

        if worker.queue:
            # Start the next locally queued query.
            finish = worker.start_next(now)
            assert finish is not None  # the worker was just freed
            self._events.push(finish, _COMPLETION, worker.current_row, worker)
            return

        # Otherwise offer the now fully idle worker a query from the central
        # queue.
        if self._central_queue:
            pulled = self.scheduler.on_worker_idle(worker, self._context_at(now))
            if pulled is not None:
                queue = self._central_queue
                if queue[0] == pulled:
                    # FIFO drain is the overwhelmingly common case; popping
                    # the head avoids an O(queue) scan-and-remove.
                    queue.popleft()
                else:
                    queue.remove(pulled)
                self._dispatch(worker, pulled, now)
                return
        handlers = self._h_idle
        if handlers:
            idle = WorkerIdle(now, worker.instance_id)
            for handler in handlers:
                handler(idle)

    def _dispatch(self, worker: PartitionWorker, row: int, now: float) -> None:
        self._changed.append(worker)
        # A worker with nothing executing and nothing queued starts the
        # query at once, without the local-queue round trip.  Either way
        # observers see the query dispatched but not yet started.
        direct = worker.current_row is None and not worker.queue
        if direct:
            worker.assign(row, now)
        else:
            worker.enqueue(row, now)
        dispatch_handlers = self._h_dispatched
        if dispatch_handlers:
            dispatched = QueryDispatched(now, self._columns.queries[row], worker.instance_id)
            for handler in dispatch_handlers:
                handler(dispatched)
        finish = worker.start(row, now) if direct else worker.start_next(now)
        if finish is not None:
            self._events.push(finish, _COMPLETION, worker.current_row, worker)
