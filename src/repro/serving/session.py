"""Streaming serving sessions: lifecycle events, live metrics, mid-run
repartitioning.

:class:`ServingSession` is the event-driven execution surface of the
reproduction.  A session *runs* a workload config, a plain (possibly
multi-model) trace or a :class:`~repro.workload.scenario.Scenario` through
the streaming simulator:

* typed lifecycle events flow to registered observers
  (:mod:`repro.sim.hooks`), with a :class:`~repro.sim.hooks.WindowedMetrics`
  observer attached by default for per-time-window latency / throughput /
  SLA series;
* :meth:`ServingSession.metrics` snapshots the aggregate statistics at any
  simulation time, mid-run;
* :meth:`ServingSession.repartition` re-runs the configured partitioner
  against a freshly observed batch PDF **while the simulation is running**:
  old partitions drain, the MIG reconfiguration costs a configurable
  downtime, and the backlog is absorbed by the new partition set — the
  paper's observe → repartition → reconfigure loop inside one simulation;
* pluggable *triggers* (:mod:`repro.core.triggers`) automate that loop:
  evaluated on a simulation-time cadence, a firing trigger repartitions the
  session live.

One-shot serving is a run with ``window=None`` (no windowed metrics, no
triggers)::

    session = ServingSession(ServerConfig("resnet"), window=None)
    result = session.run(WorkloadConfig(model="resnet", rate_qps=2000.0))
    print(session.deployment.plan.describe(), result.summary())

A streaming run with live repartitioning adds triggers::

    session = ServingSession(ServerConfig("bert"),
                             triggers=["pdf-drift"], reconfig_cost=2.0)
    result = session.run(build_scenario("batch-drift", model="bert"))
    for w in result.windows:
        print(w.index, w.throughput_qps, w.violation_rate, w.reconfiguring)
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.triggers import (
    RepartitionTrigger,
    TriggerContext,
    resolve_triggers,
)
from repro.gpu.fleet import FleetRoster, FleetServerSpec
from repro.perf.lookup import ProfileTable
from repro.perf.profiler import Profiler
from repro.serving.config import ServerConfig, config_with_fleet
from repro.serving.deployment import Deployment, build_deployment, replan_deployment
from repro.faults.events import (
    FailedReconfigure,
    FaultEvent,
    FaultRecord,
    StragglerEnd,
    StragglerStart,
    WorkerCrash,
    WorkerRestart,
)
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import FaultSchedule
from repro.sim.cluster import (
    InferenceServerSimulator,
    ReconfigurationRecord,
    SimulationResult,
)
from repro.sim.hooks import (
    ReconfigFailed,
    ServerPreempted,
    ServerScaledIn,
    ServerScaledOut,
    SimEvent,
    SimulationObserver,
    WindowedMetrics,
    WindowStats,
)
from repro.sim.metrics import ServerStatistics
from repro.workload.generator import QueryGenerator, WorkloadConfig
from repro.workload.query import Query
from repro.workload.scenario import Scenario
from repro.workload.trace import QueryTrace

#: Default modeled MIG reconfiguration downtime in seconds.  Destroying and
#: re-creating GPU instances takes on the order of seconds on real A100s;
#: sessions that want an idealised (free) reconfiguration pass 0.0.
DEFAULT_RECONFIG_COST = 1.0


@dataclass(frozen=True)
class TriggerFiring:
    """One trigger firing during a session run."""

    time: float
    trigger: str
    reason: str


@dataclass(frozen=True)
class SessionResult:
    """Outcome of one :meth:`ServingSession.run`.

    Attributes:
        deployment: the deployment at the *end* of the run (after any live
            repartitions).
        simulation: the raw simulation result, including the
            reconfiguration records.
        sla_target: the primary model's derived SLA target in seconds.
        windows: the windowed metric series of the run (empty when the
            session was opened with ``window=None``).
        trigger_firings: every trigger firing, in order.
        fleet_events: every fleet-control-plane action of the run
            (:class:`~repro.autoscale.timeline.FleetEvent`), in order; empty
            unless an autoscaler, a preemption schedule or a manual fleet
            mutation was involved.
        fleet_windows: per-metrics-window fleet cost/availability rows
            (:class:`~repro.autoscale.timeline.FleetWindow`); populated only
            when the fleet control plane was active, so plain sessions stay
            byte-identical to their pre-control-plane results.
        fleet_cost: the run's total $-cost integral under
            :data:`repro.gpu.cost.GPC_COST` (0.0 without the control plane).
        fault_events: every fault-injection action of the run
            (:class:`~repro.faults.events.FaultRecord`), in order; empty
            without a fault schedule.
        fault_windows: per-metrics-window fault availability rows
            (:class:`~repro.faults.metrics.FaultWindow`); populated only
            when a fault schedule was active, so fault-free sessions stay
            byte-identical to their pre-faults results.
        fault_mttr: mean crash outage duration in seconds (0.0 without
            crashes).
    """

    deployment: Deployment
    simulation: SimulationResult
    sla_target: float
    windows: Tuple[WindowStats, ...] = ()
    trigger_firings: Tuple[TriggerFiring, ...] = ()
    fleet_events: Tuple[Any, ...] = ()
    fleet_windows: Tuple[Any, ...] = ()
    fleet_cost: float = 0.0
    fault_events: Tuple[Any, ...] = ()
    fault_windows: Tuple[Any, ...] = ()
    fault_mttr: float = 0.0

    @property
    def reconfigurations(self) -> Tuple[ReconfigurationRecord, ...]:
        """Live repartitions performed during the run."""
        return self.simulation.reconfigurations

    @property
    def p95_latency(self) -> float:
        """p95 tail latency in seconds."""
        return self.simulation.p95_latency

    @property
    def throughput_qps(self) -> float:
        """Achieved throughput in queries/second."""
        return self.simulation.throughput_qps

    @property
    def sla_violation_rate(self) -> float:
        """Fraction of SLA-carrying queries that missed their SLA."""
        return self.simulation.sla_violation_rate

    @property
    def mean_utilization(self) -> float:
        """Mean per-partition utilization."""
        return self.simulation.statistics.utilization.mean

    @property
    def mean_availability(self) -> float:
        """Mean per-window fleet availability (1.0 without the control plane)."""
        if not self.fleet_windows:
            return 1.0
        return sum(w.availability for w in self.fleet_windows) / len(
            self.fleet_windows
        )

    @property
    def failed_queries(self) -> int:
        """Queries that exhausted their crash-retry budget (0 without faults)."""
        return self.simulation.statistics.failed_queries

    @property
    def fault_availability(self) -> float:
        """Mean per-window delivered-over-planned availability under faults
        (1.0 without a fault schedule)."""
        if not self.fault_windows:
            return 1.0
        return sum(w.availability for w in self.fault_windows) / len(
            self.fault_windows
        )

    def summary(self) -> Dict[str, float]:
        """Compact numeric summary for reports.

        The fleet-control-plane keys (``fleet_cost``, ``mean_availability``,
        ``final_servers``, ``fleet_events``) appear only when the run had a
        fleet timeline, keeping plain sessions' summaries byte-identical to
        their pre-control-plane shape.
        """
        summary = {
            "p95_latency_ms": self.p95_latency * 1e3,
            "mean_latency_ms": self.simulation.statistics.latency.mean * 1e3,
            "throughput_qps": self.throughput_qps,
            "sla_violation_rate": self.sla_violation_rate,
            "mean_utilization": self.mean_utilization,
            "sla_target_ms": self.sla_target * 1e3,
            "reconfigurations": float(len(self.reconfigurations)),
            "total_downtime_s": float(
                sum(record.downtime for record in self.reconfigurations)
            ),
        }
        if self.fleet_windows:
            summary["fleet_cost"] = float(self.fleet_cost)
            summary["mean_availability"] = float(self.mean_availability)
            summary["final_servers"] = float(self.fleet_windows[-1].servers)
            summary["fleet_events"] = float(len(self.fleet_events))
        if self.fault_windows:
            summary["failed_queries"] = float(self.failed_queries)
            summary["fault_availability"] = float(self.fault_availability)
            summary["mttr_s"] = float(self.fault_mttr)
            summary["fault_events"] = float(len(self.fault_events))
            summary["query_retries"] = float(
                sum(record.requeued for record in self.fault_events)
            )
        return summary


#: Anything a session can run: a scenario, a concrete trace or a workload.
SessionWorkload = Union[Scenario, QueryTrace, WorkloadConfig]


class ServingSession:
    """An event-driven serving run over one server design point.

    Args:
        config: the design point, a :class:`~repro.serving.config.ServerConfig`.
        profiler: optional custom profiler for models lacking a pre-built
            profile; ``None`` (the default) takes their tables from the
            process-wide cache (:func:`~repro.perf.profiler.cached_profile`),
            shared with every other deployment of the same sweep.
        batch_pdf: optional explicit batch PDF the deployment is planned
            for (over a :meth:`from_deployment` deployment: the PDF it was
            planned for), which drift triggers compare against; when omitted
            the workload's own planning PDF is used.
        profiles: pre-built profile tables keyed by model name.  A design
            with one architecture, in either spelling, takes them and a
            custom ``profiler``; a mixed fleet rejects both.
        reconfig_cost: modeled MIG reconfiguration downtime in seconds paid
            by every live repartition.
        triggers: repartition triggers — registry names, ``(name, options)``
            pairs or trigger objects (see :mod:`repro.core.triggers`).  A
            trigger whose declared ``action`` is not ``"repartition"`` (the
            scale triggers) raises ``ValueError``: it belongs to an
            :class:`~repro.autoscale.autoscaler.Autoscaler`.
        trigger_interval: simulation-time cadence of trigger evaluation;
            defaults to ``window``.
        window: :class:`~repro.sim.hooks.WindowedMetrics` window length in
            seconds; ``None`` disables windowed metrics (and triggers).
        observers: extra lifecycle-event observers to attach to every run.
        execution_noise_std: relative log-normal noise on execution times.
        autoscaler: optional :class:`~repro.autoscale.autoscaler.Autoscaler`
            (or any object with the same ``reset``/``next_due``/``take_due``/
            ``evaluate`` surface) driving whole-server scale-out/scale-in on
            the trigger checkpoint grid.  Requires a metrics window.
        preemptions: optional
            :class:`~repro.autoscale.preemption.PreemptionSchedule` (or a
            sequence of :class:`~repro.autoscale.preemption.PreemptionEvent`)
            of spot reclaims executed deterministically during the run.
            Requires a metrics window.
        faults: optional :class:`~repro.faults.schedule.FaultSchedule` (or a
            sequence of :class:`~repro.faults.events.FaultEvent`) of worker
            crashes/restarts, stragglers and failed reconfigurations,
            injected deterministically on the same due-time interleaving as
            the fleet control plane.  A non-empty schedule requires a
            metrics window (availability is accounted per window); an empty
            schedule leaves the session bit-identical to a fault-free one.
        retry_policy: :class:`~repro.faults.retry.RetryPolicy` governing how
            crash-displaced queries are retried (default
            ``RetryPolicy()``: 2 retries, no backoff).
    """

    def __init__(
        self,
        config: ServerConfig,
        *,
        profiler: Optional[Profiler] = None,
        batch_pdf: Optional[Dict[int, float]] = None,
        profiles: Optional[Mapping[str, ProfileTable]] = None,
        reconfig_cost: float = DEFAULT_RECONFIG_COST,
        triggers: Sequence[Any] = (),
        trigger_interval: Optional[float] = None,
        window: Optional[float] = 1.0,
        observers: Sequence[SimulationObserver] = (),
        execution_noise_std: float = 0.0,
        autoscaler: Optional[Any] = None,
        preemptions: Optional[Any] = None,
        faults: Optional[Any] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if not isinstance(config, ServerConfig):
            raise TypeError(f"config must be a ServerConfig, got {type(config).__name__}")
        if batch_pdf is not None and not batch_pdf:
            raise ValueError(
                "batch_pdf must be non-empty; pass None to derive the PDF "
                "from the workload"
            )
        if not 0 <= reconfig_cost < math.inf:
            raise ValueError(
                f"reconfig_cost must be non-negative and finite, got {reconfig_cost}"
            )
        if window is not None and not 0 < window < math.inf:
            raise ValueError(
                "window must be positive and finite (or None to disable), "
                f"got {window}"
            )
        if trigger_interval is not None and not 0 < trigger_interval < math.inf:
            raise ValueError(
                "trigger_interval must be positive and finite when set, "
                f"got {trigger_interval}"
            )
        if not 0 <= execution_noise_std < math.inf:
            raise ValueError(
                "execution_noise_std must be non-negative and finite, "
                f"got {execution_noise_std}"
            )
        if config.is_heterogeneous_fleet and (profiler is not None or profiles):
            raise ValueError(
                "mixed-architecture fleets profile every (model, "
                "architecture) pair through the per-architecture cache; a "
                "custom profiler or pre-built single-architecture profiles "
                "would be silently wrong — drop them"
            )
        if (autoscaler is not None or preemptions) and window is None:
            raise ValueError(
                "the fleet control plane accounts cost and availability per "
                "metrics window; pass a window length instead of window=None"
            )
        if preemptions is not None and not hasattr(preemptions, "events"):
            from repro.autoscale.preemption import PreemptionSchedule

            preemptions = PreemptionSchedule(preemptions)
        if faults is not None and not isinstance(faults, FaultSchedule):
            faults = FaultSchedule(faults)
        if faults is not None and faults.events and window is None:
            raise ValueError(
                "fault injection accounts availability per metrics window; "
                "pass a window length instead of window=None"
            )
        self.config: ServerConfig = config
        self.profiler = profiler
        self.reconfig_cost = reconfig_cost
        self.window = window
        self.triggers: List[RepartitionTrigger] = resolve_triggers(triggers)
        for trigger in self.triggers:
            action = getattr(trigger, "action", "repartition")
            if action != "repartition":
                name = getattr(trigger, "name", type(trigger).__name__)
                raise ValueError(
                    f"trigger {name!r} fires {action!r} decisions, which "
                    "only an autoscaler executes; pass it as "
                    "Autoscaler(triggers=...) and the autoscaler as "
                    "autoscaler=..."
                )
        if self.triggers and window is None:
            raise ValueError(
                "triggers observe the windowed metrics; pass a window length "
                "instead of window=None"
            )
        self.trigger_interval = (
            trigger_interval if trigger_interval is not None else window
        )
        self._observers: List[SimulationObserver] = list(observers)
        self._noise = execution_noise_std
        self._explicit_pdf = dict(batch_pdf) if batch_pdf else None
        self._profiles: Dict[str, ProfileTable] = dict(profiles or {})
        self._deployment: Optional[Deployment] = None
        self._planned_pdf: Optional[Dict[int, float]] = None
        self._sim: Optional[InferenceServerSimulator] = None
        self._windowed: Optional[WindowedMetrics] = None
        self._last_result: Optional[SessionResult] = None
        self._last_reconfig_online = 0.0
        self._firings: List[TriggerFiring] = []
        self._next_checkpoint: Optional[float] = None
        self._offered_load: Optional[float] = None
        # fleet control plane (PR 7)
        self.autoscaler = autoscaler
        self.preemptions = preemptions
        self._roster: Optional[FleetRoster] = None
        self._fleet_events: List[Any] = []
        self._fleet_log: List[Tuple[float, Tuple[FleetServerSpec, ...]]] = []
        self._sim_archs: set = set()
        #: per run: the control timeline (see begin() and _apply_due_control)
        self._timeline: Tuple[List[Any], List[Any], List[Any]] = ([], [], [])
        # fault injection (PR 9)
        self.faults: Optional[FaultSchedule] = faults
        self.retry_policy: RetryPolicy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self._fault_records: List[FaultRecord] = []
        #: instance id -> (crash time, gpcs) of currently-down workers
        self._open_crashes: Dict[int, Tuple[float, int]] = {}
        self._crash_intervals: List[Tuple[float, float, int]] = []
        self._armed_reconfig_failures: List[FailedReconfigure] = []
        #: (time, total gpcs) capacity steps for availability integration
        self._capacity_log: List[Tuple[float, int]] = []

    @classmethod
    def from_deployment(cls, deployment: Deployment, **kwargs: Any) -> "ServingSession":
        """Open a session over an already-materialised deployment."""
        session = cls(deployment.config, **kwargs)
        session._deployment = deployment
        return session

    # ------------------------------------------------------------------ #
    # deployment lifecycle
    # ------------------------------------------------------------------ #
    @property
    def deployment(self) -> Deployment:
        """The current deployment (deploys lazily when a PDF is known)."""
        if self._deployment is None:
            return self.deploy()
        return self._deployment

    def deploy(self, batch_pdf: Optional[Dict[int, float]] = None) -> Deployment:
        """Profile the served models, run the partitioner and configure the
        server.

        Args:
            batch_pdf: batch-size PDF the partitioner plans for; falls back
                to the PDF given at construction.  An explicitly passed
                empty PDF is an error, never a silent fallback.

        Returns:
            The materialised deployment, which also becomes
            :attr:`deployment`.
        """
        pdf = batch_pdf if batch_pdf is not None else self._explicit_pdf
        if pdf is None:
            raise ValueError(
                "a batch-size PDF is required to deploy; pass one here, at "
                "construction, or run a workload first"
            )
        if not pdf:
            raise ValueError(
                "batch_pdf must be non-empty: an empty PDF gives the "
                "partitioner nothing to work with"
            )
        # A deployment without per-architecture tables served this design's
        # one architecture, so its tables serve the next deploy too (a custom
        # profiler profiles each model once); a mixed fleet's come from the
        # per-architecture cache, which refuses explicit tables.
        current = self._deployment
        reuse = current is not None and current.arch_profiles is None
        self._deployment = build_deployment(
            self.config,
            pdf,
            profiler=self.profiler,
            profiles=self.profiles if reuse else self._profiles,
        )
        self._planned_pdf = dict(pdf)
        return self._deployment

    @property
    def planned_pdf(self) -> Optional[Dict[int, float]]:
        """The batch PDF the current partition plan was derived from."""
        return dict(self._planned_pdf) if self._planned_pdf is not None else None

    @property
    def has_deployment(self) -> bool:
        """True once the session holds a materialised deployment."""
        return self._deployment is not None

    @property
    def profiles(self) -> Dict[str, ProfileTable]:
        """Profile tables known to the session (pre-supplied + deployed)."""
        deployed = self._deployment.profiles if self._deployment is not None else {}
        return {**self._profiles, **deployed}

    @property
    def running(self) -> bool:
        """True while a run is in flight (i.e. during trigger callbacks)."""
        return self._sim is not None and self._sim.active

    def repartition(self, new_pdf: Dict[int, float]) -> Deployment:
        """Re-run the partitioner against ``new_pdf``.

        Mid-run this is a *live* reconfiguration: the simulator drains the
        old partitions, pays :attr:`reconfig_cost` of downtime and brings the
        new plan online without stopping the simulation.  Between runs it
        simply rebuilds the deployment (profiles are reused).

        Raises:
            ValueError: for an empty PDF.
            RuntimeError: while a live reconfiguration is in flight.
        """
        if not new_pdf:
            raise ValueError("repartition requires a non-empty batch PDF")
        self._check_replannable("repartition", fleet=False)
        if self._deployment is None:
            return self.deploy(batch_pdf=new_pdf)
        replanned = replan_deployment(self._deployment, new_pdf)
        if self.running:
            if self._armed_reconfig_failures:
                # an armed FailedReconfigure fault consumes this attempt:
                # downtime is paid, but the old plan stays in force
                return self._fail_reconfigure(self._armed_reconfig_failures.pop(0))
            replanned = self._swap(replanned, self.reconfig_cost)
        self._deployment = replanned
        self._planned_pdf = dict(new_pdf)
        return self._deployment

    # ------------------------------------------------------------------ #
    # running
    # ------------------------------------------------------------------ #
    def run(
        self, workload: SessionWorkload, seed: Optional[int] = None
    ) -> SessionResult:
        """Run ``workload`` (a scenario, trace or workload config) end to end.

        The session deploys lazily from the workload's planning PDF when no
        deployment exists yet; triggers (if any) are evaluated every
        :attr:`trigger_interval` simulated seconds and may repartition the
        server live.

        ``run()`` is exactly ``begin(workload, seed)`` + ``run_until(None)``
        + ``finish()`` — the streaming surface used by callers (like the
        serving daemon) that advance the session incrementally.

        Args:
            workload: the scenario, trace or workload config to run.
            seed: overrides the workload's own generation seed (a scenario's
                ``Scenario.seed``, a workload config's ``seed``) and seeds
                the simulator's execution noise; ``None`` keeps the
                workload's seed and noise seed 0.

        Returns:
            The :class:`SessionResult`, also retrievable via
            :attr:`last_result`.
        """
        self.begin(workload, seed=seed)
        return self.finish()

    # ------------------------------------------------------------------ #
    # streaming surface
    # ------------------------------------------------------------------ #
    def begin(self, workload: SessionWorkload, seed: Optional[int] = None) -> None:
        """Open a streaming run over ``workload`` without advancing it.

        The session deploys lazily (as :meth:`run` does), submits the
        resolved trace and leaves the simulation at time 0.  Drive it with
        :meth:`run_until` — triggers are evaluated on the same
        :attr:`trigger_interval` grid regardless of how the run is chopped
        into ``run_until`` calls, so an incrementally driven run is
        bit-identical to a one-shot :meth:`run` — then close it with
        :meth:`finish` (drain) or :meth:`abort` (cancel).

        Raises:
            RuntimeError: when a run is already open on this session.
        """
        if self.running:
            raise RuntimeError("a run is already in progress on this session")
        trace, planning_pdf = resolve_workload(workload, seed)
        # The explicit PDF comes first, as in deploy().
        if self._explicit_pdf is not None:
            planning_pdf = self._explicit_pdf
        if self._deployment is None:
            self.deploy(batch_pdf=planning_pdf if planning_pdf is not None else trace.batch_pdf())
        deployment = self._deployment
        assert deployment is not None
        if self._planned_pdf is None and planning_pdf is not None:
            self._planned_pdf = dict(planning_pdf)
        if self._planned_pdf is None and len(trace) and (self.triggers or self._has_control):
            # No planning PDF is known (e.g. from_deployment + bare trace), yet
            # the run can re-plan by itself: fall back to the trace's own PDF.
            self._planned_pdf = trace.batch_pdf()

        replay = self._prepare_trace(trace)

        simulator = deployment.simulator(
            execution_noise_std=self._noise, seed=seed if seed is not None else 0
        )
        self._windowed = WindowedMetrics(self.window) if self.window else None
        if self._windowed is not None:
            simulator.add_observer(self._windowed)
        for observer in self._observers:
            simulator.add_observer(observer)
        self._sim = simulator
        self._firings = []
        self._last_reconfig_online = 0.0
        self._next_checkpoint = (
            self.trigger_interval
            if (self.triggers or self.autoscaler is not None)
            else None
        )
        self._offered_load = replay.arrival_rate()

        # The control timeline: one heap of (due, order, event) per source,
        # in firing order — faults, preemption notices, then the removals
        # the notices schedule.  Commissions wait in the autoscaler's queue.
        self._timeline = (
            [(e.time, i, e) for i, e in enumerate(getattr(self.faults, "events", ()))],
            [(e.time, i, e) for i, e in enumerate(getattr(self.preemptions, "events", ()))],
            [],
        )
        self._fleet_events = []
        self._fleet_log = []
        self._fault_records = []
        self._open_crashes = {}
        self._crash_intervals = []
        self._armed_reconfig_failures = []
        if self._has_faults:
            self._capacity_log = [
                (0.0, sum(i.gpcs for i in deployment.instances))
            ]
        else:
            self._capacity_log = []
        # The simulator's per-architecture latency oracles are fixed at
        # construction: only these architectures are servable mid-run.
        self._sim_archs = set(deployment.arch_profiles or (self.config.architecture.name,))
        if self._has_control:
            self._roster = FleetRoster(self.config.build_fleet().specs)
            self._fleet_log = [(0.0, self._roster.specs)]
            if self.autoscaler is not None:
                self.autoscaler.reset(self._roster)
                unit = self.autoscaler.scale_unit
                if unit.architecture.name not in self._sim_archs:
                    raise ValueError(
                        f"the autoscaler's scale unit {unit.describe()} uses "
                        f"architecture {unit.architecture.name}, which the "
                        "running simulator cannot execute; mid-run additions "
                        "are limited to architectures present in the fleet "
                        f"at begin() ({sorted(self._sim_archs)})"
                    )

        simulator.begin()
        simulator.submit_trace(replay)

    def submit(self, workload: Union[QueryTrace, Query]) -> None:
        """Inject extra work into the *open* run.

        Queries without an SLA target inherit their model's derived target,
        exactly as :meth:`begin` does for the initial trace.  The reported
        offered load of the final result is re-derived from every submitted
        arrival once extra work lands mid-run.

        Args:
            workload: a :class:`~repro.workload.trace.QueryTrace` or a single
                :class:`~repro.workload.query.Query`; arrivals must not lie
                in the simulation's past.

        Raises:
            RuntimeError: when no run is open — with a message that
                distinguishes "never began" from "already finished".
        """
        if not self.running:
            if self._last_result is not None:
                raise RuntimeError(
                    "this session's run is finished; begin() a new run "
                    "before submitting more work"
                )
            raise RuntimeError(
                "no run is open on this session; call begin() (or run()) first"
            )
        assert self._sim is not None
        if isinstance(workload, Query):
            workload = QueryTrace((workload,))
        replay = self._prepare_trace(workload)
        for query in replay:
            self._sim.submit(query)
        # mixed submissions: let the simulator derive the observed rate
        self._offered_load = None

    def run_until(self, time: Optional[float] = None) -> float:
        """Advance the open run up to simulation ``time`` (``None`` drains).

        Triggers are evaluated at every :attr:`trigger_interval` checkpoint
        crossed, never between checkpoints, so chopping a run into many
        ``run_until`` calls reproduces :meth:`run` exactly.

        Returns:
            The simulation time after processing.

        Raises:
            RuntimeError: when no run is open.
        """
        if not self.running:
            raise RuntimeError(
                "no run is open on this session; call begin() (or run()) first"
            )
        simulator = self._sim
        assert simulator is not None
        interval = self.trigger_interval
        # Interleave the trigger checkpoint grid with the control timeline's
        # due times (fault events, preemption notices, pending removals,
        # commission arrivals).  With neither, the loop advances straight to
        # ``time``.  Due items are deferred to the end of an in-flight
        # reconfiguration — the simulator supports one staged
        # reconfiguration at a time — by flooring them at its online time,
        # which guarantees forward progress.
        while simulator.pending_events:
            checkpoint = self._next_checkpoint
            due = self._next_control_due()
            if due is not None and simulator.reconfiguring:
                due = max(due, self._last_reconfig_online)
            candidates = [t for t in (checkpoint, due) if t is not None]
            if not candidates:
                simulator.run_until(time)
                break
            target = min(candidates)
            if time is not None and target > time:
                simulator.run_until(time)
                break
            simulator.run_until(target)
            if due is not None and target >= due:
                # A drained simulator never reaches a due time beyond its
                # last event — that control action is outside the horizon
                # and must not fire (an out-of-horizon preemption would
                # otherwise execute at the drain instant).
                if simulator.pending_events or simulator.now >= due:
                    self._apply_due_control(target)
            if checkpoint is not None and target >= checkpoint:
                if not simulator.reconfiguring:
                    self._evaluate_triggers(checkpoint)
                if self.autoscaler is not None and not simulator.reconfiguring:
                    self.autoscaler.evaluate(self, self._trigger_context(checkpoint))
                self._next_checkpoint = checkpoint + interval
        return simulator.now

    def finish(self) -> SessionResult:
        """Drain the open run and seal its :class:`SessionResult`.

        Idempotent: once a run has finished, every further ``finish()``
        returns the same result object (this is what lets a supervising
        daemon call ``finish()`` unconditionally in its cleanup path).

        Raises:
            RuntimeError: when the session never ran.
        """
        if not self.running:
            if self._last_result is not None:
                return self._last_result
            raise RuntimeError(
                "no run is open on this session and no finished result "
                "exists; call begin() (or run()) first"
            )
        simulator = self._sim
        assert simulator is not None
        self.run_until(None)
        simulation = simulator.finish(offered_load_qps=self._offered_load)
        return self._seal(simulation)

    def abort(self) -> SessionResult:
        """Close the open run *now*, without draining pending events.

        The partial result digests exactly what was simulated up to the
        current time — the cancellation surface for daemon jobs.  Like
        :meth:`finish`, aborting an already-closed session returns the last
        sealed result.

        Raises:
            RuntimeError: when the session never ran.
        """
        if not self.running:
            if self._last_result is not None:
                return self._last_result
            raise RuntimeError(
                "no run is open on this session and no finished result "
                "exists; call begin() (or run()) first"
            )
        simulator = self._sim
        assert simulator is not None
        simulation = simulator.abort(offered_load_qps=self._offered_load)
        return self._seal(simulation)

    def _seal(self, simulation: SimulationResult) -> SessionResult:
        final_deployment = self._deployment
        assert final_deployment is not None
        fleet_windows: Tuple[Any, ...] = ()
        fleet_cost = 0.0
        if (
            (self._has_control or self._fleet_events)
            and self._windowed is not None
            and self._fleet_log
        ):
            from repro.autoscale.timeline import (
                integrate_fleet_timeline,
                timeline_cost,
            )

            horizon = max(
                self._windowed.horizon(), self._fleet_log[-1][0]
            )
            fleet_windows = tuple(
                integrate_fleet_timeline(
                    self._fleet_log,
                    self._windowed.downtime_intervals,
                    self._windowed.window,
                    horizon,
                )
            )
            fleet_cost = timeline_cost(fleet_windows)
        fault_windows: Tuple[Any, ...] = ()
        fault_mttr = 0.0
        if self._has_faults and self._windowed is not None and self._capacity_log:
            from repro.faults.metrics import (
                integrate_fault_timeline,
                mean_time_to_repair,
            )

            horizon = max(self._windowed.horizon(), self._capacity_log[-1][0])
            self._close_open_crashes(horizon)
            fault_windows = tuple(
                integrate_fault_timeline(
                    self._capacity_log,
                    self._crash_intervals,
                    self._windowed.downtime_intervals,
                    self._windowed.window,
                    horizon,
                    records=self._fault_records,
                )
            )
            fault_mttr = mean_time_to_repair(self._crash_intervals)
        result = SessionResult(
            deployment=final_deployment,
            simulation=simulation,
            sla_target=final_deployment.sla_target,
            windows=tuple(self._windowed.series()) if self._windowed else (),
            trigger_firings=tuple(self._firings),
            fleet_events=tuple(self._fleet_events),
            fleet_windows=fleet_windows,
            fleet_cost=fleet_cost,
            fault_events=tuple(self._fault_records),
            fault_windows=fault_windows,
            fault_mttr=fault_mttr,
        )
        self._last_result = result
        return result

    def _prepare_trace(self, trace: QueryTrace) -> QueryTrace:
        """Validate served models, then stamp each query without an SLA
        target with its model's derived target.

        Only those queries are rebuilt; a trace whose queries all carry a
        target passes through unchanged.  The stamp belongs on the request,
        because ELSA reads ``query.sla_target``.
        """
        deployment = self._deployment
        assert deployment is not None
        unknown = sorted({q.model for q in trace} - set(deployment.profiles))
        if unknown:
            raise ValueError(
                f"trace contains models {unknown} not served by this "
                f"deployment; served models: {sorted(deployment.profiles)}"
            )
        unset = sorted({q.model for q in trace if q.sla_target is None})
        if not unset:
            return trace
        targets = {model: deployment.sla_target_for(model) for model in unset}
        return QueryTrace(
            tuple(
                q
                if q.sla_target is not None
                else Query(q.query_id, q.model, q.batch, q.arrival_time, targets[q.model])
                for q in trace
            )
        )

    def _trigger_context(self, now: float) -> TriggerContext:
        """What the triggers and the autoscaler observe at checkpoint ``now``."""
        assert self._windowed is not None
        return TriggerContext(
            now=now,
            planned_pdf=self._planned_pdf or {},
            metrics=self._windowed,
            time_since_reconfig=now - self._last_reconfig_online,
            deployment=self._deployment,
        )

    def _evaluate_triggers(self, now: float) -> None:
        context = self._trigger_context(now)
        for trigger in self.triggers:
            decision = trigger.evaluate(context)
            # scale-out/in decisions belong to an autoscaler, not this loop
            # (custom triggers may fire them without declaring an action)
            if not decision.fire or decision.action != "repartition":
                continue
            if decision.new_pdf:
                new_pdf = dict(decision.new_pdf)
            else:
                # fall back to the observation the trigger itself judged
                lookback = getattr(trigger, "lookback_windows", 5)
                new_pdf = context.metrics.observed_batch_pdf(
                    now, lookback_windows=lookback
                )
            if not new_pdf:
                continue
            name = getattr(trigger, "name", type(trigger).__name__)
            self._firings.append(TriggerFiring(now, name, decision.reason))
            self.repartition(new_pdf)
            return

    # ------------------------------------------------------------------ #
    # fleet control plane (autoscaler, preemptions, manual elasticity)
    # ------------------------------------------------------------------ #
    @property
    def _has_control(self) -> bool:
        """True when an autoscaler or a preemption schedule is configured."""
        return self.autoscaler is not None or bool(self.preemptions)

    @property
    def roster(self) -> FleetRoster:
        """The fleet membership ledger (stable server ids).

        Created at :meth:`begin` when the control plane is active, or
        lazily from the configured fleet for manual between-run mutations;
        a flat design is a roster of one server.
        """
        if self._roster is None:
            self._roster = FleetRoster(self.config.build_fleet().specs)
        return self._roster

    def fleet_events(self) -> Tuple[Any, ...]:
        """Fleet-control-plane events recorded so far this run, in order."""
        return tuple(self._fleet_events)

    def scale_out(self, server: Any, reason: str = "manual") -> int:
        """Add a whole server to the fleet and re-plan onto the new pool.

        Mid-run this is a live repartition (the simulator drains, pays
        :attr:`reconfig_cost`, comes back online on the bigger pool);
        between runs it only rewrites the config/deployment.  Mid-run
        additions must use an architecture the simulator could already
        execute at :meth:`begin`.

        Returns:
            The new server's stable roster id.

        Raises:
            RuntimeError: while a live reconfiguration is in flight.
            ValueError: when no planning PDF is known to re-plan against.
        """
        spec = FleetServerSpec.coerce(server)
        self._check_replannable("scale out")
        if self.running and spec.architecture.name not in self._sim_archs:
            raise ValueError(
                f"cannot scale out {spec.describe()} mid-run: architecture "
                f"{spec.architecture.name} was not in the fleet at begin() "
                f"(servable: {sorted(self._sim_archs)}); start the run with "
                "at least one server of each architecture you may add"
            )
        self._ensure_fleet_tracking()
        server_id = self.roster.add(spec)
        self._publish(
            "scale-out", ServerScaledOut(self.now, server_id, spec.describe(), reason), reason
        )
        self._refleet()
        return server_id

    def scale_in(self, server_id: Optional[int] = None, reason: str = "manual"):
        """Drain a whole server out of the fleet and re-plan onto the rest.

        Args:
            server_id: the roster id to remove; default is the newest
                member (LIFO).
            reason: recorded on the fleet event.

        Returns:
            The removed server's :class:`~repro.gpu.fleet.FleetServerSpec`.

        Raises:
            KeyError: for an unknown/already-removed id.
            ValueError: when removal would empty the fleet, or when no
                planning PDF is known to re-plan against.
            RuntimeError: while a live reconfiguration is in flight.
        """
        self._check_replannable("scale in")
        self._ensure_fleet_tracking()
        roster = self.roster
        if server_id is None:
            server_id = roster.newest_id()
        spec = roster.remove(server_id)
        self._publish(
            "scale-in", ServerScaledIn(self.now, server_id, spec.describe(), reason), reason
        )
        self._refleet()
        return spec

    def preempt(self, server_id: int, notice: float = 0.0, reason: str = "spot reclaim"):
        """Forcibly remove a server *now* (the spot-reclaim primitive).

        Scheduled preemptions normally come from a
        :class:`~repro.autoscale.preemption.PreemptionSchedule`; this is the
        direct surface for tests and manual fault injection.

        Returns:
            The removed server's spec.

        Raises:
            RuntimeError: while a live reconfiguration is in flight.
            ValueError: when no planning PDF is known to re-plan against.
        """
        self._check_replannable("preempt")
        self._ensure_fleet_tracking()
        spec = self.roster.remove(server_id)
        self._publish(
            "preempted", ServerPreempted(self.now, server_id, spec.describe(), notice), reason
        )
        self._refleet()
        return spec

    def note_scale_request(self, now: float, spec: FleetServerSpec, reason: str) -> None:
        """Record an autoscaler scale-out *request* (arrival still pending)."""
        self._record_fleet_event(
            "scale-out-requested", now, spec=spec.describe(), reason=reason
        )

    def _check_replannable(self, action: str, fleet: bool = True) -> None:
        """Refuse a re-plan the session could not complete, before any
        state changes: none while a live reconfiguration is in flight (the
        simulator stages one at a time), and no fleet mutation of a deployed
        session without a planning PDF to re-plan against."""
        if self.running and self._sim.reconfiguring:
            raise RuntimeError(
                f"cannot {action} while a live reconfiguration is in flight; "
                "advance the run past its online instant first"
            )
        if fleet and self._deployment is not None and self._planned_pdf is None:
            raise ValueError(
                f"cannot {action}: no planning batch PDF is known to re-plan "
                "the fleet against; repartition() with one first"
            )

    def _ensure_fleet_tracking(self) -> None:
        """Make manual mid-run mutations billable even without a control plane."""
        roster = self.roster  # materialises from the config on first use
        if self.running and not self._fleet_log:
            self._fleet_log = [(0.0, roster.specs)]

    def _next_control_due(self) -> Optional[float]:
        """Earliest due time on the control timeline (``None`` when empty)."""
        dues = [queue[0][0] for queue in self._timeline if queue]
        if self.autoscaler is not None and (landing := self.autoscaler.next_due()) is not None:
            dues.append(landing)
        return min(dues, default=None)

    def _apply_due_control(self, now: float) -> None:
        """Fire every control-timeline item due by ``now``, source by source.

        Fault-schedule events fire first, then preemption notices
        (bookkeeping only), then due removals, then due commissions; all
        roster mutations land as **one** live repartition, so a
        simultaneous loss and arrival pays one downtime.  Nothing fires
        while a reconfiguration is in flight (the simulator's worker set is
        in flux): the item waits, and ``run_until`` floors the next due time
        at the swap's online instant, so it fires right after the swap lands.
        """
        sim = self._sim
        assert sim is not None
        faults, notices, removals = self._timeline
        while faults and faults[0][0] <= now and not sim.reconfiguring:
            self._apply_fault(heappop(faults)[-1], now)
        if sim.reconfiguring:
            return
        while notices and notices[0][0] <= now:
            _, order, event = heappop(notices)
            roster = self.roster
            spec = (
                roster.spec_of(event.server_index).describe()
                if event.server_index in roster
                else ""
            )
            self._record_fleet_event(
                "preempt-notice",
                event.time,
                server_index=event.server_index,
                spec=spec,
                reason=f"{event.notice:g}s notice",
            )
            heappush(removals, (event.removal_time, event.server_index, order, event))
        mutated = False
        while removals and removals[0][0] <= now:
            event = heappop(removals)[-1]
            roster = self.roster
            if event.server_index not in roster:
                self._record_fleet_event(
                    "preempt-skipped", now, server_index=event.server_index,
                    reason="server already removed",
                )
                continue
            if len(roster) == 1:
                self._record_fleet_event(
                    "preempt-skipped", now, server_index=event.server_index,
                    reason="would empty the fleet",
                )
                continue
            spec = roster.remove(event.server_index)
            self._publish(
                "preempted",
                ServerPreempted(now, event.server_index, spec.describe(), event.notice),
                f"spot reclaim ({event.notice:g}s notice)",
            )
            mutated = True
        if self.autoscaler is not None:
            for spec, reason in self.autoscaler.take_due(now):
                server_id = self.roster.add(spec)
                decisions = self.autoscaler.decisions
                for i, decision in enumerate(decisions):
                    if decision.action == "scale-out" and decision.server_index is None:
                        # backfill the landed commission's roster id (commissions
                        # land in decision order, so the first unfilled is ours)
                        decisions[i] = dataclasses.replace(
                            decision, server_index=server_id
                        )
                        break
                self._publish(
                    "scale-out", ServerScaledOut(now, server_id, spec.describe(), reason), reason
                )
                mutated = True
        if mutated:
            self._refleet()

    def _swap(self, deployment: Deployment, downtime: float) -> Deployment:
        """Live-swap the open run onto ``deployment``'s partition instances.

        The one path every live reconfiguration takes (repartition, fleet
        mutation, failed reconfiguration): open crash outages close, since
        the swap heals them; the simulator drains and pays ``downtime``;
        and the returned deployment adopts the simulator's renumbered
        generation, so its instance ids line up with completion events and
        per-instance statistics.
        """
        sim = self._sim
        assert sim is not None
        self._close_open_crashes(sim.now)
        self._last_reconfig_online = sim.reconfigure(deployment.instances, downtime)
        swapped = dataclasses.replace(deployment, instances=sim.pending_instances)
        if self._has_faults:
            self._capacity_log.append(
                (self._last_reconfig_online, sum(i.gpcs for i in swapped.instances))
            )
        return swapped

    def _refleet(self) -> None:
        """Re-plan the deployment onto the roster's current composition."""
        roster = self.roster
        new_config = config_with_fleet(self.config, roster.specs)
        # with nothing deployed yet, the next deploy() picks the new fleet up
        if self._deployment is not None:
            assert self._planned_pdf is not None
            replanned = replan_deployment(
                self._deployment, self._planned_pdf, config=new_config
            )
            if self.running:
                replanned = self._swap(replanned, self.reconfig_cost)
                # Billing follows the *serving* composition: the mutation's
                # downtime bills at the old composition (you pay for the pool
                # while it drains), and the new pool starts billing when it
                # comes online.
                self._fleet_log.append((self._last_reconfig_online, roster.specs))
            self._deployment = replanned
        self.config = new_config

    def _publish(self, kind: str, hook: SimEvent, reason: str) -> None:
        """Publish one roster mutation: its hook goes to the observers
        through the simulator's dispatch table (only while a run is open),
        and its :class:`~repro.autoscale.timeline.FleetEvent` is written."""
        if self.running:
            self._sim.emit_event(hook)
        self._record_fleet_event(
            kind, hook.time, server_index=hook.server_index, spec=hook.spec, reason=reason
        )

    def _record_fleet_event(
        self,
        kind: str,
        time: float,
        *,
        server_index: Optional[int] = None,
        spec: str = "",
        reason: str = "",
    ) -> None:
        from repro.autoscale.timeline import FleetEvent

        roster = self.roster
        self._fleet_events.append(
            FleetEvent(
                time=time,
                kind=kind,
                server_index=server_index,
                spec=spec,
                reason=reason,
                fleet=roster.describe(),
                total_gpcs=sum(s.effective_gpc_budget for s in roster.specs),
            )
        )

    # ------------------------------------------------------------------ #
    # fault injection (crashes, stragglers, failed reconfigurations)
    # ------------------------------------------------------------------ #
    @property
    def _has_faults(self) -> bool:
        """True when a non-empty fault schedule is configured.

        An *empty* schedule is deliberately falsy: the session then takes
        exactly the same code paths as one constructed without ``faults=``,
        which is what pins ``faults=FaultSchedule([])`` bit-identical to the
        plain session.
        """
        return self.faults is not None and bool(self.faults)

    def fault_events(self) -> Tuple[FaultRecord, ...]:
        """Fault-injection records of the open run so far, in order."""
        return tuple(self._fault_records)

    def _apply_fault(self, event: FaultEvent, now: float) -> None:
        sim = self._sim
        assert sim is not None
        if isinstance(event, WorkerCrash):
            workers = sim.workers
            if len(workers) <= 1:
                self._record_fault(
                    "crash-skipped", now, reason="would idle the whole server"
                )
                return
            victim = workers[event.worker % len(workers)]
            requeued, failed = sim.crash_worker(
                victim.instance_id, self.retry_policy
            )
            self._open_crashes[victim.instance_id] = (now, victim.gpcs)
            self._record_fault(
                "crash",
                now,
                instance_id=victim.instance_id,
                gpcs=victim.gpcs,
                requeued=requeued,
                failed=failed,
            )
        elif isinstance(event, WorkerRestart):
            crashed = sim.crashed_workers
            if not crashed:
                self._record_fault(
                    "restart-skipped", now, reason="no crashed worker"
                )
                return
            victim_id = crashed[event.worker % len(crashed)]
            sim.restore_worker(victim_id)
            start, gpcs = self._open_crashes.pop(victim_id)
            self._crash_intervals.append((start, now, gpcs))
            self._record_fault(
                "restart", now, instance_id=victim_id, gpcs=gpcs
            )
        elif isinstance(event, StragglerStart):
            workers = sim.workers
            if not workers:
                self._record_fault(
                    "straggle-skipped", now, reason="no live worker"
                )
                return
            victim = workers[event.worker % len(workers)]
            sim.set_worker_slowdown(victim.instance_id, event.multiplier)
            self._record_fault(
                "straggle-start",
                now,
                instance_id=victim.instance_id,
                gpcs=victim.gpcs,
                multiplier=event.multiplier,
            )
        elif isinstance(event, StragglerEnd):
            slowed = [w for w in sim.workers if w.slow_factor != 1.0]
            if not slowed:
                self._record_fault(
                    "straggle-skipped", now, reason="no straggling worker"
                )
                return
            victim = slowed[event.worker % len(slowed)]
            sim.set_worker_slowdown(victim.instance_id, 1.0)
            self._record_fault(
                "straggle-end",
                now,
                instance_id=victim.instance_id,
                gpcs=victim.gpcs,
            )
        elif isinstance(event, FailedReconfigure):
            self._armed_reconfig_failures.append(event)
            self._record_fault(
                "reconfig-fail-armed",
                now,
                reason=f"next repartition fails (+{event.downtime:g}s downtime)",
            )
        else:  # pragma: no cover - FaultSchedule rejects unknown events
            raise TypeError(f"unknown fault event {type(event).__name__}")

    def _fail_reconfigure(self, fail: FailedReconfigure) -> Deployment:
        """Model a repartition attempt that fails: pay downtime, roll back.

        The server still drains and pays ``reconfig_cost`` plus the fault's
        extra downtime, but comes back online on the **old** partition
        shapes; the planning PDF is left untouched, so drift triggers keep
        judging (and may retry) against the plan that actually failed.
        """
        sim = self._sim
        assert sim is not None
        deployment = self._deployment
        assert deployment is not None
        now = sim.now
        old_ids = tuple(i.instance_id for i in deployment.instances)
        downtime = self.reconfig_cost + fail.downtime
        sim.emit_event(
            ReconfigFailed(time=now, instance_ids=old_ids, downtime=downtime)
        )
        self._record_fault(
            "reconfig-failed",
            now,
            reason=f"rolled back to old plan after {downtime:g}s",
        )
        # the swap back onto the *old* shapes (a renumbered generation)
        self._deployment = self._swap(deployment, downtime)
        return self._deployment

    def _close_open_crashes(self, at: float) -> None:
        """Close every open crash outage at time ``at``.

        Called when a reconfiguration replaces the whole partition set
        (which heals crashed workers at the simulator level) and when the
        run seals — an outage never extends past either boundary.
        """
        if not self._open_crashes:
            return
        for _, (start, gpcs) in self._open_crashes.items():
            self._crash_intervals.append((start, at, gpcs))
        self._open_crashes = {}

    def _record_fault(self, kind: str, time: float, **fields: Any) -> None:
        self._fault_records.append(FaultRecord(time=time, kind=kind, **fields))

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def last_result(self) -> Optional[SessionResult]:
        """The most recent completed run's result."""
        return self._last_result

    @property
    def now(self) -> float:
        """Current simulation time (0 outside a run)."""
        return self._sim.now if self._sim is not None else 0.0

    @property
    def pending_events(self) -> int:
        """Unprocessed simulation events of the open run (0 when closed).

        ``running and not pending_events`` means the run has naturally
        drained and only :meth:`finish` remains — the condition a streaming
        driver (e.g. a daemon job loop) polls between ``run_until`` steps.
        """
        if self._sim is not None and self._sim.active:
            return self._sim.pending_events
        return 0

    def metrics(self) -> ServerStatistics:
        """Aggregate statistics snapshot at the current simulation time.

        Mid-run (e.g. from a trigger or observer callback) this digests the
        run so far; after a run it returns the final statistics.

        Raises:
            RuntimeError: when the session never ran.
        """
        if self._sim is not None and self._sim.active:
            return self._sim.snapshot_statistics()
        if self._last_result is not None:
            return self._last_result.simulation.statistics
        raise RuntimeError("no run in progress and no completed run to report")

    def windows(self) -> Tuple[WindowStats, ...]:
        """The windowed metric series observed so far (empty when disabled)."""
        if self._windowed is None:
            return ()
        return tuple(self._windowed.series())


def resolve_workload(
    workload: SessionWorkload, seed: Optional[int] = None
) -> Tuple[QueryTrace, Optional[Dict[int, float]]]:
    """The trace :meth:`ServingSession.run` replays for ``workload``, and
    the workload's planning PDF (``None`` for a bare trace).

    A scenario or workload config is generated here (``seed`` overrides its
    own seed); a trace passes through.  Callers that replay one workload on
    several sessions resolve it once and hand each session the trace.
    """
    if isinstance(workload, Scenario):
        # seed=None lets Scenario.generate fall back to Scenario.seed
        return workload.generate(seed=seed), workload.initial_pdf()
    if isinstance(workload, QueryTrace):
        return workload, None
    if isinstance(workload, WorkloadConfig):
        if seed is not None and seed != workload.seed:
            workload = dataclasses.replace(workload, seed=seed)
        generator = QueryGenerator(workload)
        return generator.generate(), generator.batch_pdf()
    raise TypeError(
        "run() accepts a Scenario, QueryTrace or WorkloadConfig; got "
        f"{type(workload).__name__}"
    )


__all__ = [
    "DEFAULT_RECONFIG_COST",
    "ServingSession",
    "SessionResult",
    "SessionWorkload",
    "TriggerFiring",
    "resolve_workload",
]
