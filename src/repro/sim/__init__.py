"""Discrete-event simulation of the multi-GPU inference server.

This package is the reproduction's stand-in for the paper's at-scale serving
runtime (a heavily modified DeepRecInfra on real A100s):

* :mod:`repro.sim.events` / :mod:`repro.sim.engine` — a minimal, deterministic
  discrete-event engine (tuple-keyed priority queue over timestamped events).
* :mod:`repro.sim.columnar` — a run's per-query state, one row per
  submitted query, and the :class:`~repro.sim.columnar.QueryRecord` rows a
  finished run hands out.
* :mod:`repro.sim.worker` — a GPU partition worker: local FIFO scheduling
  queue, the currently executing query and the profiled execution model.
* :mod:`repro.sim.scheduler_api` — the scheduler interface the simulator
  drives; concrete policies (FIFS, ELSA, ...) live in :mod:`repro.core`.
* :mod:`repro.sim.cluster` — the inference-server simulator that wires the
  frontend, scheduler and workers together; offers both a one-shot trace
  replay and a streaming run surface with live mid-run reconfiguration.
* :mod:`repro.sim.hooks` — typed lifecycle events, the observer interface
  and the :class:`~repro.sim.hooks.WindowedMetrics` series, read from the
  run's columns.
* :mod:`repro.sim.metrics` — latency/throughput/utilization statistics
  (p95 tail latency, SLA violation rate, latency-bounded throughput inputs).
"""

from repro.sim.events import EventKind
from repro.sim.engine import SimulationClock, TupleEventQueue
from repro.sim.columnar import QueryColumns, QueryRecord, QueryRecords
from repro.sim.worker import PartitionWorker
from repro.sim.scheduler_api import Scheduler, SchedulingContext
from repro.sim.cluster import (
    InferenceServerSimulator,
    ReconfigurationRecord,
    SimulationResult,
)
from repro.sim.hooks import (
    EventLog,
    QueryArrived,
    QueryCompleted,
    QueryDispatched,
    QueryRequeued,
    ReconfigFinished,
    ReconfigStarted,
    SimEvent,
    SimulationObserver,
    SlaViolated,
    WindowedMetrics,
    WindowStats,
    WorkerIdle,
)
from repro.sim.metrics import (
    CompletedArrays,
    LatencyStatistics,
    UtilizationStatistics,
    completed_arrays,
    compute_statistics,
    latency_statistics_from_arrays,
)

__all__ = [
    "CompletedArrays",
    "EventKind",
    "EventLog",
    "InferenceServerSimulator",
    "LatencyStatistics",
    "PartitionWorker",
    "QueryArrived",
    "QueryColumns",
    "QueryCompleted",
    "QueryDispatched",
    "QueryRecord",
    "QueryRecords",
    "QueryRequeued",
    "ReconfigFinished",
    "ReconfigStarted",
    "ReconfigurationRecord",
    "Scheduler",
    "SchedulingContext",
    "SimEvent",
    "SimulationClock",
    "SimulationObserver",
    "SimulationResult",
    "SlaViolated",
    "TupleEventQueue",
    "UtilizationStatistics",
    "WindowStats",
    "WindowedMetrics",
    "WorkerIdle",
    "completed_arrays",
    "compute_statistics",
    "latency_statistics_from_arrays",
]
