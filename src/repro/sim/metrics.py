"""Latency / throughput / utilization statistics.

The paper's evaluation reports three headline metrics:

* **p95 tail latency** (Figure 11, y-axis),
* **latency-bounded throughput** — queries/second completed while the p95
  tail latency stays under a target (Figures 11 vertical lines, 12, 13),
* **GPU utilization** and **SLA violation rate** (discussed throughout).

:func:`compute_statistics` digests a finished simulation into these numbers.
The latency-bounded-throughput *search* (sweeping arrival rates) lives in
:mod:`repro.analysis.sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.sim.worker import PartitionWorker
from repro.sim.columnar import QueryRecord


@dataclass(frozen=True)
class LatencyStatistics:
    """Latency distribution summary of completed queries (seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    maximum: float
    mean_queueing_delay: float
    sla_violation_rate: float

    @classmethod
    def empty(cls) -> "LatencyStatistics":
        """Statistics object for a run that completed no queries."""
        return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class UtilizationStatistics:
    """Server utilization summary."""

    per_instance: Dict[int, float]
    mean: float
    gpc_weighted_mean: float


@dataclass(frozen=True)
class ServerStatistics:
    """Combined result statistics of one simulation run.

    ``failed_queries`` counts queries that exhausted their crash-retry
    budget under fault injection (0 for fault-free runs); latency and
    throughput digest completed queries only.
    """

    latency: LatencyStatistics
    utilization: UtilizationStatistics
    throughput_qps: float
    offered_load_qps: float
    makespan: float
    completed_queries: int
    total_queries: int
    failed_queries: int = 0


@dataclass(frozen=True)
class CompletedArrays:
    """Flat digestion columns of the completed queries of one snapshot.

    Built in one pass over a run's columns (or over query records), then
    digested entirely with vectorised numpy operations — no per-statistic
    Python re-scan.
    """

    latencies: np.ndarray
    delays: np.ndarray
    has_sla: np.ndarray
    violated: np.ndarray

    @property
    def count(self) -> int:
        """Number of completed queries in the snapshot."""
        return int(self.latencies.size)


def completed_arrays_from_columns(columns: Any) -> CompletedArrays:
    """Digest a simulator's columnar store into :class:`CompletedArrays`.

    ``columns`` is a :class:`repro.sim.columnar.QueryColumns` (duck-typed to
    avoid an import cycle).  The ``array('d')`` columns are wrapped in numpy
    views through the buffer protocol — zero copies, no per-query Python
    loop — and the derived values are bit-identical to
    :func:`completed_arrays` over the run's query records: the same float64
    subtractions over the same values in the same (submission) order, with
    NaN marking "not set" exactly where a record holds ``None``.
    """
    finish = np.frombuffer(columns.finish, dtype=np.float64)
    if finish.size == 0:
        empty = np.empty(0, dtype=float)
        return CompletedArrays(
            latencies=empty,
            delays=empty,
            has_sla=np.empty(0, dtype=bool),
            violated=np.empty(0, dtype=bool),
        )
    arrival = np.frombuffer(columns.arrival, dtype=np.float64)
    start = np.frombuffer(columns.start, dtype=np.float64)
    deadline = np.frombuffer(columns.deadline, dtype=np.float64)
    mask = ~np.isnan(finish)
    if not mask.all():
        finish = finish[mask]
        arrival = arrival[mask]
        start = start[mask]
        deadline = deadline[mask]
    latencies = finish - arrival
    delays = np.where(np.isnan(start), finish, start) - arrival
    has_sla = ~np.isnan(deadline)
    # NaN compares False, so queries without a deadline never count as
    # violated — the same truth table as the record scan's
    # ``sla is not None and latency > sla``.
    violated = latencies > deadline
    return CompletedArrays(
        latencies=latencies, delays=delays, has_sla=has_sla, violated=violated
    )


def completed_arrays(queries: Sequence[QueryRecord]) -> CompletedArrays:
    """Build the digestion columns in one pass over ``queries``.

    Queries that never completed are skipped; the arrays hold, per completed
    query: end-to-end latency, queueing delay, whether an SLA target was set
    and whether it was violated.
    """
    latencies: list = []
    delays: list = []
    has_sla: list = []
    violated: list = []
    for query in queries:
        finish = query.finish_time
        if finish is None:
            continue
        arrival = query.arrival_time
        latency = finish - arrival
        start = query.start_time
        sla = query.sla_target
        latencies.append(latency)
        delays.append((start if start is not None else finish) - arrival)
        has_sla.append(sla is not None)
        violated.append(sla is not None and latency > sla)
    return CompletedArrays(
        latencies=np.asarray(latencies, dtype=float),
        delays=np.asarray(delays, dtype=float),
        has_sla=np.asarray(has_sla, dtype=bool),
        violated=np.asarray(violated, dtype=bool),
    )


def latency_statistics_from_arrays(
    arrays: CompletedArrays, percentile_method: str = "linear"
) -> LatencyStatistics:
    """Digest pre-built :class:`CompletedArrays` into latency statistics."""
    if arrays.count == 0:
        return LatencyStatistics.empty()
    latencies = arrays.latencies
    sla_count = int(arrays.has_sla.sum())
    violations = int(arrays.violated.sum())
    violation_rate = violations / sla_count if sla_count else 0.0
    return LatencyStatistics(
        count=arrays.count,
        mean=float(latencies.mean()),
        p50=float(np.percentile(latencies, 50, method=percentile_method)),
        p95=float(np.percentile(latencies, 95, method=percentile_method)),
        p99=float(np.percentile(latencies, 99, method=percentile_method)),
        maximum=float(latencies.max()),
        mean_queueing_delay=float(arrays.delays.mean()),
        sla_violation_rate=violation_rate,
    )


def latency_statistics(
    queries: Sequence[QueryRecord], percentile_method: str = "linear"
) -> LatencyStatistics:
    """Summarise the latency distribution of completed queries.

    Args:
        queries: completed queries (entries that never completed are ignored).
        percentile_method: numpy percentile interpolation method.
    """
    return latency_statistics_from_arrays(
        completed_arrays(queries), percentile_method=percentile_method
    )


def utilization_statistics(
    workers: Sequence[PartitionWorker], makespan: float
) -> UtilizationStatistics:
    """Per-partition and aggregate utilization.

    Each worker's busy time is normalised by its *own* active span
    (:meth:`~repro.sim.worker.PartitionWorker.active_span`), not the full
    run makespan: after a live repartition, retired workers only existed for
    a prefix of the run and new-generation workers only for a suffix, and
    dividing either's busy time by the whole makespan would systematically
    understate utilization.  For runs without a reconfiguration every span
    equals the makespan and the statistics are unchanged.
    """
    per_instance = {
        w.instance_id: w.utilization(w.active_span(makespan)) for w in workers
    }
    if not per_instance:
        return UtilizationStatistics({}, 0.0, 0.0)
    values = np.array(list(per_instance.values()))
    gpcs = np.array([w.gpcs for w in workers], dtype=float)
    weighted = float(np.average(values, weights=gpcs)) if gpcs.sum() > 0 else 0.0
    return UtilizationStatistics(
        per_instance=per_instance,
        mean=float(values.mean()),
        gpc_weighted_mean=weighted,
    )


def compute_statistics(
    queries: Sequence[QueryRecord],
    workers: Sequence[PartitionWorker],
    makespan: float,
    offered_load_qps: Optional[float] = None,
    failed: int = 0,
) -> ServerStatistics:
    """Digest one simulation run into a :class:`ServerStatistics` record.

    Args:
        queries: the record of every query of the run.
        workers: the partition workers after the run.
        makespan: simulation end time (seconds).
        offered_load_qps: the offered arrival rate, when known (reported
            alongside the achieved throughput).
        failed: queries that exhausted their crash-retry budget.
    """
    return compute_statistics_from_arrays(
        completed_arrays(queries),
        workers,
        makespan,
        total_queries=len(queries),
        offered_load_qps=offered_load_qps,
        failed=failed,
    )


def compute_statistics_from_arrays(
    arrays: CompletedArrays,
    workers: Sequence[PartitionWorker],
    makespan: float,
    total_queries: int,
    offered_load_qps: Optional[float] = None,
    failed: int = 0,
) -> ServerStatistics:
    """:func:`compute_statistics` over pre-built digestion columns.

    The simulator hands its columnar store straight here (via
    :func:`completed_arrays_from_columns`) so digestion never re-scans the
    query objects.
    """
    throughput = arrays.count / makespan if makespan > 0 else 0.0
    return ServerStatistics(
        latency=latency_statistics_from_arrays(arrays),
        utilization=utilization_statistics(workers, makespan),
        throughput_qps=throughput,
        offered_load_qps=offered_load_qps if offered_load_qps is not None else 0.0,
        makespan=makespan,
        completed_queries=arrays.count,
        total_queries=total_queries,
        failed_queries=failed,
    )
