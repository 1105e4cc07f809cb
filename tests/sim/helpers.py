"""Shared helpers for simulator tests.

Builds tiny synthetic servers with hand-written profile tables so the tests
can reason about exact service times (e.g. "a query takes 1 second on the
large partition and 3 seconds on the small one").
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.gpu.partition import GPUPartition, PartitionInstance
from repro.perf.lookup import ProfileEntry, ProfileTable
from repro.sim.columnar import QueryColumns
from repro.sim.hooks import WindowedMetrics
from repro.workload.query import Query
from repro.workload.trace import QueryTrace

MODEL = "toy"


def constant_profile(
    latencies: Dict[int, float], batches: Sequence[int] = (1, 2, 4, 8, 16, 32)
) -> ProfileTable:
    """A profile whose latency depends only on the partition size.

    Args:
        latencies: mapping partition size (GPCs) -> constant query latency (s).
        batches: batch sizes to register in the table.
    """
    entries = []
    for gpcs, latency in latencies.items():
        for batch in batches:
            entries.append(
                ProfileEntry(
                    gpcs=gpcs,
                    batch=batch,
                    latency_s=latency,
                    utilization=0.9,
                    throughput_qps=1.0 / latency,
                )
            )
    return ProfileTable(MODEL, entries)


def linear_profile(
    per_batch_latency: Dict[int, float], batches: Sequence[int] = (1, 2, 4, 8, 16, 32)
) -> ProfileTable:
    """A profile whose latency grows linearly with the batch size.

    Args:
        per_batch_latency: mapping partition size -> latency per batched sample.
        batches: batch sizes to register.
    """
    entries = []
    for gpcs, slope in per_batch_latency.items():
        for batch in batches:
            latency = slope * batch
            entries.append(
                ProfileEntry(
                    gpcs=gpcs,
                    batch=batch,
                    latency_s=latency,
                    utilization=min(1.0, 0.1 * batch),
                    throughput_qps=1.0 / latency,
                )
            )
    return ProfileTable(MODEL, entries)


def make_instances(sizes: Sequence[int]) -> list:
    """Partition instances of the given sizes (ids follow list order)."""
    return [
        PartitionInstance(instance_id=idx, partition=GPUPartition(size), physical_gpu=0)
        for idx, size in enumerate(sorted(sizes))
    ]


def make_trace(specs, sla=None) -> QueryTrace:
    """Build a trace from (arrival_time, batch) tuples."""
    queries = tuple(
        Query(
            query_id=idx,
            model=MODEL,
            batch=batch,
            arrival_time=arrival,
            sla_target=sla,
        )
        for idx, (arrival, batch) in enumerate(specs)
    )
    return QueryTrace(queries)


def enqueue(worker, query: Query, now: float) -> int:
    """Register ``query`` as the next row of ``worker``'s store and dispatch
    that row to ``worker`` at ``now``; returns the row."""
    columns = worker._columns
    columns.extend((query,))
    row = len(columns) - 1
    worker.enqueue(row, now)
    return row


def bound_metrics(
    window: float,
    arrived: Sequence[Query],
    finish: Optional[Mapping[int, float]] = None,
) -> WindowedMetrics:
    """A :class:`WindowedMetrics` bound to a store holding ``arrived`` as its
    rows, each arrival fired, as a replay leaves them; ``finish`` maps a row
    to its completion time."""
    columns = QueryColumns()
    columns.extend(arrived)
    for row in range(len(columns)):
        columns.announced[row] = 1
    for row, time in (finish or {}).items():
        columns.finish[row] = time
    metrics = WindowedMetrics(window)
    metrics.attach_columns(columns)
    return metrics
