"""Tests for simulation metrics."""

import pytest

from repro.gpu.partition import GPUPartition, PartitionInstance
from repro.sim.metrics import (
    LatencyStatistics,
    compute_statistics,
    latency_statistics,
    utilization_statistics,
)
from repro.sim.columnar import QueryColumns, QueryRecord
from repro.sim.worker import PartitionWorker


def completed_query(qid, latency, sla=None, arrival=0.0):
    return QueryRecord(
        qid, "toy", 1, arrival, sla, start_time=arrival, finish_time=arrival + latency
    )


class TestLatencyStatistics:
    def test_empty(self):
        stats = latency_statistics([])
        assert stats == LatencyStatistics.empty()
        assert stats.count == 0

    def test_percentiles_and_mean(self):
        queries = [completed_query(i, latency=float(i + 1)) for i in range(100)]
        stats = latency_statistics(queries)
        assert stats.count == 100
        assert stats.mean == pytest.approx(50.5)
        assert stats.p50 == pytest.approx(50.5, rel=0.02)
        assert stats.p95 == pytest.approx(95.05, rel=0.02)
        assert stats.maximum == pytest.approx(100.0)

    def test_uncompleted_queries_ignored(self):
        done = completed_query(0, 1.0)
        pending = QueryRecord(1, "toy", 1, 0.0)
        stats = latency_statistics([done, pending])
        assert stats.count == 1

    def test_sla_violation_rate(self):
        queries = [
            completed_query(0, latency=0.5, sla=1.0),
            completed_query(1, latency=2.0, sla=1.0),
            completed_query(2, latency=3.0, sla=1.0),
            completed_query(3, latency=1.0),  # no SLA: excluded from the rate
        ]
        stats = latency_statistics(queries)
        assert stats.sla_violation_rate == pytest.approx(2 / 3)


class TestUtilizationStatistics:
    def make_worker(self, instance_id, gpcs, busy):
        instance = PartitionInstance(instance_id, GPUPartition(gpcs))
        worker = PartitionWorker(instance, latency_fn=lambda *a: 1.0, columns=QueryColumns())
        worker.busy_time = busy
        return worker

    def test_mean_and_weighted_mean(self):
        workers = [self.make_worker(0, 1, busy=5.0), self.make_worker(1, 7, busy=10.0)]
        stats = utilization_statistics(workers, makespan=10.0)
        assert stats.per_instance == {0: 0.5, 1: 1.0}
        assert stats.mean == pytest.approx(0.75)
        # GPC-weighted: (1*0.5 + 7*1.0) / 8
        assert stats.gpc_weighted_mean == pytest.approx(7.5 / 8)

    def test_empty_workers(self):
        stats = utilization_statistics([], makespan=1.0)
        assert stats.mean == 0.0
        assert stats.per_instance == {}

    def test_retired_worker_normalised_by_its_active_span(self):
        """A fully busy worker retired halfway through the run reports ~1.0.

        Regression: dividing by the whole-run makespan understated every
        retired (and every late-created) worker after a live repartition.
        """
        retired = self.make_worker(0, 7, busy=5.0)
        retired.retired_at = 5.0
        stats = utilization_statistics([retired], makespan=10.0)
        assert stats.per_instance[0] == pytest.approx(1.0)

    def test_late_created_worker_normalised_by_its_active_span(self):
        late = self.make_worker(1, 7, busy=2.0)
        late.created_at = 6.0
        stats = utilization_statistics([late], makespan=10.0)
        assert stats.per_instance[1] == pytest.approx(0.5)

    def test_mixed_generations_mean(self):
        retired = self.make_worker(0, 1, busy=4.0)
        retired.retired_at = 4.0
        late = self.make_worker(1, 1, busy=3.0)
        late.created_at = 4.0
        stats = utilization_statistics([retired, late], makespan=10.0)
        assert stats.per_instance == {0: pytest.approx(1.0), 1: pytest.approx(0.5)}
        assert stats.mean == pytest.approx(0.75)

    def test_full_span_workers_unchanged(self):
        worker = self.make_worker(0, 7, busy=5.0)
        stats = utilization_statistics([worker], makespan=10.0)
        assert stats.per_instance[0] == pytest.approx(0.5)


class TestComputeStatistics:
    def test_combined_record(self):
        queries = [completed_query(i, latency=1.0, arrival=float(i)) for i in range(10)]
        instance = PartitionInstance(0, GPUPartition(7))
        worker = PartitionWorker(instance, latency_fn=lambda *a: 1.0, columns=QueryColumns())
        worker.busy_time = 10.0
        stats = compute_statistics(queries, [worker], makespan=20.0, offered_load_qps=2.0)
        assert stats.completed_queries == 10
        assert stats.total_queries == 10
        assert stats.throughput_qps == pytest.approx(0.5)
        assert stats.offered_load_qps == 2.0
        assert stats.utilization.per_instance[0] == pytest.approx(0.5)

    def test_zero_makespan(self):
        stats = compute_statistics([], [], makespan=0.0)
        assert stats.throughput_qps == 0.0
