"""Tests for the partition worker."""

import pytest

from repro.gpu.partition import GPUPartition, PartitionInstance
from repro.sim.columnar import QueryColumns
from repro.sim.worker import PartitionWorker
from repro.workload.query import Query
from tests.sim.helpers import enqueue


def make_worker(gpcs=1, latency=2.0, noise=0.0):
    instance = PartitionInstance(0, GPUPartition(gpcs))
    return PartitionWorker(
        instance,
        latency_fn=lambda model, batch, g: latency,
        noise_std=noise,
        seed=1,
        columns=QueryColumns(),
    )


def make_query(qid=0, batch=1):
    return Query(query_id=qid, model="toy", batch=batch, arrival_time=0.0)


class TestLifecycle:
    def test_initially_idle(self):
        worker = make_worker()
        assert worker.is_idle
        assert not worker.is_executing
        assert worker.queue_depth == 0

    def test_enqueue_start_complete_cycle(self):
        worker = make_worker(latency=2.0)
        columns = worker._columns
        row = enqueue(worker, make_query(), now=1.0)
        assert columns.dispatch[row] == 1.0
        assert columns.instance[row] == worker.instance_id

        finish = worker.start_next(now=1.0)
        assert finish == pytest.approx(3.0)
        assert worker.is_executing
        assert columns.start[row] == 1.0

        done = worker.complete_current(now=3.0)
        assert done == row
        assert columns.finish[row] == 3.0
        assert worker.busy_time == pytest.approx(2.0)
        assert worker.is_idle
        assert worker.completed == 1

    def test_start_next_when_busy_returns_none(self):
        worker = make_worker()
        enqueue(worker, make_query(0), 0.0)
        enqueue(worker, make_query(1), 0.0)
        worker.start_next(0.0)
        assert worker.start_next(0.0) is None
        assert worker.queue_depth == 1

    def test_complete_without_running_query_raises(self):
        with pytest.raises(RuntimeError):
            make_worker().complete_current(1.0)

    def test_utilization_fraction(self):
        worker = make_worker(latency=1.0)
        enqueue(worker, make_query(), 0.0)
        worker.start_next(0.0)
        worker.complete_current(1.0)
        assert worker.utilization(4.0) == pytest.approx(0.25)
        assert worker.utilization(0.0) == 0.0


class TestEstimation:
    def test_remaining_execution_time(self):
        worker = make_worker(latency=4.0)
        enqueue(worker, make_query(), 0.0)
        worker.start_next(0.0)
        assert worker.remaining_execution_time(1.0) == pytest.approx(3.0)
        assert worker.remaining_execution_time(10.0) == 0.0

    def test_estimated_wait_combines_queue_and_remaining(self):
        worker = make_worker(latency=4.0)
        enqueue(worker, make_query(0), 0.0)
        worker.start_next(0.0)
        enqueue(worker, make_query(1), 0.0)
        enqueue(worker, make_query(2), 0.0)
        estimator = lambda model, batch, gpcs: 4.0
        assert worker.estimated_wait(1.0, estimator) == pytest.approx(3.0 + 8.0)

    def test_estimated_wait_idle_is_zero(self):
        worker = make_worker()
        assert worker.estimated_wait(0.0, lambda *a: 1.0) == 0.0


class TestServiceTime:
    def test_deterministic_without_noise(self):
        worker = make_worker(latency=2.5)
        assert worker.service_time(make_query()) == pytest.approx(2.5)

    def test_noise_perturbs_but_stays_positive(self):
        worker = make_worker(latency=1.0, noise=0.3)
        times = [worker.service_time(make_query(i)) for i in range(50)]
        assert all(t > 0 for t in times)
        assert len(set(times)) > 1

    def test_nonpositive_latency_from_oracle_rejected(self):
        instance = PartitionInstance(0, GPUPartition(1))
        worker = PartitionWorker(instance, latency_fn=lambda *a: 0.0, columns=QueryColumns())
        with pytest.raises(ValueError):
            worker.service_time(make_query())

    def test_negative_noise_rejected(self):
        instance = PartitionInstance(0, GPUPartition(1))
        with pytest.raises(ValueError):
            PartitionWorker(
                instance, latency_fn=lambda *a: 1.0, noise_std=-0.1, columns=QueryColumns()
            )


class CountingEstimator:
    """A latency oracle that counts its invocations."""

    def __init__(self, per_batch=0.5):
        self.per_batch = per_batch
        self.calls = 0

    def __call__(self, model, batch, gpcs):
        self.calls += 1
        return self.per_batch * batch


class TestQueuedWorkCache:
    def uncached_sum(self, worker, estimator):
        queries = worker._columns.queries
        return sum(
            estimator(queries[row].model, queries[row].batch, worker.gpcs)
            for row in worker.queue
        )

    def test_cached_value_matches_uncached_scan(self):
        worker = make_worker()
        estimator = CountingEstimator()
        for i in range(5):
            enqueue(worker, make_query(i, batch=i + 1), 0.0)
        assert worker.queued_work(estimator) == self.uncached_sum(
            worker, CountingEstimator()
        )
        worker.start_next(0.0)  # pops one query
        assert worker.queued_work(estimator) == self.uncached_sum(
            worker, CountingEstimator()
        )

    def test_repeat_polls_do_not_rescan(self):
        worker = make_worker()
        for i in range(4):
            enqueue(worker, make_query(i), 0.0)
        estimator = CountingEstimator()
        first = worker.queued_work(estimator)
        calls_after_first = estimator.calls
        assert worker.queued_work(estimator) == first
        assert estimator.calls == calls_after_first  # served from the cache

    def test_enqueue_extends_cache_without_rescan(self):
        worker = make_worker()
        estimator = CountingEstimator()
        enqueue(worker, make_query(0, batch=2), 0.0)
        worker.queued_work(estimator)
        calls_before = estimator.calls
        enqueue(worker, make_query(1, batch=4), 0.0)
        assert worker.queued_work(estimator) == pytest.approx(3.0)
        # only the newly enqueued query was estimated
        assert estimator.calls == calls_before + 1

    def test_different_estimator_triggers_recompute(self):
        worker = make_worker()
        enqueue(worker, make_query(0, batch=2), 0.0)
        fast = CountingEstimator(per_batch=0.5)
        slow = CountingEstimator(per_batch=2.0)
        assert worker.queued_work(fast) == pytest.approx(1.0)
        assert worker.queued_work(slow) == pytest.approx(4.0)
        assert worker.queued_work(fast) == pytest.approx(1.0)

    def test_every_total_is_one_left_fold(self):
        # sum() compensates float rounding from Python 3.12 on, so it would
        # round 1.0 + 2e-16 up where the += extending a cached total rounds
        # down twice; every path must give the plain left fold.
        estimates = {1: 1.0, 2: 1e-16, 3: 1e-16, 4: 5.0}

        def oracle(model, batch, gpcs):
            return estimates[batch]

        folded = ((0.0 + 1.0) + 1e-16) + 1e-16
        rebuilt = make_worker()
        for qid, batch in enumerate((1, 2, 3)):
            enqueue(rebuilt, make_query(qid, batch=batch), 0.0)
        assert rebuilt.queued_work(oracle) == folded  # fresh estimator
        extended = make_worker()
        extended.queued_work(oracle)
        for qid, batch in enumerate((1, 2, 3)):
            enqueue(extended, make_query(qid, batch=batch), 0.0)
        assert extended.queued_work(oracle) == folded  # extended by +=
        popped = make_worker()
        for qid, batch in enumerate((4, 1, 2, 3)):
            enqueue(popped, make_query(qid, batch=batch), 0.0)
        popped.queued_work(oracle)
        popped.start_next(0.0)
        assert popped.queued_work(oracle) == folded  # refolded after a pop

    def test_empty_queue_total_is_a_float(self):
        total = make_worker().queued_work(CountingEstimator())
        assert isinstance(total, float)
        assert total == 0.0

    def test_drain_queue_returns_and_clears(self):
        worker = make_worker()
        estimator = CountingEstimator()
        rows = [enqueue(worker, make_query(i), 0.0) for i in range(3)]
        worker.queued_work(estimator)
        assert worker.drain_queue() == rows
        assert worker.queue_depth == 0
        assert worker.queued_work(estimator) == 0.0


class TestActiveSpan:
    def test_defaults_to_full_makespan(self):
        worker = make_worker()
        assert worker.active_span(10.0) == pytest.approx(10.0)

    def test_retired_worker_span_ends_at_retirement(self):
        worker = make_worker()
        worker.retired_at = 4.0
        assert worker.active_span(10.0) == pytest.approx(4.0)

    def test_late_created_worker_span_starts_at_creation(self):
        instance = PartitionInstance(0, GPUPartition(1))
        worker = PartitionWorker(
            instance, latency_fn=lambda *a: 1.0, created_at=6.0, columns=QueryColumns()
        )
        assert worker.active_span(10.0) == pytest.approx(4.0)

    def test_span_clamped_to_makespan(self):
        worker = make_worker()
        worker.retired_at = 12.0
        assert worker.active_span(10.0) == pytest.approx(10.0)
