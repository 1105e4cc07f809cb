"""Tests for the baseline scheduling policies."""

import pytest

from repro.core.schedulers import (
    FifsScheduler,
    LeastLoadedScheduler,
    RandomDispatchScheduler,
)
from repro.gpu.partition import GPUPartition, PartitionInstance
from repro.sim.columnar import QueryColumns
from repro.sim.scheduler_api import SchedulingContext
from repro.sim.worker import PartitionWorker
from repro.workload.query import Query
from tests.sim.helpers import enqueue


def make_workers(sizes, latency=1.0):
    workers = []
    for idx, size in enumerate(sorted(sizes)):
        instance = PartitionInstance(idx, GPUPartition(size))
        workers.append(
            PartitionWorker(instance, latency_fn=lambda *a: latency, columns=QueryColumns())
        )
    return workers


def make_context(workers, central=(), now=0.0):
    return SchedulingContext(
        now=now,
        workers=workers,
        central_queue=tuple(central),
        estimator=lambda model, batch, gpcs: 1.0,
    )


def make_query(qid=0, batch=2):
    return Query(query_id=qid, model="toy", batch=batch, arrival_time=0.0)


class TestFifsScheduler:
    def test_parks_in_central_queue_when_all_busy(self):
        workers = make_workers([1])
        enqueue(workers[0], make_query(99), 0.0)
        workers[0].start_next(0.0)
        scheduler = FifsScheduler()
        assert scheduler.on_arrival(make_query(), make_context(workers)) is None

    def test_prefers_idle_worker(self):
        workers = make_workers([1, 7])
        scheduler = FifsScheduler()
        chosen = scheduler.on_arrival(make_query(), make_context(workers))
        assert chosen in workers

    def test_smallest_and_largest_preferences(self):
        workers = make_workers([1, 7])
        assert FifsScheduler("smallest").on_arrival(
            make_query(), make_context(workers)
        ).gpcs == 1
        assert FifsScheduler("largest").on_arrival(
            make_query(), make_context(workers)
        ).gpcs == 7

    def test_round_robin_rotates(self):
        workers = make_workers([1, 1, 1])
        scheduler = FifsScheduler("round_robin")
        picks = [
            scheduler.on_arrival(make_query(i), make_context(workers)).instance_id
            for i in range(3)
        ]
        assert sorted(picks) == [0, 1, 2]

    def test_random_preference_is_seeded(self):
        workers = make_workers([1, 1, 1, 1])
        a = FifsScheduler("random", seed=3)
        b = FifsScheduler("random", seed=3)
        picks_a = [a.on_arrival(make_query(i), make_context(workers)).instance_id
                   for i in range(5)]
        picks_b = [b.on_arrival(make_query(i), make_context(workers)).instance_id
                   for i in range(5)]
        assert picks_a == picks_b

    def test_worker_idle_drains_fifo_order(self):
        workers = make_workers([1])
        scheduler = FifsScheduler()
        # the central queue holds rows, oldest first
        chosen = scheduler.on_worker_idle(workers[0], make_context(workers, central=[5, 2]))
        assert chosen == 5

    def test_worker_idle_with_empty_queue(self):
        workers = make_workers([1])
        assert FifsScheduler().on_worker_idle(workers[0], make_context(workers)) is None

    def test_invalid_preference_rejected(self):
        with pytest.raises(ValueError):
            FifsScheduler("alphabetical")

    def test_round_robin_rotates_over_instance_ids_not_idle_subset(self):
        """Regression: cursor-indexing the idle *subset* starved high ids.

        With the idle set alternating between {0, 1} and {0, 1, 2}, the old
        ``ordered[cursor % len(ordered)]`` pick hammered instance 0 and
        rarely reached instance 2; the least-recently-dispatched rotation
        over instance ids keeps every instance in the rotation.
        """
        workers = make_workers([1, 1, 1])
        scheduler = FifsScheduler("round_robin")
        picks = []
        for i in range(30):
            # instance 2 is busy (a query waits on it) on even arrivals
            if i % 2 == 0:
                enqueue(workers[2], make_query(100 + i), 0.0)
            else:
                workers[2].drain_queue()
            assert [w.is_idle for w in workers] == [True, True, i % 2 == 1]
            context = make_context(workers)
            picks.append(scheduler.on_arrival(make_query(i), context).instance_id)
        counts = {wid: picks.count(wid) for wid in (0, 1, 2)}
        # every instance participates substantially (the old code gave
        # instance 2 only ~1 in 6 picks here)
        assert min(counts.values()) >= len(picks) // 5

    def test_round_robin_dispatch_counts_uniform_under_poisson_load(self):
        """End-to-end fairness: uniform work -> near-uniform dispatch counts."""
        import numpy as np

        from repro.sim.cluster import InferenceServerSimulator
        from tests.sim.helpers import MODEL, constant_profile, make_instances, make_trace

        rng = np.random.default_rng(0)
        arrivals = np.cumsum(rng.exponential(1 / 4.0, size=800))
        simulator = InferenceServerSimulator(
            instances=make_instances((1,) * 6),
            profiles={MODEL: constant_profile({1: 1.0})},
            scheduler=FifsScheduler("round_robin"),
        )
        result = simulator.run(make_trace([(float(t), 1) for t in arrivals]))
        counts = list(result.per_instance_queries.values())
        # the pre-fix rotation produced a spread of 9 on this trace; the
        # id-rotation keeps all instances within a few dispatches
        assert max(counts) - min(counts) <= 4

    def test_reset_restores_round_robin_cursor(self):
        workers = make_workers([1, 1])
        scheduler = FifsScheduler("round_robin")
        first = scheduler.on_arrival(make_query(), make_context(workers)).instance_id
        scheduler.reset()
        again = scheduler.on_arrival(make_query(), make_context(workers)).instance_id
        assert first == again


class TestLeastLoadedScheduler:
    def test_picks_emptiest_queue(self):
        workers = make_workers([1, 1])
        enqueue(workers[0], make_query(5), 0.0)
        scheduler = LeastLoadedScheduler()
        chosen = scheduler.on_arrival(make_query(), make_context(workers))
        assert chosen is workers[1]

    def test_never_returns_none(self):
        workers = make_workers([1])
        enqueue(workers[0], make_query(5), 0.0)
        workers[0].start_next(0.0)
        assert LeastLoadedScheduler().on_arrival(
            make_query(), make_context(workers)
        ) is workers[0]


class TestRandomDispatchScheduler:
    def test_deterministic_given_seed(self):
        workers = make_workers([1, 1, 7, 7])
        a = RandomDispatchScheduler(seed=1)
        b = RandomDispatchScheduler(seed=1)
        picks_a = [a.on_arrival(make_query(i), make_context(workers)).instance_id
                   for i in range(10)]
        picks_b = [b.on_arrival(make_query(i), make_context(workers)).instance_id
                   for i in range(10)]
        assert picks_a == picks_b

    def test_eventually_uses_all_workers(self):
        workers = make_workers([1, 1, 7])
        scheduler = RandomDispatchScheduler(seed=0)
        picks = {
            scheduler.on_arrival(make_query(i), make_context(workers)).instance_id
            for i in range(60)
        }
        assert picks == {0, 1, 2}
