"""Direct start: a query dispatched to a worker with nothing executing and
nothing queued starts at once, without the local-queue round trip.

The reference is the queued path, ``enqueue`` then ``start_next``: the
direct path must show observers the same dispatched-not-started query, draw
the same execution noise and leave the same queued-work total, while
looking the query's latency up once instead of twice.
"""

import math

import numpy as np
import pytest

from repro.core.elsa import ElsaScheduler
from repro.perf.lookup import CachedEstimator
from repro.sim.cluster import InferenceServerSimulator
from repro.sim.columnar import QueryColumns
from repro.sim.hooks import SimulationObserver
from repro.sim.scheduler_api import Scheduler
from repro.sim.worker import PartitionWorker
from repro.workload.query import Query
from tests.sim.helpers import MODEL, constant_profile, linear_profile, make_instances, make_trace

NOISE = 0.3


class DispatchRecorder(SimulationObserver):
    """Records a query's row of the run when its dispatch is announced (the
    traces here number their queries by row)."""

    def __init__(self):
        self.simulator = None
        self.views = []

    def on_query_dispatched(self, event):
        columns = self.simulator._columns
        row = event.query.query_id
        self.views.append(
            (
                event.time,
                columns.dispatch[row],
                columns.start[row],
                columns.instance[row],
                event.instance_id,
            )
        )


def make_worker(columns):
    instance = make_instances((7,))[0]
    profile = linear_profile({7: 0.01})
    return PartitionWorker(
        instance,
        latency_fn=CachedEstimator({MODEL: profile}),
        noise_std=NOISE,
        seed=11,
        columns=columns,
    )


def test_direct_start_matches_enqueue_then_start_next():
    direct_columns, queued_columns = QueryColumns(), QueryColumns()
    direct, queued = make_worker(direct_columns), make_worker(queued_columns)
    for worker in (direct, queued):
        worker.queued_work(worker.latency_fn)  # cache on, as under ELSA
    now = 0.0
    for row in range(20):
        query = Query(row, MODEL, 1 + row % 8, now)
        direct_columns.extend((query,))
        queued_columns.extend((query,))

        direct.assign(row, now)
        queued.enqueue(row, now)
        for columns in (direct_columns, queued_columns):
            assert (columns.dispatch[row], columns.instance[row]) == (now, 0)
            assert math.isnan(columns.start[row])

        finish = direct.start(row, now)
        assert finish == queued.start_next(now)  # the same noise draw
        assert direct.queued_work(direct.latency_fn) == queued.queued_work(queued.latency_fn)
        assert direct.queued_work(direct.latency_fn) == 0.0
        assert direct_columns.start[row] == queued_columns.start[row] == now
        direct.complete_current(finish)
        queued.complete_current(finish)
        now = finish
    for name in ("dispatch", "start", "finish", "instance"):
        assert getattr(direct_columns, name) == getattr(queued_columns, name)


def test_noise_stream_is_the_seeded_generator_stream():
    worker = make_worker(QueryColumns())
    query = Query(0, MODEL, 2, 0.0)
    reference = np.random.default_rng(11)
    base = worker.latency_fn(MODEL, 2, 7)
    for _ in range(5):
        expected = base * float(reference.lognormal(mean=0.0, sigma=NOISE))
        assert worker.service_time(query) == expected


def make_simulator(scheduler, noise=0.0, observers=()):
    return InferenceServerSimulator(
        instances=make_instances((1, 2, 7)),
        profiles={MODEL: constant_profile({1: 3.0, 2: 2.0, 7: 1.0})},
        scheduler=scheduler,
        execution_noise_std=noise,
        seed=3,
        observers=observers,
    )


def test_observers_see_direct_starts_dispatched_but_not_started():
    recorder = DispatchRecorder()
    profile = constant_profile({1: 3.0, 2: 2.0, 7: 1.0})
    simulator = make_simulator(ElsaScheduler(profile), noise=NOISE, observers=[recorder])
    recorder.simulator = simulator
    # sparse arrivals: every dispatch finds an idle worker
    trace = make_trace([(10.0 * i, 1) for i in range(12)], sla=5.0)
    result = simulator.run(trace)
    assert len(recorder.views) == 12
    for time, dispatch, start, instance, announced in recorder.views:
        assert dispatch == time
        assert math.isnan(start)
        assert instance == announced
    assert all(q.start_time == q.dispatch_time for q in result.queries)


class PollingScheduler(Scheduler):
    """Polls every worker's wait with the context's oracle, as ELSA does,
    then picks the first idle worker (a query never waits)."""

    def on_arrival(self, query, context):
        for worker in context.workers:
            worker.estimated_wait(context.now, context.estimator)
        return next(worker for worker in context.workers if worker.is_idle)


def test_one_latency_lookup_per_direct_start(monkeypatch):
    lookups = []
    lookup = CachedEstimator.__call__

    def counting(self, model, batch, gpcs):
        lookups.append((model, batch, gpcs))
        return lookup(self, model, batch, gpcs)

    monkeypatch.setattr(CachedEstimator, "__call__", counting)
    simulator = make_simulator(PollingScheduler())
    trace = make_trace([(10.0 * i, 1 + i % 4) for i in range(8)])
    result = simulator.run(trace)
    assert result.statistics.completed_queries == 8
    # the queued path also looked the query up for the queued-work cache
    assert len(lookups) == 8


@pytest.mark.parametrize("noise", [0.0, NOISE])
def test_generators_are_created_on_the_first_noisy_draw(noise):
    profile = constant_profile({1: 3.0, 2: 2.0, 7: 1.0})
    simulator = make_simulator(ElsaScheduler(profile), noise=noise)
    trace = make_trace([(0.5 * i, 1) for i in range(6)], sla=5.0)
    result = simulator.run(trace)
    served = {instance for instance, count in result.per_instance_queries.items() if count}
    allocated = {w.instance_id for w in simulator.workers if w._rng is not None}
    assert allocated == (served if noise else set())
