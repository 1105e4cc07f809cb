"""Unit tests for the ELSA scheduler (Algorithm 2)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.elsa import ElsaScheduler
from repro.core.schedulers import LeastLoadedScheduler
from repro.gpu.partition import GPUPartition, PartitionInstance
from repro.perf.lookup import ProfileEntry, ProfileTable
from repro.sim.columnar import QueryColumns
from repro.sim.scheduler_api import SchedulingContext
from repro.sim.worker import PartitionWorker
from repro.workload.query import Query
from tests.sim.helpers import constant_profile, enqueue


LATENCIES = {1: 3.0, 3: 2.0, 7: 1.0}


def make_workers(sizes=(1, 3, 7)):
    profile = constant_profile(LATENCIES)
    workers = []
    for idx, size in enumerate(sizes):
        instance = PartitionInstance(idx, GPUPartition(size))
        workers.append(
            PartitionWorker(
                instance,
                latency_fn=lambda model, batch, g: profile.latency(g, batch),
                columns=QueryColumns(),
            )
        )
    return workers


def make_context(workers, now=0.0):
    profile = constant_profile(LATENCIES)
    return SchedulingContext(
        now=now,
        workers=workers,
        central_queue=(),
        estimator=lambda model, batch, gpcs: profile.latency(gpcs, batch),
    )


def make_query(qid=0, batch=4, sla=None):
    return Query(query_id=qid, model="toy", batch=batch, arrival_time=0.0, sla_target=sla)


def make_scheduler(**kwargs):
    return ElsaScheduler(profile=constant_profile(LATENCIES), **kwargs)


class TestStepA:
    def test_prefers_smallest_partition_that_meets_sla(self):
        workers = make_workers()
        scheduler = make_scheduler()
        chosen = scheduler.on_arrival(make_query(sla=10.0), make_context(workers))
        assert chosen.gpcs == 1

    def test_skips_partitions_that_would_violate(self):
        workers = make_workers()
        scheduler = make_scheduler()
        # SLA of 2.5 s: GPU(1) (3 s) violates, GPU(3) (2 s) is the smallest fit.
        chosen = scheduler.on_arrival(make_query(sla=2.5), make_context(workers))
        assert chosen.gpcs == 3

    def test_accounts_for_queued_work(self):
        workers = make_workers()
        # Load the GPU(3) instance so its wait pushes it over the SLA.
        gpu3 = [w for w in workers if w.gpcs == 3][0]
        enqueue(gpu3, make_query(99), 0.0)
        gpu3.start_next(0.0)
        scheduler = make_scheduler()
        chosen = scheduler.on_arrival(make_query(sla=2.5), make_context(workers))
        assert chosen.gpcs == 7

    def test_balances_load_across_equal_partitions(self):
        workers = make_workers(sizes=(1, 1))
        enqueue(workers[0], make_query(99), 0.0)
        workers[0].start_next(0.0)
        scheduler = make_scheduler()
        chosen = scheduler.on_arrival(make_query(sla=100.0), make_context(workers))
        assert chosen is workers[1]

    def test_largest_first_ablation_flag(self):
        workers = make_workers()
        scheduler = make_scheduler(prefer_smallest=False)
        chosen = scheduler.on_arrival(make_query(sla=10.0), make_context(workers))
        assert chosen.gpcs == 7

    def test_alpha_tightens_admission(self):
        workers = make_workers()
        # With alpha=2 the effective cost on GPU(1) is 6 s > SLA 5 s.
        scheduler = make_scheduler(alpha=2.0)
        chosen = scheduler.on_arrival(make_query(sla=5.0), make_context(workers))
        assert chosen.gpcs == 3


class TestStepB:
    def test_falls_back_to_fastest_completion(self):
        workers = make_workers()
        scheduler = make_scheduler()
        chosen = scheduler.on_arrival(make_query(sla=0.1), make_context(workers))
        assert chosen.gpcs == 7

    def test_fastest_completion_considers_queued_work(self):
        workers = make_workers()
        gpu7 = [w for w in workers if w.gpcs == 7][0]
        for i in range(5):
            enqueue(gpu7, make_query(100 + i), 0.0)
        gpu7.start_next(0.0)
        scheduler = make_scheduler()
        # GPU(7) now has ~6 s of work; GPU(3) (2 s) completes sooner.
        chosen = scheduler.on_arrival(make_query(sla=0.1), make_context(workers))
        assert chosen.gpcs == 3

    def test_queries_without_sla_use_fastest_completion(self):
        workers = make_workers()
        scheduler = make_scheduler()
        chosen = scheduler.on_arrival(make_query(sla=None), make_context(workers))
        assert chosen.gpcs == 7


def reference_pick(scheduler, query, context):
    """Algorithm 2 walked over :meth:`ElsaScheduler.predictions`: Step A's
    first SLA-satisfying partition in Step-A order, else Step B's minimum of
    (predicted completion, size, instance id)."""
    predictions = scheduler.predictions(query, context)
    if query.sla_target is not None:
        for prediction, worker in predictions:
            if prediction.satisfies_sla:
                return worker
    best = min(
        predictions,
        key=lambda pw: (pw[0].completion_time, pw[0].gpcs, pw[0].instance_id),
    )
    return best[1]


class TestLeanArrivalMatchesPredictions:
    """on_arrival's indexed decision must equal walking predictions().

    The hot path answers from per-group drain-time keys; this pins it to
    the introspectable :meth:`ElsaScheduler.predictions` reference on
    hand-built contexts (which rebuild the index on every decision), so a
    future change to the slack formula or the index cannot silently diverge
    the two.  Workers come in any list order, with same-size siblings,
    queries enqueued but not started, finished-looking in-flight queries
    (``now`` past their finish time) and straggler slowdowns.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        members=st.lists(
            st.tuples(
                st.sampled_from((1, 3, 7)),
                st.integers(0, 4),
                st.booleans(),
                st.sampled_from((1.0, 1.5, 3.0)),
            ),
            min_size=1,
            max_size=7,
        ),
        order=st.randoms(use_true_random=False),
        batch=st.integers(1, 32),
        sla=st.one_of(st.none(), st.floats(0.05, 30.0, allow_nan=False)),
        alpha=st.floats(0.5, 2.5),
        beta=st.floats(0.5, 2.5),
        prefer_smallest=st.booleans(),
        now=st.floats(0.0, 2.0, allow_nan=False),
    )
    def test_decisions_identical(
        self, members, order, batch, sla, alpha, beta, prefer_smallest, now
    ):
        workers = make_workers([size for size, _, _, _ in members])
        for worker, (_, queued, started, slow) in zip(workers, members):
            for i in range(queued):
                enqueue(worker, make_query(100 + i), 0.0)
            if queued and started:
                worker.start_next(0.0)
            worker.slow_factor = slow
        order.shuffle(workers)
        scheduler = make_scheduler(
            alpha=alpha, beta=beta, prefer_smallest=prefer_smallest
        )
        query = make_query(batch=batch, sla=sla)
        context = make_context(workers, now=now)
        assert scheduler.on_arrival(query, context) is reference_pick(
            scheduler, query, context
        )


#: batch -> exact GPU(1) latency of the near-tie siblings: two in-flight
#: queries, the two queued queries behind them, and the arriving query.
NEAR_TIE_LATENCY = {
    1: 0.06792262250802233,  # A in flight: finish
    2: 0.007776759545508902,  # A queued
    3: 0.06703867525980178,  # B in flight: finish
    4: 0.008660706793729454,  # B queued
    5: 0.001,
}


class TestNearTie:
    """Two busy GPU(1) siblings whose drain keys ``queued + finish`` differ
    by one ulp while their exact waits ``queued + (finish - now)`` are
    equal.  The sibling with the larger key has the lower id, so it must
    win: an index that only looked at the smallest key would pick the
    other one."""

    NOW = 0.06609361907982955

    def profile(self):
        entries = [
            ProfileEntry(gpcs=1, batch=b, latency_s=v, utilization=0.9, throughput_qps=1.0 / v)
            for b, v in NEAR_TIE_LATENCY.items()
        ]
        return ProfileTable("toy", entries)

    def siblings(self):
        profile = self.profile()

        def sibling(instance_id, running, queued):
            worker = PartitionWorker(
                PartitionInstance(instance_id, GPUPartition(1)),
                latency_fn=lambda model, batch, g: profile.latency(g, batch),
                columns=QueryColumns(),
            )
            enqueue(worker, make_query(10 + running, batch=running), 0.0)
            worker.start_next(0.0)  # finishes at exactly NEAR_TIE_LATENCY[running]
            enqueue(worker, make_query(10 + queued, batch=queued), 0.0)
            return worker

        return profile, sibling(1, 1, 2), sibling(0, 3, 4)

    def test_premise(self):
        profile, a, b = self.siblings()
        oracle = ElsaScheduler(profile).estimator.estimator
        key_a = a.queued_work(oracle) + a.current_finish_time
        key_b = b.queued_work(oracle) + b.current_finish_time
        assert key_b == math.nextafter(key_a, math.inf)
        assert a.estimated_wait(self.NOW, oracle) == b.estimated_wait(self.NOW, oracle)
        assert b.instance_id < a.instance_id

    @pytest.mark.parametrize("sla", [1.0, None])
    def test_lower_id_sibling_wins(self, sla):
        profile, a, b = self.siblings()
        scheduler = ElsaScheduler(profile)
        context = SchedulingContext(
            now=self.NOW,
            workers=[a, b],
            central_queue=(),
            estimator=scheduler.estimator.estimator,
        )
        query = make_query(batch=5, sla=sla)
        assert scheduler.on_arrival(query, context) is b
        assert LeastLoadedScheduler().on_arrival(query, context) is b


class TestMisc:
    def test_never_returns_none(self):
        workers = make_workers()
        for worker in workers:
            enqueue(worker, make_query(50 + worker.instance_id), 0.0)
            worker.start_next(0.0)
        scheduler = make_scheduler()
        assert scheduler.on_arrival(make_query(sla=1.0), make_context(workers)) is not None

    def test_profile_property_exposed(self):
        scheduler = make_scheduler()
        assert scheduler.profile.latency(7, 4) == pytest.approx(1.0)

    def test_name(self):
        assert make_scheduler().name == "elsa"
