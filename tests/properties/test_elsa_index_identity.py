"""Property: the indexed decision equals the full-scan reference at *every*
arrival of a live run.

ELSA and the least-loaded baseline decide from a drain-time index that the
simulator keeps current through the context's change feed (dispatches,
completions, crashes, restores, slowdowns; a reconfiguration swaps the
worker list and rebuilds it).  Hand-built contexts only ever rebuild the
index, so this is the test that covers the incremental feed: small random
fleet runs with execution noise (so a started query can finish earlier
than estimated), a crash, a straggler that recovers, a restore and a live
reconfiguration, where every decision is checked against a scan over
every worker —
:meth:`ElsaScheduler.predictions` for ELSA, the minimum of
``(estimated_wait, instance_id)`` for least-loaded.
"""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from repro.core.elsa import ElsaScheduler
from repro.core.schedulers import LeastLoadedScheduler
from repro.faults import RetryPolicy
from repro.serving.config import ServerConfig
from repro.serving.deployment import build_deployment
from repro.sim.cluster import InferenceServerSimulator
from repro.workload.generator import QueryGenerator, WorkloadConfig
from tests.core.test_elsa import reference_pick

BATCH_PDF = {1: 0.4, 4: 0.3, 8: 0.2, 32: 0.1}
FLEETS = {
    "one-server": ((2, "a100", 14),),
    "two-servers": ((2, "a100", 14), (1, "a100", 7)),
}


@lru_cache(maxsize=None)
def _deployment(fleet):
    return build_deployment(ServerConfig(model="resnet", fleet=FLEETS[fleet]), BATCH_PDF)


class CheckedElsa(ElsaScheduler):
    """ELSA asserting each indexed pick against the predictions() walk."""

    decisions = 0

    def on_arrival(self, query, context):
        picked = super().on_arrival(query, context)
        assert picked is reference_pick(self, query, context)
        self.decisions += 1
        return picked


class CheckedLeastLoaded(LeastLoadedScheduler):
    """Least-loaded asserting each indexed pick against a full scan."""

    decisions = 0

    def on_arrival(self, query, context):
        picked = super().on_arrival(query, context)
        now = context.now
        expected = min(
            context.workers,
            key=lambda w: (w.estimated_wait(now, context.oracle_for(w)), w.instance_id),
        )
        assert picked is expected
        self.decisions += 1
        return picked


@settings(max_examples=30, deadline=None)
@given(
    fleet=st.sampled_from(sorted(FLEETS)),
    policy=st.sampled_from(["elsa", "least-loaded"]),
    prefer_smallest=st.booleans(),
    sla_scale=st.one_of(st.none(), st.floats(0.3, 3.0)),
    load=st.floats(0.3, 3.0),
    queries=st.integers(60, 250),
    seed=st.integers(0, 1000),
    frontend=st.booleans(),
    noise=st.sampled_from([0.0, 0.3]),
    marks=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
    victims=st.lists(st.integers(0, 100), min_size=2, max_size=2),
    multiplier=st.floats(1.0, 6.0),
    keep=st.lists(st.booleans(), min_size=1, max_size=40),
    cost=st.floats(0.0, 0.01),
)
def test_indexed_pick_matches_full_scan_at_every_arrival(
    fleet, policy, prefer_smallest, sla_scale, load, queries, seed, frontend,
    noise, marks, victims, multiplier, keep, cost,
):
    deployment = _deployment(fleet)
    if policy == "elsa":
        scheduler = CheckedElsa(
            deployment.profile, profiles=deployment.profiles, prefer_smallest=prefer_smallest
        )
    else:
        scheduler = CheckedLeastLoaded()
    capacity = 2000.0
    trace = QueryGenerator(
        WorkloadConfig(
            model="resnet",
            rate_qps=load * capacity,
            num_queries=queries,
            seed=seed,
            sla_target=None if sla_scale is None else sla_scale * deployment.sla_target,
        )
    ).generate()
    simulator = InferenceServerSimulator(
        instances=deployment.instances,
        profiles=dict(deployment.profiles),
        scheduler=scheduler,
        frontend_capacity_qps=capacity if frontend else None,
        execution_noise_std=noise,
        seed=seed,
    )
    horizon = max(query.arrival_time for query in trace)
    crash_at, slow_at, restore_at, fast_at, reconfigure_at = sorted(m * horizon for m in marks)

    simulator.begin()
    simulator.submit_trace(trace)
    simulator.run_until(crash_at)
    crashed = simulator.workers[victims[0] % len(simulator.workers)].instance_id
    simulator.crash_worker(crashed, RetryPolicy(max_retries=2, backoff=0.001))
    simulator.run_until(slow_at)
    straggler = simulator.workers[victims[1] % len(simulator.workers)].instance_id
    simulator.set_worker_slowdown(straggler, multiplier)
    simulator.run_until(restore_at)
    simulator.restore_worker(crashed)
    simulator.run_until(fast_at)
    simulator.set_worker_slowdown(straggler, 1.0)
    simulator.run_until(reconfigure_at)
    kept = [i for i, k in zip(deployment.instances, keep * len(deployment.instances)) if k]
    simulator.reconfigure(kept or deployment.instances[:1], reconfig_cost=cost)
    result = simulator.finish()

    assert scheduler.decisions >= queries
    assert result.statistics.completed_queries == queries
