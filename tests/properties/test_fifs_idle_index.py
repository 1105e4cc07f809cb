"""Property: FIFS's idle index equals the scan at *every* arrival of a live run.

FIFS keeps its own list of idle workers, sorted like the simulator's worker
list and fed by the context's change feed (dispatches, completions,
crashes, restores; a reconfiguration swaps the worker list and rebuilds
it).  Hand-built contexts only ever rebuild the list, so this is the test
that covers the incremental feed: small random fleet runs under every
``idle_preference``, with execution noise, a crash, a straggler that
recovers, a restore and a live reconfiguration.  At every arrival the list
FIFS picks from must be ``[w for w in context.workers if w.is_idle]``, in
that order: the ``random`` preference indexes it.
"""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from repro.core.schedulers import FifsScheduler
from repro.faults import RetryPolicy
from repro.serving.config import ServerConfig
from repro.serving.deployment import build_deployment
from repro.sim.cluster import InferenceServerSimulator
from repro.workload.generator import QueryGenerator, WorkloadConfig

BATCH_PDF = {1: 0.4, 4: 0.3, 8: 0.2, 32: 0.1}
FLEETS = {
    "one-server": ((2, "a100", 14),),
    "two-servers": ((2, "a100", 14), (1, "a100", 7)),
}


@lru_cache(maxsize=None)
def _deployment(fleet):
    return build_deployment(ServerConfig(model="resnet", fleet=FLEETS[fleet]), BATCH_PDF)


class CheckedFifs(FifsScheduler):
    """FIFS asserting its idle list against a scan of every worker."""

    checks = 0
    nonempty = 0

    def _idle_in_order(self, context):
        idle = super()._idle_in_order(context)
        expected = [worker for worker in context.workers if worker.is_idle]
        assert [w.instance_id for w in idle] == [w.instance_id for w in expected]
        assert all(a is b for a, b in zip(idle, expected))
        self.checks += 1
        self.nonempty += bool(idle)
        return idle


@settings(max_examples=30, deadline=None)
@given(
    fleet=st.sampled_from(sorted(FLEETS)),
    preference=st.sampled_from(FifsScheduler._PREFERENCES),
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
def test_idle_index_matches_the_scan_at_every_arrival(
    fleet, preference, load, queries, seed, frontend, noise, marks, victims,
    multiplier, keep, cost,
):
    deployment = _deployment(fleet)
    scheduler = CheckedFifs(preference, seed=seed)
    capacity = 2000.0
    trace = QueryGenerator(
        WorkloadConfig(
            model="resnet", rate_qps=load * capacity, num_queries=queries, seed=seed
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

    assert scheduler.checks >= queries
    assert scheduler.nonempty > 0
    assert result.statistics.completed_queries == queries
