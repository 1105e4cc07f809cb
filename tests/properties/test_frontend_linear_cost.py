"""Property: replay cost stays linear in queries at any offered load.

Queries that find the rate-limited frontend busy wait in one FIFO queue
served by a single pending slot event.  Per query the replay processes one
arrival, one completion, at most one slot admission and at most one stale
re-arm, so ``events_processed <= 4 * queries`` holds from far below the
frontend cap to far above it, where a per-arrival retry scheme costs
O(backlog) events per admission.
"""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from repro.serving.config import ServerConfig
from repro.serving.deployment import build_deployment
from repro.workload.generator import QueryGenerator, WorkloadConfig

CAP_QPS = 2000.0
GAP = 1.0 / CAP_QPS
#: The simulator's same-instant tolerance on frontend timing.
SLACK = 1e-15
BATCH_PDF = {1: 0.4, 4: 0.3, 8: 0.2, 32: 0.1}
CONFIGS = {
    "one-server": ServerConfig(
        model="resnet", num_gpus=8, gpc_budget=48, frontend_capacity_qps=CAP_QPS
    ),
    "two-server-fleet": ServerConfig(
        model="resnet",
        fleet=((8, "a100", 48), (8, "a100", 48)),
        frontend_capacity_qps=CAP_QPS,
    ),
}


@lru_cache(maxsize=None)
def _deployment(name):
    return build_deployment(CONFIGS[name], BATCH_PDF)


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(CONFIGS)),
    load=st.floats(0.1, 10.0, allow_nan=False),
    queries=st.integers(20, 300),
    seed=st.integers(0, 1000),
)
def test_replay_cost_is_linear_in_queries(name, load, queries, seed):
    deployment = _deployment(name)
    trace = QueryGenerator(
        WorkloadConfig(
            model="resnet",
            rate_qps=load * CAP_QPS,
            num_queries=queries,
            seed=seed,
            sla_target=deployment.sla_target,
        )
    ).generate()
    simulator = deployment.simulator()
    result = simulator.run(trace)

    assert simulator.events_processed <= 4 * queries
    # every query completes exactly once
    assert result.statistics.completed_queries == queries
    assert sum(result.per_instance_queries.values()) == queries
    assert sorted(q.query_id for q in result.queries) == sorted(q.query_id for q in trace)
    assert all(q.finish_time is not None for q in result.queries)
    # ELSA dispatches at admission: one admission per frontend gap at most
    dispatches = sorted(q.dispatch_time for q in result.queries)
    assert all(later - earlier >= GAP - SLACK for earlier, later in zip(dispatches, dispatches[1:]))
