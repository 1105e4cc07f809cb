"""Properties pinning the fleet contract: a single-architecture Fleet is
bit-identical to the classic MultiGPUServer path.

``Fleet([A100 x 8])`` must reproduce today's results *exactly* — the same
PARIS plan, the same MIG placement and instance ids, the same ELSA/FIFS
schedules and the same metrics — on one-shot replays and across a live
mid-run repartition.  The fleet layer adds capability
(mixed architectures), never drift.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.architecture import A100
from repro.serving.config import ServerConfig
from repro.serving.deployment import build_deployment, replan_deployment
from repro.serving.session import ServingSession
from repro.workload.generator import QueryGenerator, WorkloadConfig

A100_NAME = A100.name


def _flat_config(**overrides):
    return ServerConfig(
        model="resnet", num_gpus=8, gpc_budget=48, **overrides
    )


def _fleet_config(**overrides):
    return ServerConfig(model="resnet", fleet=((8, "a100", 48),), **overrides)


def _signature(result):
    return [
        (q.query_id, q.dispatch_time, q.start_time, q.finish_time, q.instance_id)
        for q in result.queries
    ]


@st.composite
def batch_pdfs(draw):
    batches = draw(st.lists(st.integers(1, 32), min_size=1, max_size=6, unique=True))
    weights = [draw(st.floats(0.05, 1.0, allow_nan=False)) for _ in batches]
    return dict(zip(batches, weights))


@settings(max_examples=15, deadline=None)
@given(pdf=batch_pdfs())
def test_single_arch_fleet_plans_and_instances_identical(pdf):
    from repro.gpu.server import ServerCapacityError

    try:
        d_flat = build_deployment(_flat_config(), pdf)
    except ServerCapacityError:
        # a plan the physical GPUs cannot pack (e.g. 12xGPU(4) on 8 devices)
        # must fail identically on the fleet path
        with pytest.raises(ServerCapacityError):
            build_deployment(_fleet_config(), pdf)
        return
    d_fleet = build_deployment(_fleet_config(), pdf)
    assert d_fleet.plan.counts_of(A100_NAME) == {
        size: count for size, count in d_flat.plan.counts.items() if count
    }
    assert list(d_fleet.instances) == list(d_flat.instances)
    assert d_fleet.sla_target == d_flat.sla_target
    assert d_fleet.arch_profiles is None  # single-arch fleets stay classic


@pytest.mark.parametrize("scheduler", ["elsa", "fifs", "least-loaded"])
def test_single_arch_fleet_replay_bit_identical(scheduler):
    pdf = {1: 0.4, 4: 0.3, 8: 0.2, 32: 0.1}
    d_flat = build_deployment(_flat_config(scheduler=scheduler), pdf)
    d_fleet = build_deployment(_fleet_config(scheduler=scheduler), pdf)
    trace = QueryGenerator(
        WorkloadConfig(
            model="resnet",
            rate_qps=3000.0,
            num_queries=400,
            seed=11,
            sla_target=d_flat.sla_target,
        )
    ).generate()
    r_flat = d_flat.simulator().run(trace)
    r_fleet = d_fleet.simulator().run(trace)
    assert _signature(r_flat) == _signature(r_fleet)
    assert r_flat.statistics == r_fleet.statistics
    assert r_flat.per_instance_queries == r_fleet.per_instance_queries


def test_single_arch_fleet_replan_identical():
    pdf = {1: 0.6, 8: 0.4}
    shifted = {4: 0.3, 16: 0.5, 32: 0.2}
    d_flat = replan_deployment(build_deployment(_flat_config(), pdf), shifted)
    d_fleet = replan_deployment(build_deployment(_fleet_config(), pdf), shifted)
    assert d_fleet.plan.counts_of(A100_NAME) == {
        size: count for size, count in d_flat.plan.counts.items() if count
    }
    assert list(d_fleet.instances) == list(d_flat.instances)


def test_single_arch_fleet_session_with_live_repartition_identical():
    """The full streaming loop — windowed metrics, a drift trigger firing, a
    live MIG repartition with downtime — replays identically on a
    single-architecture fleet and on the flat server."""
    workload = WorkloadConfig(
        model="resnet", rate_qps=2500.0, num_queries=1200, seed=3, sigma=1.4
    )
    results = []
    for config in (_flat_config(), _fleet_config()):
        session = ServingSession(
            config,
            batch_pdf={1: 0.8, 2: 0.2},  # deliberately stale prior
            window=0.05,
            triggers=[("pdf-drift", {"threshold": 0.1, "min_queries": 50})],
            reconfig_cost=0.02,
        )
        results.append(session.run(workload))
    flat, fleet = results
    assert flat.reconfigurations  # the trigger really fired
    assert flat.reconfigurations == fleet.reconfigurations
    assert _signature(flat.simulation) == _signature(fleet.simulation)
    assert flat.simulation.statistics == fleet.simulation.statistics
    assert [w.throughput_qps for w in flat.windows] == [
        w.throughput_qps for w in fleet.windows
    ]
