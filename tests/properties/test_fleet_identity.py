"""Properties pinning the fleet contract: a server is a fleet of one.

``ServerConfig(m, num_gpus=n, architecture=a, gpc_budget=b)`` and
``ServerConfig(m, fleet=[(n, a, b)])`` are two spellings of one design, and
both deploy through one path.  They must give the same PARIS plan, the same
MIG placement and instance ids, the same SLA targets and the same replayed
schedules — at every budget, including budgets below the architecture's
largest partition, on one-shot replays, across a replan and across a live
mid-run repartition.  On fleets of several servers, the deployment the
control plane reaches by re-targeting a running design equals the one built
directly, and the plan type follows the architecture count.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.plan import FleetPlan, PartitionPlan
from repro.gpu.architecture import get_architecture
from repro.gpu.server import ServerCapacityError
from repro.serving.config import ServerConfig, config_with_fleet
from repro.serving.deployment import build_deployment, replan_deployment
from repro.serving.session import ServingSession
from repro.workload.generator import QueryGenerator, WorkloadConfig


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


def _deploy(config, pdf):
    """The deployment, or the error a plan the GPUs cannot hold raises."""
    try:
        return build_deployment(config, pdf)
    except (ServerCapacityError, ValueError) as error:
        return type(error), str(error)


@st.composite
def batch_pdfs(draw):
    batches = draw(st.lists(st.integers(1, 32), min_size=1, max_size=6, unique=True))
    weights = [draw(st.floats(0.05, 1.0, allow_nan=False)) for _ in batches]
    return dict(zip(batches, weights))


@st.composite
def servers(draw):
    """One ``(num_gpus, architecture, gpc_budget)`` server; the budget may
    sit below the architecture's largest partition."""
    name = draw(st.sampled_from(["a100", "a30"]))
    num_gpus = draw(st.integers(1, 3))
    physical = num_gpus * get_architecture(name).gpc_count
    return num_gpus, name, draw(st.one_of(st.none(), st.integers(1, physical)))


MODELS = st.sampled_from(["mobilenet", "resnet"])


@settings(max_examples=60, deadline=None)
@given(server=servers(), model=MODELS, pdf=batch_pdfs(), shifted=batch_pdfs())
@example(server=(1, "a100", 4), model="mobilenet", pdf={16: 0.5, 32: 0.5}, shifted={1: 1.0})
def test_single_arch_fleet_plans_and_instances_identical(server, model, pdf, shifted):
    num_gpus, name, budget = server
    flat = ServerConfig(model, num_gpus=num_gpus, architecture=name, gpc_budget=budget)
    fleet = ServerConfig(model, fleet=[server])
    d_flat, d_fleet = _deploy(flat, pdf), _deploy(fleet, pdf)
    if isinstance(d_flat, tuple):
        # a plan the physical GPUs cannot pack fails identically
        assert d_fleet == d_flat
        return
    assert type(d_flat.plan) is PartitionPlan
    assert d_fleet.plan == d_flat.plan
    assert list(d_fleet.instances) == list(d_flat.instances)
    assert d_fleet.sla_targets == d_flat.sla_targets
    assert d_fleet.arch_profiles is d_flat.arch_profiles is None
    trace = QueryGenerator(
        WorkloadConfig(
            model=model, rate_qps=800.0, num_queries=120, seed=5,
            sla_target=d_flat.sla_target,
        )
    ).generate()
    r_flat, r_fleet = d_flat.simulator().run(trace), d_fleet.simulator().run(trace)
    assert _signature(r_fleet) == _signature(r_flat)
    assert r_fleet.statistics == r_flat.statistics
    try:
        replanned = replan_deployment(d_flat, shifted)
    except ServerCapacityError:
        with pytest.raises(ServerCapacityError):
            replan_deployment(d_fleet, shifted)
        return
    assert replan_deployment(d_fleet, shifted).plan == replanned.plan


def test_small_budget_plans_within_the_one_server():
    # the one server's 4-GPC budget caps PARIS's candidate sizes at GPU(4)
    pdf = {16: 0.5, 32: 0.5}
    flat = build_deployment(ServerConfig("mobilenet", num_gpus=1, gpc_budget=4), pdf)
    fleet = build_deployment(ServerConfig("mobilenet", fleet=[(1, "a100", 4)]), pdf)
    assert flat.plan.describe() == fleet.plan.describe() == "1xGPU(4)"


@settings(max_examples=25, deadline=None)
@given(
    fleet=st.lists(servers(), min_size=1, max_size=3),
    model=MODELS,
    pdf=batch_pdfs(),
)
def test_single_arch_fleet_replan_identical(fleet, model, pdf):
    """Re-targeting a running one-server design at a fleet (what the control
    plane does on scale-out) deploys exactly as building that fleet does."""
    config = ServerConfig(model, fleet=fleet)
    direct = _deploy(config, pdf)
    num_gpus, name, budget = fleet[0]
    start = _deploy(
        ServerConfig(model, num_gpus=num_gpus, architecture=name, gpc_budget=budget), pdf
    )
    if isinstance(start, tuple):
        return
    try:
        moved = replan_deployment(start, pdf, config=config_with_fleet(start.config, fleet))
    except (ServerCapacityError, ValueError) as error:
        assert direct == (type(error), str(error))
        return
    assert not isinstance(direct, tuple)
    assert moved.plan == direct.plan
    assert list(moved.instances) == list(direct.instances)
    one_architecture = len({get_architecture(name).name for _, name, _ in fleet}) == 1
    assert isinstance(direct.plan, PartitionPlan if one_architecture else FleetPlan)
    assert (direct.arch_profiles is None) == one_architecture


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
