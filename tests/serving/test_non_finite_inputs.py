"""Non-finite run controls and workload inputs fail with a pinned message
before any state changes.

NaN compares false with everything, so a bare ``x < 0`` or ``x <= 0`` guard
lets it through, and infinity passes every "positive" check.  Either one
then loses work silently or fails late: a NaN reconfiguration cost or
slowdown leaves queries that never complete, a NaN noise draws NaN service
times, a NaN window or step stalls the control loop or drains a run in one
call, and an infinite retry backoff re-admits a crashed query at t=inf.
Every guard below rejects both, worded like ``ServerConfig``'s.

On the workload side, an infinite rate puts every query at t=0 and reports
zero load, a NaN or infinite batch-size parameter draws nonsense batches,
and the fault and preemption samplers never return for an infinite horizon
or rate.  Their guards keep the older positivity messages and add a
separate finite check.

The counts (``num_gpus``, ``gpc_budget``, ``max_batch``, ``num_queries``)
must be whole numbers.  Unchecked, an infinite ``max_batch`` draws batches
past the cap and gives ``ServerConfig`` an infinite SLA target that every
query meets, a NaN one fails late in ``generate()``, and a NaN or infinite
GPU count fails late in ``build_deployment``, and a fleet server of NaN or
infinite GPUs reports that many GPCs.  Their guards keep the older message
as a prefix, extended to "... and integral".
"""

import math
import re
from pathlib import Path

import pytest

from repro.core.schedulers import FifsScheduler
from repro.daemon.jobs import JobManager
from repro.daemon.tenants import FleetPool, TenantSession
from repro.autoscale.preemption import PreemptionSchedule
from repro.faults.events import StragglerStart
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import FaultSchedule
from repro.gpu.fleet import FleetServerSpec
from repro.serving.config import ServerConfig
from repro.serving.session import ServingSession
from repro.sim.cluster import InferenceServerSimulator
from repro.sim.columnar import QueryColumns
from repro.sim.hooks import WindowedMetrics
from repro.sim.worker import PartitionWorker
from repro.workload.generator import WorkloadConfig
from repro.workload.scenario import Phase
from tests.sim.helpers import MODEL, constant_profile, make_instances, make_trace

CONFIG = ServerConfig(model="mobilenet", gpc_budget=14, num_gpus=2)
SERVERS = [(2, "a100", 12)]
TRACE = make_trace([(0.1 * i, 2) for i in range(20)], sla=1.0)


def _simulator(**kwargs):
    return InferenceServerSimulator(
        instances=make_instances((1, 7)),
        profiles={MODEL: constant_profile({1: 0.4, 3: 0.2, 7: 0.1})},
        scheduler=FifsScheduler(),
        **kwargs,
    )


def _open_simulator():
    """A simulator paused mid-run, with queries queued and in flight."""
    simulator = _simulator()
    simulator.begin()
    simulator.submit_trace(TRACE)
    simulator.run_until(0.6)
    return simulator


def _started_tenant():
    tenant = TenantSession(
        "t",
        ServingSession(CONFIG, window=0.5),
        WorkloadConfig(model="mobilenet", rate_qps=400.0, num_queries=200, seed=2),
        seed=2,
    )
    tenant.start()
    return tenant


#: case -> (the call that must fail, given the bad value; its message)
CASES = {
    "simulator.reconfigure": (
        lambda v: _open_simulator().reconfigure(make_instances((3, 3)), reconfig_cost=v),
        "reconfig_cost must be non-negative and finite",
    ),
    "simulator.set_worker_slowdown": (
        lambda v: _open_simulator().set_worker_slowdown(0, v),
        "multiplier must be >= 1 and finite",
    ),
    "simulator.frontend_capacity_qps": (
        lambda v: _simulator(frontend_capacity_qps=v),
        "frontend_capacity_qps must be positive and finite when set",
    ),
    "simulator.execution_noise_std": (
        lambda v: _simulator(execution_noise_std=v),
        "noise_std must be non-negative and finite",
    ),
    "worker.noise_std": (
        lambda v: PartitionWorker(
            make_instances((7,))[0], lambda *a: 1.0, noise_std=v, columns=QueryColumns()
        ),
        "noise_std must be non-negative and finite",
    ),
    "session.reconfig_cost": (
        lambda v: ServingSession(CONFIG, reconfig_cost=v),
        "reconfig_cost must be non-negative and finite",
    ),
    "session.window": (
        lambda v: ServingSession(CONFIG, window=v),
        "window must be positive and finite (or None to disable)",
    ),
    "session.trigger_interval": (
        lambda v: ServingSession(CONFIG, trigger_interval=v),
        "trigger_interval must be positive and finite when set",
    ),
    "session.execution_noise_std": (
        lambda v: ServingSession(CONFIG, execution_noise_std=v),
        "execution_noise_std must be non-negative and finite",
    ),
    "windowed_metrics.window": (
        lambda v: WindowedMetrics(window=v),
        "window must be positive and finite",
    ),
    "straggler.multiplier": (
        lambda v: StragglerStart(time=0.0, worker=0, multiplier=v),
        "multiplier must be >= 1 and finite",
    ),
    "retry_policy.backoff": (
        lambda v: RetryPolicy(backoff=v),
        "backoff must be non-negative and finite",
    ),
    "retry_policy.growth": (
        lambda v: RetryPolicy(growth=v),
        "growth must be >= 1 and finite",
    ),
    "tenant.advance": (
        lambda v: _started_tenant().advance(v),
        "step must be positive and finite",
    ),
    "job_manager.chunk": (
        lambda v: JobManager(FleetPool(SERVERS), CONFIG, Path("artifacts"), chunk=v),
        "chunk must be positive and finite",
    ),
    "server_config.num_gpus": (
        lambda v: ServerConfig(model="mobilenet", num_gpus=v),
        "num_gpus must be positive and integral",
    ),
    "server_config.gpc_budget": (
        lambda v: ServerConfig(model="mobilenet", gpc_budget=v),
        "gpc_budget must be positive when set and integral",
    ),
    "fleet_server_spec.num_gpus": (
        lambda v: FleetServerSpec(v, "a100"),
        "num_gpus must be positive and integral",
    ),
    "fleet_server_spec.gpc_budget": (
        lambda v: FleetServerSpec(2, "a100", v),
        "gpc_budget must be in (0, 14] and integral for 2xA100-SXM4-40GB",
    ),
    "fleet_pool.num_gpus": (
        lambda v: FleetPool([(v, "a100")]),
        "num_gpus must be positive and integral",
    ),
    "server_config.max_batch": (
        lambda v: ServerConfig(model="mobilenet", max_batch=v),
        "max_batch must be >= 1 and integral",
    ),
    "workload.num_queries": (
        lambda v: WorkloadConfig(model="mobilenet", rate_qps=1.0, num_queries=v),
        "num_queries must be >= 1 and integral",
    ),
    "workload.max_batch": (
        lambda v: WorkloadConfig(model="mobilenet", rate_qps=1.0, max_batch=v),
        "max_batch must be >= 1 and integral",
    ),
    "phase.max_batch": (
        lambda v: Phase(duration=1.0, rate_qps=1.0, max_batch=v),
        "max_batch must be >= 1 and integral",
    ),
    "workload.rate_qps": (
        lambda v: WorkloadConfig(model="mobilenet", rate_qps=v),
        "rate_qps must be finite",
    ),
    "workload.sla_target": (
        lambda v: WorkloadConfig(model="mobilenet", rate_qps=1.0, sla_target=v),
        "sla_target must be finite",
    ),
    "workload.sigma": (
        lambda v: WorkloadConfig(model="mobilenet", rate_qps=1.0, sigma=v),
        "sigma must be finite",
    ),
    "workload.median_batch": (
        lambda v: WorkloadConfig(model="mobilenet", rate_qps=1.0, median_batch=v),
        "median_batch must be finite",
    ),
    "phase.sigma": (
        lambda v: Phase(duration=1.0, rate_qps=1.0, sigma=v),
        "sigma must be finite",
    ),
    "phase.median_batch": (
        lambda v: Phase(duration=1.0, rate_qps=1.0, median_batch=v),
        "median_batch must be finite",
    ),
}

#: Infinity only: the samplers' older guards reject NaN with their own
#: messages (pinned in tests/faults/test_schedule.py).
INF_ONLY_CASES = {
    "fault_schedule.horizon": (
        lambda v: FaultSchedule.sample(4, v, rate=1.0),
        "horizon must be finite",
    ),
    "fault_schedule.rate": (
        lambda v: FaultSchedule.sample(4, 10.0, rate=v),
        "rate must be finite",
    ),
    "preemption_schedule.horizon": (
        lambda v: PreemptionSchedule.sample([0, 1], v, rate=1.0),
        "horizon must be finite",
    ),
    "preemption_schedule.rate": (
        lambda v: PreemptionSchedule.sample([0, 1], 10.0, rate=v),
        "rate must be finite",
    ),
}

#: Finite but past physical capacity: a flat design is a one-server fleet,
#: so its budget is refused at construction with the fleet server's message
#: (reported as the effective budget, it would fail only at deploy time).
OVER_CAPACITY_CASES = {
    "server_config.flat_gpc_budget": (
        lambda v: ServerConfig(model="mobilenet", num_gpus=1, gpc_budget=v),
        "gpc_budget must be in (0, 7] and integral for 1xA100-SXM4-40GB",
    ),
}


@pytest.mark.parametrize(
    ("case", "value"),
    [
        pytest.param(case, value, id=f"{case}-{value}")
        for cases, values in (
            (CASES, (math.nan, math.inf)),
            (INF_ONLY_CASES, (math.inf,)),
            (OVER_CAPACITY_CASES, (10,)),
        )
        for case in sorted(cases)
        for value in values
    ],
)
def test_non_finite_input_is_rejected(case, value):
    call, message = {**CASES, **INF_ONLY_CASES, **OVER_CAPACITY_CASES}[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}, got {value}$"):
        call(value)


@pytest.mark.parametrize("control", ["reconfigure", "set_worker_slowdown"])
def test_rejected_simulator_control_leaves_the_run_untouched(control):
    undisturbed = _open_simulator().finish()
    simulator = _open_simulator()
    with pytest.raises(ValueError):
        if control == "reconfigure":
            simulator.reconfigure(make_instances((3, 3)), reconfig_cost=math.nan)
        else:
            simulator.set_worker_slowdown(0, math.nan)
    assert not simulator.reconfiguring
    result = simulator.finish()
    assert result.statistics == undisturbed.statistics
    assert result.queries == undisturbed.queries


def test_rejected_advance_leaves_the_tenant_untouched():
    undisturbed, tenant = _started_tenant(), _started_tenant()
    with pytest.raises(ValueError):
        tenant.advance(math.nan)
    assert tenant.now == undisturbed.now == 0.0
    assert tenant.advance(0.4) == undisturbed.advance(0.4)
    assert tenant.new_windows() == undisturbed.new_windows()
    assert tenant.finish().windows == undisturbed.finish().windows
