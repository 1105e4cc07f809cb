"""repro — reproduction of "PARIS and ELSA" (DAC 2022).

A simulation-based, production-quality reimplementation of the paper
*PARIS and ELSA: An Elastic Scheduling Algorithm for Reconfigurable
Multi-GPU Inference Servers* (Kim, Choi, Rhu — DAC 2022, arXiv:2202.13481).

The package is organised bottom-up:

* :mod:`repro.registry` — the name-keyed
  :class:`~repro.registry.PolicyRegistry` every pluggable policy, trigger
  and scenario registers in (standard library only).
* :mod:`repro.gpu` — reconfigurable (MIG) GPU architecture, partitions and
  the multi-GPU server.
* :mod:`repro.models` — analytical DNN model zoo (ShuffleNet, MobileNet,
  ResNet, BERT, Conformer).
* :mod:`repro.perf` — roofline latency/utilization model and the one-time
  profiler producing (partition size, batch) lookup tables.
* :mod:`repro.workload` — Poisson arrivals, log-normal batch sizes and
  time-varying :class:`~repro.workload.scenario.Scenario` workloads.
* :mod:`repro.sim` — discrete-event simulator of the inference server, with
  typed lifecycle events, observers and incremental windowed metrics.
* :mod:`repro.core` — **PARIS** (Algorithm 1) and **ELSA** (Algorithm 2),
  the FIFS / random / homogeneous baselines, the **policy registries**
  that make partitioners and schedulers pluggable by name, and the
  repartition **triggers** driving the elastic loop.
* :mod:`repro.serving` — the :class:`~repro.serving.config.ServerConfig`
  design point, end-to-end deployment and the
  :class:`~repro.serving.session.ServingSession` (one-shot or streaming
  runs, multi-model traces, live mid-run repartitioning with modeled MIG
  downtime).
* :mod:`repro.autoscale` — the elastic fleet control plane: trigger-driven
  :class:`~repro.autoscale.autoscaler.Autoscaler` (whole-server scale-out
  with provisioning lead times, drain-based scale-in), deterministic spot
  :class:`~repro.autoscale.preemption.PreemptionSchedule` events, and the
  :class:`~repro.autoscale.planner.CapacityPlanner` searching server mixes
  for the cheapest SLA-feasible fleet.
* :mod:`repro.analysis` — experiment harnesses regenerating every table and
  figure of the paper's evaluation.

Quickstart::

    from repro import ServerConfig, ServingSession, WorkloadConfig

    config = ServerConfig(
        "resnet",                            # PARIS + ELSA by default
        num_gpus=8, gpc_budget=48,
        sla_multiplier=1.5, max_batch=32,
    )
    session = ServingSession(config, window=None)   # one-shot run
    workload = WorkloadConfig(model="resnet", rate_qps=200.0, num_queries=2000)
    result = session.run(workload)
    print(session.deployment.plan.describe())
    print(result.summary())

Writing your own policy is a registry decorator away::

    from repro import register_scheduler, SchedulerContext

    @register_scheduler("my-sched")
    def build_my_scheduler(context: SchedulerContext):
        return MyScheduler(context.profile)

    ServingSession(ServerConfig("resnet", scheduler="my-sched"))
"""

from repro.core.elsa import ElsaScheduler
from repro.core.paris import FleetParis, Paris, run_fleet_paris, run_paris
from repro.core.plan import FleetPlan, PartitionPlan
from repro.core.registry import (
    PartitionerContext,
    SchedulerContext,
    available_partitioners,
    available_schedulers,
    get_partitioner,
    get_scheduler,
    register_partitioner,
    register_scheduler,
)
from repro.core.schedulers import FifsScheduler
from repro.core.triggers import (
    RepartitionTrigger,
    TriggerContext,
    TriggerDecision,
    available_triggers,
    build_trigger,
    register_trigger,
)
from repro.autoscale import (
    Autoscaler,
    CapacityPlanner,
    PreemptionEvent,
    PreemptionSchedule,
)
from repro.core.specs import (
    ElsaSpec,
    FifsSpec,
    HomogeneousSpec,
    LeastLoadedSpec,
    ParisSpec,
    PolicySpec,
    RandomDispatchSpec,
    RandomPartitionSpec,
)
from repro.gpu.architecture import (
    A100,
    A100_80GB,
    A30,
    GPUArchitecture,
    H100,
    get_architecture,
)
from repro.gpu.fleet import Fleet, FleetServerSpec
from repro.gpu.partition import GPUPartition
from repro.gpu.server import MultiGPUServer, ServerCapacityError
from repro.models.registry import PAPER_MODELS, get_model, list_models
from repro.perf.lookup import ProfileTable
from repro.perf.profiler import Profiler, cached_profile, fleet_profiles, profile_model
from repro.registry import UnknownPolicyError
from repro.serving.config import ServerConfig
from repro.serving.deployment import Deployment, build_deployment
from repro.serving.session import ServingSession, SessionResult
from repro.sim.cluster import (
    InferenceServerSimulator,
    ReconfigurationRecord,
    SimulationResult,
)
from repro.sim.columnar import QueryRecord
from repro.sim.hooks import SimulationObserver, WindowedMetrics
from repro.workload.generator import QueryGenerator, WorkloadConfig
from repro.workload.query import Query
from repro.workload.scenario import (
    Phase,
    Scenario,
    available_scenarios,
    build_scenario,
    register_scenario,
)
from repro.workload.trace import QueryTrace, merge_traces

__version__ = "1.2.0"

__all__ = [
    "A100",
    "A100_80GB",
    "A30",
    "H100",
    "Autoscaler",
    "CapacityPlanner",
    "Deployment",
    "Fleet",
    "FleetParis",
    "FleetPlan",
    "FleetServerSpec",
    "ElsaScheduler",
    "ElsaSpec",
    "FifsScheduler",
    "FifsSpec",
    "GPUArchitecture",
    "GPUPartition",
    "HomogeneousSpec",
    "InferenceServerSimulator",
    "LeastLoadedSpec",
    "MultiGPUServer",
    "PAPER_MODELS",
    "Paris",
    "ParisSpec",
    "PartitionPlan",
    "PartitionerContext",
    "Phase",
    "PolicySpec",
    "PreemptionEvent",
    "PreemptionSchedule",
    "ProfileTable",
    "Profiler",
    "Query",
    "QueryGenerator",
    "QueryRecord",
    "QueryTrace",
    "RandomDispatchSpec",
    "RandomPartitionSpec",
    "ReconfigurationRecord",
    "RepartitionTrigger",
    "Scenario",
    "SchedulerContext",
    "ServerConfig",
    "ServerCapacityError",
    "ServingSession",
    "SessionResult",
    "SimulationObserver",
    "SimulationResult",
    "TriggerContext",
    "TriggerDecision",
    "UnknownPolicyError",
    "WindowedMetrics",
    "WorkloadConfig",
    "available_partitioners",
    "available_scenarios",
    "available_schedulers",
    "available_triggers",
    "build_deployment",
    "cached_profile",
    "fleet_profiles",
    "get_architecture",
    "build_scenario",
    "build_trigger",
    "get_model",
    "get_partitioner",
    "get_scheduler",
    "list_models",
    "merge_traces",
    "profile_model",
    "register_partitioner",
    "register_scenario",
    "register_scheduler",
    "register_trigger",
    "run_paris",
    "run_fleet_paris",
    "__version__",
]
