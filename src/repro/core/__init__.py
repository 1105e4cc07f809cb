"""The paper's primary contributions: PARIS and ELSA.

* :mod:`repro.core.knee` — derivation of ``MaxBatch_knee`` from profiled
  utilization curves (Step A of Algorithm 1).
* :mod:`repro.core.plan` — the :class:`PartitionPlan` result type.
* :mod:`repro.core.paris` — PARIS, the Partitioning Algorithm for
  Reconfigurable multi-GPU Inference Servers (Algorithm 1).
* :mod:`repro.core.slack` — ELSA's profiling-based SLA slack predictor
  (Equations 1 and 2).
* :mod:`repro.core.elsa` — ELSA, the ELastic Scheduling Algorithm
  (Algorithm 2).
* :mod:`repro.core.schedulers` — baseline scheduling policies (FIFS and
  variants).
* :mod:`repro.core.baselines` — baseline partitioning strategies
  (homogeneous GPU(N), random heterogeneous).
* :mod:`repro.core.registry` — pluggable name-based registries for
  partitioners and schedulers (the extension point for custom policies).
* :mod:`repro.core.triggers` — pluggable *repartition triggers* driving the
  serving session's observe → repartition → reconfigure loop.
* :mod:`repro.core.specs` — composable per-policy configuration specs.
"""

from repro.core.knee import MaxBatchKnee, find_knee, derive_knees
from repro.core.plan import BatchSegment, FleetPlan, PartitionPlan
from repro.core.paris import (
    FleetParis,
    Paris,
    run_fleet_paris,
    run_paris,
    shared_fleet_paris,
    shared_paris,
)
from repro.core.slack import SlackEstimator, SlackPrediction
from repro.core.elsa import ElsaScheduler
from repro.core.schedulers import (
    FifsScheduler,
    LeastLoadedScheduler,
    RandomDispatchScheduler,
)
from repro.core.baselines import homogeneous_partition, random_partition
from repro.core.registry import (
    PARTITIONERS,
    SCHEDULERS,
    Partitioner,
    PartitionerContext,
    SchedulerContext,
    SchedulerFactory,
    available_partitioners,
    available_schedulers,
    build_plan,
    build_scheduler,
    get_partitioner,
    get_scheduler,
    register_partitioner,
    register_scheduler,
)
from repro.core.triggers import (
    TRIGGERS,
    PdfDriftTrigger,
    RepartitionTrigger,
    SlaViolationTrigger,
    TriggerContext,
    TriggerDecision,
    available_triggers,
    build_trigger,
    get_trigger,
    register_trigger,
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

__all__ = [
    "PARTITIONERS",
    "SCHEDULERS",
    "Partitioner",
    "PartitionerContext",
    "SchedulerContext",
    "SchedulerFactory",
    "available_partitioners",
    "available_schedulers",
    "build_plan",
    "build_scheduler",
    "get_partitioner",
    "get_scheduler",
    "register_partitioner",
    "register_scheduler",
    "TRIGGERS",
    "PdfDriftTrigger",
    "RepartitionTrigger",
    "SlaViolationTrigger",
    "TriggerContext",
    "TriggerDecision",
    "available_triggers",
    "build_trigger",
    "get_trigger",
    "register_trigger",
    "ElsaSpec",
    "FifsSpec",
    "HomogeneousSpec",
    "LeastLoadedSpec",
    "ParisSpec",
    "PolicySpec",
    "RandomDispatchSpec",
    "RandomPartitionSpec",
    "MaxBatchKnee",
    "find_knee",
    "derive_knees",
    "PartitionPlan",
    "FleetPlan",
    "BatchSegment",
    "Paris",
    "FleetParis",
    "run_paris",
    "run_fleet_paris",
    "shared_paris",
    "shared_fleet_paris",
    "SlackEstimator",
    "SlackPrediction",
    "ElsaScheduler",
    "FifsScheduler",
    "LeastLoadedScheduler",
    "RandomDispatchScheduler",
    "homogeneous_partition",
    "random_partition",
]
