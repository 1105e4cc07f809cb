"""Pluggable policy registries for partitioners and schedulers.

The paper's central claim is that partitioning strategies and scheduling
policies are *interchangeable design points*.  This module makes that claim
architectural: partitioners and schedulers are looked up by name in open
registries, so a new policy plugs in from user code without touching
``repro`` internals::

    from repro.core.registry import (
        PartitionerContext, SchedulerContext,
        register_partitioner, register_scheduler,
    )

    @register_partitioner("my-policy")
    def my_partitioner(context: PartitionerContext) -> PartitionPlan:
        ...  # carve context.budget GPCs however you like

    @register_scheduler("my-sched")
    def my_scheduler(context: SchedulerContext) -> Scheduler:
        return MyScheduler(context.profile)

    ServerConfig(model="resnet", partitioning="my-policy", scheduler="my-sched")

A registered *factory* is any callable that takes the build context and
returns a :class:`~repro.core.plan.PartitionPlan` (partitioners) or a
:class:`~repro.sim.scheduler_api.Scheduler` (schedulers).  The built-in
policies of the paper — PARIS, homogeneous, random, ELSA, FIFS, least-loaded,
random-dispatch — are registered here through the same mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.core.plan import PartitionPlan
from repro.gpu.architecture import A100, GPUArchitecture
from repro.perf.lookup import ProfileTable
from repro.registry import FactoryT, PolicyRegistry
from repro.sim.scheduler_api import Scheduler


# --------------------------------------------------------------------------- #
# build contexts
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PartitionerContext:
    """Everything a partitioner factory may look at.

    Attributes:
        profile: profiled lookup table of the primary model.
        batch_pdf: batch-size PDF of the expected workload (``Dist[]``).
        budget: GPC budget to carve.
        config: the :class:`~repro.serving.config.ServerConfig` being built
            (``None`` when a policy is built standalone).
        spec: per-policy spec object (:mod:`repro.core.specs`), the
            config's ``partitioner_spec``; built-in factories use their
            spec type's defaults when it is ``None``.
        target_architecture: explicit target architecture override.  A
            deployment invokes a partitioner once per member architecture of
            its fleet with that architecture's own profile/budget; this field carries
            the architecture so :attr:`architecture` resolves correctly even
            though the config names only the fleet's primary one.
    """

    profile: ProfileTable
    batch_pdf: Mapping[int, float]
    budget: int
    config: Any = None
    spec: Any = None
    target_architecture: Optional[GPUArchitecture] = None

    @property
    def model(self) -> str:
        """Primary model name (from the config, else the profile)."""
        if self.config is not None:
            return self.config.model
        return self.profile.model_name

    @property
    def architecture(self) -> GPUArchitecture:
        """Target GPU architecture (A100 when no config is given)."""
        if self.target_architecture is not None:
            return self.target_architecture
        return getattr(self.config, "architecture", A100)


@dataclass(frozen=True)
class SchedulerContext:
    """Everything a scheduler factory may look at.

    Attributes:
        profile: profiled lookup table of the primary model.
        profiles: profiled tables of *every* served model, keyed by name
            (multi-model deployments); always contains ``profile``.
        config: the server config being built (``None`` when standalone).
        spec: per-policy spec object, when one was configured.
        arch_profiles: per-architecture per-model tables (``architecture
            name -> model name -> table``) on mixed-architecture fleet
            deployments; ``None`` when the design has one architecture.
            Architecture-aware schedulers (ELSA) use these to estimate each
            instance through its own architecture's profile.
    """

    profile: ProfileTable
    profiles: Mapping[str, ProfileTable] = field(default_factory=dict)
    config: Any = None
    spec: Any = None
    arch_profiles: Optional[Mapping[str, Mapping[str, ProfileTable]]] = None

    def __post_init__(self) -> None:
        tables = dict(self.profiles)
        # the explicit primary profile wins over a same-model mapping entry,
        # matching build_deployment and SlackEstimator precedence
        tables[self.profile.model_name] = self.profile
        object.__setattr__(self, "profiles", tables)


@runtime_checkable
class Partitioner(Protocol):
    """A partitioner factory: build context -> partition plan."""

    def __call__(self, context: PartitionerContext) -> PartitionPlan: ...


@runtime_checkable
class SchedulerFactory(Protocol):
    """A scheduler factory: build context -> scheduler instance."""

    def __call__(self, context: SchedulerContext) -> Scheduler: ...


# --------------------------------------------------------------------------- #
# the registries
# --------------------------------------------------------------------------- #
#: The global partitioner registry (name -> plan factory).
PARTITIONERS = PolicyRegistry("partitioner")

#: The global scheduler registry (name -> scheduler factory).
SCHEDULERS = PolicyRegistry("scheduler")


def register_partitioner(
    name: str, *, aliases: Sequence[str] = (), overwrite: bool = False
) -> Callable[[FactoryT], FactoryT]:
    """Decorator registering a partitioner factory under ``name``."""
    return PARTITIONERS.register(name, aliases=aliases, overwrite=overwrite)


def register_scheduler(
    name: str, *, aliases: Sequence[str] = (), overwrite: bool = False
) -> Callable[[FactoryT], FactoryT]:
    """Decorator registering a scheduler factory under ``name``."""
    return SCHEDULERS.register(name, aliases=aliases, overwrite=overwrite)


def get_partitioner(name: str) -> Partitioner:
    """The partitioner factory registered under ``name``."""
    return PARTITIONERS.get(name)


def get_scheduler(name: str) -> SchedulerFactory:
    """The scheduler factory registered under ``name``."""
    return SCHEDULERS.get(name)


def available_partitioners() -> List[str]:
    """Names of every registered partitioner."""
    return PARTITIONERS.names()


def available_schedulers() -> List[str]:
    """Names of every registered scheduler."""
    return SCHEDULERS.names()


def build_plan(name: str, context: PartitionerContext) -> PartitionPlan:
    """Run the named partitioner and type-check its result."""
    plan = get_partitioner(name)(context)
    if not isinstance(plan, PartitionPlan):
        raise TypeError(
            f"partitioner {name!r} returned {type(plan).__name__}, "
            "expected a PartitionPlan"
        )
    return plan


def build_scheduler(name: str, context: SchedulerContext) -> Scheduler:
    """Instantiate the named scheduler and type-check its result."""
    scheduler = get_scheduler(name)(context)
    if not isinstance(scheduler, Scheduler):
        raise TypeError(
            f"scheduler factory {name!r} returned {type(scheduler).__name__}, "
            "expected a Scheduler"
        )
    return scheduler


# --------------------------------------------------------------------------- #
# built-in partitioners
# --------------------------------------------------------------------------- #
@register_partitioner("paris")
def _paris_partitioner(context: PartitionerContext) -> PartitionPlan:
    """PARIS (Algorithm 1): knee-segmented heterogeneous partitioning.

    Resolved through :func:`repro.core.paris.shared_paris`, so every build
    against the same (profile, tunables) shares one planner and plans are
    memoized across repeated (PDF, budget) requests — a rate sweep or a
    trigger loop replans only when the observed distribution changes.
    """
    from repro.core.paris import shared_paris
    from repro.core.specs import resolve_policy_spec

    spec = resolve_policy_spec("partitioner", "paris", context.spec)
    return shared_paris(context.profile, spec).plan(
        dict(context.batch_pdf), context.budget
    )


@register_partitioner("homogeneous")
def _homogeneous_partitioner(context: PartitionerContext) -> PartitionPlan:
    """Homogeneous GPU(N) baseline: identical partitions fill the budget."""
    from repro.core.baselines import homogeneous_partition
    from repro.core.specs import resolve_policy_spec

    spec = resolve_policy_spec("partitioner", "homogeneous", context.spec)
    return homogeneous_partition(
        spec.gpcs,
        context.budget,
        model=context.model,
        architecture=context.architecture,
    )


@register_partitioner("random")
def _random_partitioner(context: PartitionerContext) -> PartitionPlan:
    """Random heterogeneous baseline: uniformly drawn sizes fill the budget."""
    from repro.core.baselines import random_partition
    from repro.core.specs import resolve_policy_spec

    spec = resolve_policy_spec("partitioner", "random", context.spec)
    seed = spec.seed if spec.seed is not None else getattr(context.config, "random_seed", 0)
    return random_partition(
        context.budget,
        model=context.model,
        architecture=context.architecture,
        partition_sizes=spec.partition_sizes,
        seed=seed,
    )


# --------------------------------------------------------------------------- #
# built-in schedulers
# --------------------------------------------------------------------------- #
@register_scheduler("elsa")
def _elsa_scheduler(context: SchedulerContext) -> Scheduler:
    """ELSA (Algorithm 2): heterogeneity-aware SLA-slack scheduling."""
    from repro.core.elsa import ElsaScheduler
    from repro.core.specs import resolve_policy_spec

    spec = resolve_policy_spec("scheduler", "elsa", context.spec)
    return ElsaScheduler(
        context.profile,
        alpha=spec.alpha,
        beta=spec.beta,
        prefer_smallest=spec.prefer_smallest,
        profiles=context.profiles,
        arch_profiles=context.arch_profiles,
    )


@register_scheduler("fifs")
def _fifs_scheduler(context: SchedulerContext) -> Scheduler:
    """First-idle first-serve (Triton-style central queue)."""
    from repro.core.schedulers import FifsScheduler
    from repro.core.specs import resolve_policy_spec

    spec = resolve_policy_spec("scheduler", "fifs", context.spec)
    seed = spec.seed if spec.seed is not None else getattr(context.config, "random_seed", 0)
    return FifsScheduler(idle_preference=spec.idle_preference, seed=seed)


@register_scheduler("least-loaded")
def _least_loaded_scheduler(context: SchedulerContext) -> Scheduler:
    """Least-outstanding-work load balancer (heterogeneity-unaware)."""
    from repro.core.schedulers import LeastLoadedScheduler
    from repro.core.specs import resolve_policy_spec

    # no tunables, but resolving the spec makes bogus options raise
    # instead of being silently ignored
    resolve_policy_spec("scheduler", "least-loaded", context.spec)
    return LeastLoadedScheduler()


@register_scheduler("random-dispatch", aliases=("random",))
def _random_dispatch_scheduler(context: SchedulerContext) -> Scheduler:
    """Uniformly random dispatch (lower-bound sanity check)."""
    from repro.core.schedulers import RandomDispatchScheduler
    from repro.core.specs import resolve_policy_spec

    spec = resolve_policy_spec("scheduler", "random-dispatch", context.spec)
    seed = spec.seed if spec.seed is not None else getattr(context.config, "random_seed", 0)
    return RandomDispatchScheduler(seed=seed)
