"""Deployment construction: configuration -> concrete server.

:func:`build_deployment` takes a :class:`~repro.serving.config.ServerConfig`,
profiles the served models (or accepts pre-built profiles), looks the
configured partitioner and scheduler up in the policy registries of
:mod:`repro.core.registry`, packs the resulting instances onto the physical
GPUs and instantiates the scheduler — everything needed to hand a
ready-to-run :class:`~repro.sim.cluster.InferenceServerSimulator` to the
caller.  Every design deploys onto the fleet
:meth:`~repro.serving.config.ServerConfig.build_fleet` returns; a flat
``num_gpus`` / ``architecture`` / ``gpc_budget`` design is a fleet of one
server.

Because policies are resolved by name, any partitioner or scheduler
registered from user code participates here with zero changes to this
module.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.core.plan import FleetPlan, PartitionPlan
from repro.core.registry import (
    PartitionerContext,
    SchedulerContext,
    build_plan,
    build_scheduler,
)
from repro.gpu.partition import PartitionInstance
from repro.perf.lookup import ProfileTable
from repro.perf.profiler import Profiler, cached_profile, fleet_profiles
from repro.serving.config import ServerConfig
from repro.serving.sla import derive_sla_target
from repro.sim.cluster import InferenceServerSimulator
from repro.sim.scheduler_api import Scheduler


@dataclass(frozen=True)
class Deployment:
    """A fully materialised inference-server deployment.

    Attributes:
        config: the design point this deployment realises.
        profiles: profiled lookup tables of every served model, keyed by
            model name (the primary model is always present).  On
            mixed-architecture fleets these are the *primary architecture's*
            tables.
        plan: the partitioning plan produced by the configured partitioner —
            a :class:`~repro.core.plan.PartitionPlan` when the design has one
            architecture (in either spelling, on any number of servers), a
            :class:`~repro.core.plan.FleetPlan` on mixed-architecture fleets.
        instances: partition instances placed on the physical GPUs.
        scheduler: the instantiated scheduling policy.
        sla_target: the primary model's derived SLA target in seconds.
        sla_targets: per-model derived SLA targets (Section V applies the
            multiplier to *each* model's own GPU(7) latency).
        arch_profiles: per-architecture per-model tables (``architecture
            name -> model name -> table``), set only on mixed-architecture
            fleet deployments; the simulator and architecture-aware
            schedulers resolve each instance's execution estimates through
            its own architecture's table.
    """

    config: ServerConfig
    profiles: Mapping[str, ProfileTable]
    plan: Union[PartitionPlan, FleetPlan]
    instances: Sequence[PartitionInstance]
    scheduler: Scheduler
    sla_target: float
    sla_targets: Mapping[str, float]
    arch_profiles: Optional[Mapping[str, Mapping[str, ProfileTable]]] = None

    @property
    def profile(self) -> ProfileTable:
        """The primary model's profiled lookup table."""
        return self.profiles[self.config.model]

    @property
    def models(self) -> Sequence[str]:
        """Names of every model this deployment can serve."""
        return tuple(self.profiles)

    def profile_for(self, model: str) -> ProfileTable:
        """The profiled lookup table of ``model``.

        Raises:
            KeyError: when the model is not served by this deployment.
        """
        try:
            return self.profiles[model]
        except KeyError:
            raise KeyError(
                f"model {model!r} is not served by this deployment; served "
                f"models: {sorted(self.profiles)}"
            ) from None

    def sla_target_for(self, model: str) -> float:
        """The derived SLA target of ``model`` in seconds.

        Raises:
            KeyError: when the model is not served by this deployment.
        """
        try:
            return self.sla_targets[model]
        except KeyError:
            raise KeyError(
                f"model {model!r} is not served by this deployment; served "
                f"models: {sorted(self.sla_targets)}"
            ) from None

    def profile_for_architecture(self, model: str, architecture: str) -> ProfileTable:
        """The profiled table of ``model`` on a member architecture.

        Falls back to the primary architecture's table on one-architecture
        deployments (where no per-architecture tables exist).

        Raises:
            KeyError: when the model is not served by this deployment.
        """
        if self.arch_profiles is not None:
            tables = self.arch_profiles.get(architecture)
            if tables is not None and model in tables:
                return tables[model]
        return self.profile_for(model)

    def simulator(
        self,
        execution_noise_std: float = 0.0,
        seed: int = 0,
    ) -> InferenceServerSimulator:
        """Build a fresh simulator for this deployment.

        Args:
            execution_noise_std: relative log-normal execution noise.
            seed: RNG seed for the noise term.
        """
        return InferenceServerSimulator(
            instances=self.instances,
            profiles=dict(self.profiles),
            scheduler=self.scheduler,
            execution_noise_std=execution_noise_std,
            seed=seed,
            frontend_capacity_qps=self.config.frontend_capacity_qps,
            arch_profiles=(
                {name: dict(tables) for name, tables in self.arch_profiles.items()}
                if self.arch_profiles is not None
                else None
            ),
        )

    def describe(self) -> str:
        """One-line summary, e.g. ``mobilenet: paris+elsa = 6xGPU(1)+4xGPU(2)...``."""
        served = "+".join(self.models)
        return f"{served}: {self.config.label()} = {self.plan.describe()}"


def _plan_and_place(
    config: ServerConfig,
    arch_tables: Mapping[str, Mapping[str, ProfileTable]],
    batch_pdf: Dict[int, float],
) -> Tuple[Union[PartitionPlan, FleetPlan], Tuple[PartitionInstance, ...]]:
    """Run the configured partitioner over the design's fleet and pack the
    plan onto its servers.

    The one plan-construction path shared by :func:`build_deployment` and
    :func:`replan_deployment`; ``arch_tables`` maps each member
    architecture's name to its per-model tables.  ``"paris"`` partitioning
    runs :class:`~repro.core.paris.FleetParis`, which on one architecture is
    the memoized :func:`~repro.core.paris.shared_paris` planner and on
    several the heterogeneous generalisation (one global knee-segmentation
    across every ``(architecture, size)`` class).  Every other registered
    partitioner is invoked once per member architecture with that
    architecture's own profile table and budget; two or more
    per-architecture plans merge into a :class:`~repro.core.plan.FleetPlan`.
    """
    from repro.core.paris import shared_fleet_paris

    fleet = config.build_fleet()
    budgets = fleet.budgets_by_architecture()
    primary_tables = {name: arch_tables[name][config.model] for name in budgets}

    if config.partitioning == "paris":
        # a ParisSpec: the config resolved it
        planner = shared_fleet_paris(primary_tables, config.partitioner_spec)
        # A pooled budget can exceed what any one server hosts (three 6-GPC
        # servers pool 18 GPCs but cannot place a 7-GPC instance, nor can
        # one 4-GPC server) — cap the candidate sizes so the plan packs.
        size_caps: Dict[str, int] = {}
        for member in fleet.specs:
            arch = member.architecture
            cap = min(max(arch.valid_partition_sizes), member.effective_gpc_budget)
            size_caps[arch.name] = max(size_caps.get(arch.name, 0), cap)
        plan = planner.plan(dict(batch_pdf), budgets, size_caps=size_caps)
    else:
        sub_plans = {
            name: build_plan(
                config.partitioning,
                PartitionerContext(
                    profile=primary_tables[name],
                    batch_pdf=batch_pdf,
                    budget=budget,
                    config=config,
                    spec=config.partitioner_spec,
                    target_architecture=fleet.architecture_named(name),
                ),
            )
            for name, budget in budgets.items()
        }
        if len(sub_plans) == 1:
            (plan,) = sub_plans.values()
        else:
            plan = FleetPlan(
                model=config.model,
                counts={
                    (name, size): count
                    for name, sub in sub_plans.items()
                    for size, count in sub.counts.items()
                    if count > 0
                },
                budgets=dict(budgets),
                strategy=f"fleet-{config.partitioning}",
                per_architecture=sub_plans,
            )

    instances = fleet.configure(plan.counts)
    return plan, tuple(instances)


def replan_deployment(
    deployment: Deployment,
    batch_pdf: Dict[int, float],
    config: Optional[ServerConfig] = None,
) -> Deployment:
    """Re-run an existing deployment's partitioner against a new batch PDF.

    Profiles, scheduler and SLA targets are reused untouched — only the plan
    and the MIG layout change, which is exactly the paper's online
    re-partitioning step.  Used by
    :meth:`repro.serving.session.ServingSession.repartition` both mid-run
    and between runs.

    ``config`` re-targets the deployment at another fleet composition (built
    via :func:`repro.serving.config.config_with_fleet`): the control plane
    (:mod:`repro.autoscale`) added or removed whole servers and the
    partitioner re-cuts the new pool.  The SLA is a property of the
    *service*, derived once at build time, not of whatever pool happens to
    serve it right now, so only ``config``, ``plan`` and ``instances``
    change, and ``arch_profiles`` once a second architecture joins.  Tables
    of architectures the deployment already serves are reused; a new
    architecture's come from the process-wide profile cache.
    (The live simulator can only *execute* architectures present at its
    construction — the session enforces that for mid-run mutations.)

    Raises:
        ValueError: for an empty ``batch_pdf``.
    """
    if not batch_pdf:
        raise ValueError("batch_pdf must be non-empty")
    config = config or deployment.config
    known = deployment.arch_profiles or {
        deployment.config.architecture.name: deployment.profiles
    }
    new = [arch for arch in config.build_fleet().architectures if arch.name not in known]
    arch_tables = {**known, **fleet_profiles(list(config.models), new)}
    plan, instances = _plan_and_place(config, arch_tables, dict(batch_pdf))
    arch_profiles = deployment.arch_profiles
    if arch_profiles is None and len(arch_tables) > 1:
        arch_profiles = arch_tables
    return dataclasses.replace(
        deployment,
        config=config,
        plan=plan,
        instances=instances,
        arch_profiles=arch_profiles,
    )


def build_deployment(
    config: ServerConfig,
    batch_pdf: Dict[int, float],
    profile: Optional[ProfileTable] = None,
    profiler: Optional[Profiler] = None,
    profiles: Optional[Mapping[str, ProfileTable]] = None,
) -> Deployment:
    """Materialise a deployment for one design point.

    Args:
        config: the design point.  ``config.partitioning`` and
            ``config.scheduler`` are resolved against the policy registries,
            so custom registered policies are selectable by name.
        batch_pdf: batch-size PDF of the expected workload (the partitioner's
            input; also used to pick the max batch for the SLA target).
        profile: pre-built profile table of the primary model (skips
            profiling it when provided).  Takes precedence over a same-model
            entry in ``profiles`` — the explicit single-model argument is
            the more specific one.
        profiler: profiler used for any model lacking a pre-built profile;
            ``None`` takes the default sweep over the configured
            architecture from the process-wide cache
            (:func:`~repro.perf.profiler.cached_profile`).
        profiles: pre-built profile tables keyed by model name; models in
            ``config.models`` missing from the mapping are profiled.

    Returns:
        The materialised :class:`Deployment`.

    Raises:
        ValueError: for an empty ``batch_pdf``.
        UnknownPolicyError: when a policy name is not registered (the
            message lists the available policies).

    Note:
        On a **mixed-architecture** fleet every served model is profiled
        once per member architecture through the process-wide cache
        (:func:`repro.perf.profiler.cached_profile`); explicit ``profile`` /
        ``profiles`` / ``profiler`` arguments are rejected there, because a
        single-architecture table cannot answer for the whole fleet.  The
        deployment's ``profiles`` mapping then holds the *primary*
        architecture's tables and ``arch_profiles`` the full per-architecture
        set.  A design with one architecture, in either spelling, takes them.
    """
    if not batch_pdf:
        raise ValueError("batch_pdf must be non-empty")

    # per-architecture tables participate only on genuinely mixed fleets
    hetero_tables: Optional[Dict[str, Dict[str, ProfileTable]]] = None
    if config.is_heterogeneous_fleet:
        if profile is not None or profiles or profiler is not None:
            raise ValueError(
                "mixed-architecture fleets profile every (model, "
                "architecture) pair through the per-architecture cache; "
                "explicit profile/profiles/profiler arguments would be "
                "silently wrong — drop them (custom sweeps go through "
                "repro.perf.profiler.cached_profile parameters)"
            )
        hetero_tables = fleet_profiles(
            list(config.models), list(config.build_fleet().architectures)
        )
        tables = dict(hetero_tables[config.architecture.name])
    else:
        tables = dict(profiles or {})
        if profile is not None:
            tables[config.model] = profile
        missing = [name for name in config.models if name not in tables]
        if missing:
            if profiler is None:
                # the default sweep is a pure function of (model,
                # architecture), so deployments share tables through the
                # process-wide cache; a custom profiler still profiles
                # directly
                for name in missing:
                    tables[name] = cached_profile(
                        name, architecture=config.architecture
                    )
            else:
                from repro.models.registry import get_model

                for name in missing:
                    tables[name] = profiler.profile(get_model(name))
    primary = tables[config.model]
    # primary-first ordering keeps Deployment.models/describe() consistent
    # with ServerConfig.models regardless of the caller's mapping order
    tables = {config.model: primary, **tables}

    plan, instances = _plan_and_place(
        config, hetero_tables or {config.architecture.name: tables}, batch_pdf
    )
    scheduler = build_scheduler(
        config.scheduler,
        SchedulerContext(
            profile=primary,
            profiles=tables,
            config=config,
            spec=config.scheduler_spec,
            arch_profiles=hetero_tables,
        ),
    )
    sla_targets = {
        name: derive_sla_target(
            table,
            max_batch=config.max_batch,
            multiplier=config.sla_multiplier,
            reference_gpcs=config.sla_reference_gpcs,
        )
        for name, table in tables.items()
    }
    return Deployment(
        config=config,
        profiles=tables,
        plan=plan,
        instances=tuple(instances),
        scheduler=scheduler,
        sla_target=sla_targets[config.model],
        sla_targets=sla_targets,
        arch_profiles=hetero_tables,
    )
