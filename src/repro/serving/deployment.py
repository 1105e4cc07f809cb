"""Deployment construction: configuration -> concrete server.

:func:`build_deployment` takes a :class:`~repro.serving.config.ServerConfig`,
profiles the served models (or accepts pre-built profiles), looks the
configured partitioner and scheduler up in the policy registries of
:mod:`repro.core.registry`, packs the resulting instances onto the physical
GPUs and instantiates the scheduler — everything needed to hand a
ready-to-run :class:`~repro.sim.cluster.InferenceServerSimulator` to the
caller.

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
from repro.gpu.server import MultiGPUServer
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
            model name (the primary model is always present).  On fleet
            deployments these are the *primary architecture's* tables.
        plan: the partitioning plan produced by the configured partitioner —
            a :class:`~repro.core.plan.PartitionPlan` on single servers, a
            :class:`~repro.core.plan.FleetPlan` on fleet deployments.
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

        Falls back to the primary architecture's table on single-server
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
    profile: ProfileTable,
    batch_pdf: Dict[int, float],
    arch_tables: Optional[Mapping[str, Mapping[str, ProfileTable]]] = None,
):
    """Run the configured partitioner and pack the plan onto the server.

    The one plan-construction path shared by :func:`build_deployment` and
    :func:`replan_deployment`.  Fleet configs route through
    :func:`_plan_and_place_fleet`.
    """
    if config.fleet is not None:
        return _plan_and_place_fleet(config.build_fleet(), config, batch_pdf, arch_tables)
    plan = build_plan(
        config.partitioning,
        PartitionerContext(
            profile=profile,
            batch_pdf=batch_pdf,
            budget=config.effective_gpc_budget,
            config=config,
            spec=config.partitioner_spec,
        ),
    )
    server = MultiGPUServer(
        num_gpus=config.num_gpus,
        architecture=config.architecture,
        gpc_budget=config.gpc_budget,
    )
    instances = server.configure(plan.counts)
    return plan, tuple(instances)


def _fleet_tables(fleet, models) -> Dict[str, Dict[str, ProfileTable]]:
    """Per-architecture per-model tables of a fleet (process-cached)."""
    return fleet_profiles(list(models), list(fleet.architectures))


def _plan_and_place_fleet(
    fleet,
    config: ServerConfig,
    batch_pdf: Dict[int, float],
    arch_tables: Optional[Mapping[str, Mapping[str, ProfileTable]]] = None,
) -> Tuple[FleetPlan, Tuple[PartitionInstance, ...]]:
    """Plan the fleet's per-architecture budgets and pack the instances.

    ``"paris"`` partitioning runs the heterogeneous
    :class:`~repro.core.paris.FleetParis` generalisation (one global
    knee-segmentation across every ``(architecture, size)`` class); every
    other registered partitioner is invoked once per member architecture
    with that architecture's own profile table and budget, and the
    per-architecture plans are merged.
    """
    from repro.core.paris import shared_fleet_paris

    budgets = fleet.budgets_by_architecture()
    if arch_tables is None:
        arch_tables = _fleet_tables(fleet, config.models)
    primary_tables = {
        name: tables[config.model] for name, tables in arch_tables.items()
    }

    if config.partitioning == "paris":
        # a ParisSpec: the config resolved it
        planner = shared_fleet_paris(primary_tables, config.partitioner_spec)
        # An architecture's pooled budget can exceed what any one of its
        # servers hosts (three 6-GPC servers pool 18 GPCs but cannot place
        # a 7-GPC instance) — cap the candidate sizes so the plan packs.
        size_caps: Dict[str, int] = {}
        for member in fleet.specs:
            arch = member.architecture
            cap = min(max(arch.valid_partition_sizes), member.effective_gpc_budget)
            size_caps[arch.name] = max(size_caps.get(arch.name, 0), cap)
        plan = planner.plan(dict(batch_pdf), budgets, size_caps=size_caps)
    else:
        counts: Dict[Tuple[str, int], int] = {}
        sub_plans: Dict[str, PartitionPlan] = {}
        for name, budget in budgets.items():
            sub = build_plan(
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
            sub_plans[name] = sub
            for size, count in sub.counts.items():
                if count > 0:
                    counts[(name, size)] = count
        plan = FleetPlan(
            model=config.model,
            counts=counts,
            budgets=dict(budgets),
            strategy=f"fleet-{config.partitioning}",
            per_architecture=sub_plans,
        )

    instances = fleet.configure(plan.counts)
    return plan, tuple(instances)


def replan_deployment(
    deployment: Deployment, batch_pdf: Dict[int, float]
) -> Deployment:
    """Re-run an existing deployment's partitioner against a new batch PDF.

    Profiles, scheduler and SLA targets are reused untouched — only the plan
    and the MIG layout change, which is exactly the paper's online
    re-partitioning step.  Used by
    :meth:`repro.serving.session.ServingSession.repartition` both mid-run
    and between runs.  Fleet deployments replan across their
    per-architecture budgets (per-architecture tables come from the
    process-wide profile cache, so no re-profiling happens).

    Raises:
        ValueError: for an empty ``batch_pdf``.
    """
    if not batch_pdf:
        raise ValueError("batch_pdf must be non-empty")
    plan, instances = _plan_and_place(
        deployment.config,
        deployment.profile,
        dict(batch_pdf),
        arch_tables=deployment.arch_profiles,
    )
    return dataclasses.replace(deployment, plan=plan, instances=instances)


def refleet_deployment(
    deployment: Deployment,
    config: ServerConfig,
    batch_pdf: Dict[int, float],
) -> Deployment:
    """Re-plan an existing fleet deployment onto a mutated fleet.

    The fleet-elasticity counterpart of :func:`replan_deployment`: the
    control plane (:mod:`repro.autoscale`) added or removed whole servers,
    producing ``config`` (built via
    :func:`repro.serving.config.config_with_fleet`), and the partitioner
    must re-cut the new pool.  Scheduler, profiles and SLA targets are
    reused untouched — the SLA is a property of the *service*, derived
    once at build time, not of whatever pool happens to serve it right
    now — so only ``config``, ``plan`` and ``instances`` change.

    Per-architecture tables are reused when the mutated fleet's
    architectures are already covered; a genuinely new architecture fetches
    through the process-wide profile cache.  (Note the live simulator can
    only *execute* architectures present at its construction — the session
    enforces that for mid-run mutations.)

    Raises:
        ValueError: for an empty ``batch_pdf`` or a non-fleet ``config``.
    """
    if not batch_pdf:
        raise ValueError("batch_pdf must be non-empty")
    if config.fleet is None:
        raise ValueError("refleet_deployment requires a fleet config")
    fleet = config.build_fleet()
    names = {spec.architecture.name for spec in config.fleet}
    if deployment.arch_profiles is not None and names <= set(
        deployment.arch_profiles
    ):
        arch_tables: Mapping[str, Mapping[str, ProfileTable]] = (
            deployment.arch_profiles
        )
    else:
        arch_tables = _fleet_tables(fleet, config.models)
    plan, instances = _plan_and_place_fleet(fleet, config, dict(batch_pdf), arch_tables)
    arch_profiles = deployment.arch_profiles
    if arch_profiles is None and len(names) > 1:
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
        On **fleet** configs every served model is profiled once per member
        architecture through the process-wide cache
        (:func:`repro.perf.profiler.cached_profile`); explicit ``profile`` /
        ``profiles`` / ``profiler`` arguments are rejected there, because a
        single-architecture table cannot answer for the whole fleet.  The
        deployment's ``profiles`` mapping then holds the *primary*
        architecture's tables and ``arch_profiles`` the full per-architecture
        set.
    """
    if not batch_pdf:
        raise ValueError("batch_pdf must be non-empty")

    arch_tables: Optional[Dict[str, Dict[str, ProfileTable]]] = None
    fleet = None
    if config.fleet is not None:
        if profile is not None or profiles or profiler is not None:
            raise ValueError(
                "fleet configs profile every (model, architecture) pair "
                "through the per-architecture cache; explicit profile/"
                "profiles/profiler arguments would be silently wrong — "
                "drop them (custom sweeps go through "
                "repro.perf.profiler.cached_profile parameters)"
            )
        fleet = config.build_fleet()
        arch_tables = _fleet_tables(fleet, config.models)
        primary_arch = config.architecture.name
        tables = dict(arch_tables[primary_arch])
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

    if fleet is not None:
        plan, instances = _plan_and_place_fleet(fleet, config, batch_pdf, arch_tables)
    else:
        plan, instances = _plan_and_place(config, primary, batch_pdf)

    # per-architecture tables participate only on genuinely mixed fleets;
    # a single-architecture fleet behaves (bit-for-bit) like a flat server
    hetero_tables = (
        arch_tables if arch_tables is not None and len(arch_tables) > 1 else None
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
