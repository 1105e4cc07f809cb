"""Declarative server configuration.

A :class:`ServerConfig` captures one of the paper's "design points"
(Section VI): which partitioning strategy carves the GPC budget, which
scheduler routes queries, how the SLA target is derived, and how large the
server is.  The six design points compared in the evaluation are expressible
directly:

=====================  =============================  ==========
Paper design point     ``partitioning``               ``scheduler``
=====================  =============================  ==========
GPU(N) + FIFS          ``homogeneous`` (N GPCs)       ``fifs``
GPU(max) + FIFS        best homogeneous (searched)    ``fifs``
Random + FIFS          ``random``                     ``fifs``
Random + ELSA          ``random``                     ``elsa``
PARIS + FIFS           ``paris``                      ``fifs``
PARIS + ELSA           ``paris``                      ``elsa``
=====================  =============================  ==========

``partitioning`` and ``scheduler`` are **open strings** resolved against the
policy registries of :mod:`repro.core.registry`, so any policy registered
from user code is selectable here by name.  The
:class:`PartitioningStrategy` / :class:`SchedulingPolicy` enums are kept as
deprecated aliases for the built-in names; passing an enum member still
works and normalises to its string value.

Three construction styles are supported:

1. flat kwargs (the original API)::

       ServerConfig(model="resnet", partitioning="paris", knee_threshold=0.85)

2. composed specs (:mod:`repro.core.specs`)::

       ServerConfig.from_specs(
           "resnet",
           partitioner=ParisSpec(knee_threshold=0.85),
           scheduler=ElsaSpec(alpha=1.2),
           sla=SlaSpec(multiplier=2.0),
           cluster=ClusterSpec(num_gpus=8, gpc_budget=48),
       )

3. the fluent :class:`~repro.serving.builder.ServerBuilder`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from repro.core.registry import PARTITIONERS, SCHEDULERS, normalize_policy_name
from repro.core.specs import (
    PolicySpec,
    spec_flat_overrides,
    spec_policy_name,
    spec_with_flat_overrides,
)
from repro.gpu.architecture import A100, GPUArchitecture
from repro.gpu.fleet import Fleet, FleetServerSpec


class PartitioningStrategy(str, enum.Enum):
    """Deprecated alias enum for the built-in partitioner names.

    Prefer passing the registry name directly (``"paris"``, ``"homogeneous"``,
    ``"random"``, or any custom registered name).
    """

    PARIS = "paris"
    HOMOGENEOUS = "homogeneous"
    RANDOM = "random"


class SchedulingPolicy(str, enum.Enum):
    """Deprecated alias enum for the built-in scheduler names.

    Prefer passing the registry name directly (``"elsa"``, ``"fifs"``,
    ``"least-loaded"``, ``"random-dispatch"``, or any custom registered name).
    """

    ELSA = "elsa"
    FIFS = "fifs"
    LEAST_LOADED = "least-loaded"
    RANDOM = "random-dispatch"


def _concretise_policy_spec(spec: Any, canonical_name: str, kind: str) -> Any:
    """Turn a :class:`PolicySpec` naming a *built-in* policy into its typed spec.

    The typed spec keeps the flat config fields in sync with what the policy
    factory actually uses, and makes invalid options fail at config
    construction rather than at deploy time.  PolicySpecs for custom
    (externally registered) policies pass through untouched, as do typed
    specs.
    """
    if not isinstance(spec, PolicySpec):
        return spec
    from repro.core.specs import (
        PARTITIONER_SPECS,
        SCHEDULER_SPECS,
        build_builtin_spec,
    )

    builtin_specs = PARTITIONER_SPECS if kind == "partitioner" else SCHEDULER_SPECS
    spec_type = builtin_specs.get(canonical_name)
    if spec_type is None:
        return spec
    return build_builtin_spec(spec_type, canonical_name, spec.options, kind)


@dataclass(frozen=True)
class ServerConfig:
    """One inference-server design point.

    Attributes:
        model: primary DNN model served (registry name); drives the
            partitioning plan and the SLA target.
        partitioning: partitioner name in the policy registry (or a
            deprecated :class:`PartitioningStrategy` member).
        scheduler: scheduler name in the policy registry (or a deprecated
            :class:`SchedulingPolicy` member).
        extra_models: additional models co-located on the same server; their
            profiles are loaded so mixed-model traces can be served.
        gpc_budget: GPCs available to the partitioning (e.g. 24/42/48 in
            Table I).  ``None`` uses the full server.
        num_gpus: physical GPUs in the server (8 in the paper).
        homogeneous_gpcs: partition size for the homogeneous strategy.
        sla_multiplier: SLA target = multiplier x GPU(7) latency at the max
            batch size (1.5 default, 2.0 in the sensitivity study).
        sla_reference_gpcs: partition size of the SLA reference device.
        max_batch: maximum batch size of the workload distribution.
        alpha / beta: ELSA slack-predictor coefficients.
        knee_threshold: PARIS utilization knee threshold.
        random_seed: seed for the random partitioning strategy.
        architecture: physical GPU architecture.
        frontend_capacity_qps: maximum dispatch rate of the server frontend
            in queries/second; ``None`` means the frontend is never the
            bottleneck.
        partitioner_spec: per-policy spec object handed to the partitioner
            factory (overrides the flat fields above when set).
        scheduler_spec: per-policy spec object handed to the scheduler
            factory (overrides the flat fields above when set).
        fleet: optional fleet description — a sequence of
            :class:`~repro.gpu.fleet.FleetServerSpec` (or ``(num_gpus,
            architecture[, gpc_budget])`` tuples) composing possibly
            mixed-architecture servers into one GPC pool.  When set, the
            flat ``num_gpus`` / ``architecture`` / ``gpc_budget`` fields
            are derived from the fleet (total GPUs, the first server's
            architecture, the summed per-server budgets); setting
            ``gpc_budget`` explicitly alongside a fleet is ambiguous and
            raises.  Single-architecture fleets deploy bit-identically to
            the equivalent flat configuration.
    """

    model: str
    partitioning: Union[str, PartitioningStrategy] = "paris"
    scheduler: Union[str, SchedulingPolicy] = "elsa"
    gpc_budget: Optional[int] = None
    num_gpus: int = 8
    homogeneous_gpcs: int = 7
    sla_multiplier: float = 1.5
    max_batch: int = 32
    alpha: float = 1.0
    beta: float = 1.0
    knee_threshold: float = 0.8
    random_seed: int = 0
    architecture: GPUArchitecture = A100
    frontend_capacity_qps: Optional[float] = None
    extra_models: Tuple[str, ...] = ()
    sla_reference_gpcs: int = 7
    partitioner_spec: Any = None
    scheduler_spec: Any = None
    fleet: Optional[Tuple[FleetServerSpec, ...]] = None

    def __post_init__(self) -> None:
        if self.fleet is not None:
            raw = self.fleet
            if isinstance(raw, (FleetServerSpec,)):
                raw = (raw,)
            specs = tuple(FleetServerSpec.coerce(server) for server in raw)
            if not specs:
                raise ValueError("fleet must name at least one server")
            if self.gpc_budget is not None:
                raise ValueError(
                    "gpc_budget cannot be combined with a fleet; set "
                    "per-server budgets on the FleetServerSpecs instead"
                )
            object.__setattr__(self, "fleet", specs)
            # Derive the flat shape fields so downstream consumers that only
            # know the flat surface stay coherent: total GPUs, the primary
            # (first server's) architecture, and the summed budget.
            object.__setattr__(
                self, "num_gpus", sum(spec.num_gpus for spec in specs)
            )
            object.__setattr__(self, "architecture", specs[0].architecture)
            object.__setattr__(
                self,
                "gpc_budget",
                sum(spec.effective_gpc_budget for spec in specs),
            )
        # normalise AND canonicalise (resolve registry aliases, e.g.
        # scheduler "random" -> "random-dispatch") so equal design points
        # compare equal and label identically however they were spelled
        object.__setattr__(
            self,
            "partitioning",
            PARTITIONERS.canonical(
                normalize_policy_name(self.partitioning, "partitioning")
            ),
        )
        object.__setattr__(
            self,
            "scheduler",
            SCHEDULERS.canonical(
                normalize_policy_name(self.scheduler, "scheduler")
            ),
        )
        if isinstance(self.extra_models, str):
            raise TypeError(
                "extra_models must be a sequence of model names, not a bare "
                f"string; did you mean extra_models=({self.extra_models!r},)?"
            )
        object.__setattr__(self, "extra_models", tuple(self.extra_models))
        if not self.model:
            raise ValueError("model must be non-empty")
        if any(not m for m in self.extra_models):
            raise ValueError("extra_models must be non-empty names")
        if self.num_gpus <= 0:
            raise ValueError("num_gpus must be positive")
        if self.gpc_budget is not None and self.gpc_budget <= 0:
            raise ValueError("gpc_budget must be positive when set")
        if self.fleet is not None:
            # On a fleet the homogeneous size only matters to the homogeneous
            # partitioner — which runs once per member architecture, so the
            # size must be valid on *every* member (the union would accept
            # configs that crash at deploy time).  The default SLA reference
            # — "the largest partition" — resolves to the primary
            # architecture's largest valid size when GPU(7) does not exist
            # on it (e.g. a 4-GPC A30 primary).
            if self.partitioning == "homogeneous":
                common = set(self.fleet[0].architecture.valid_partition_sizes)
                for spec in self.fleet[1:]:
                    common &= set(spec.architecture.valid_partition_sizes)
                if self.homogeneous_gpcs not in common:
                    raise ValueError(
                        f"homogeneous_gpcs={self.homogeneous_gpcs} is not a "
                        f"valid partition size on every fleet architecture "
                        f"(common sizes: {sorted(common)})"
                    )
            if self.sla_reference_gpcs not in self.architecture.valid_partition_sizes:
                largest = max(self.architecture.valid_partition_sizes)
                if self.sla_reference_gpcs == 7:
                    object.__setattr__(self, "sla_reference_gpcs", largest)
                else:
                    raise ValueError(
                        f"sla_reference_gpcs={self.sla_reference_gpcs} is not "
                        f"a valid partition size of the fleet's primary "
                        f"architecture {self.architecture.name}"
                    )
        else:
            if self.homogeneous_gpcs not in self.architecture.valid_partition_sizes:
                raise ValueError(
                    f"homogeneous_gpcs={self.homogeneous_gpcs} is not a valid "
                    f"partition size of {self.architecture.name}"
                )
            if self.sla_reference_gpcs not in self.architecture.valid_partition_sizes:
                raise ValueError(
                    f"sla_reference_gpcs={self.sla_reference_gpcs} is not a valid "
                    f"partition size of {self.architecture.name}"
                )
        if self.sla_multiplier <= 0:
            raise ValueError("sla_multiplier must be positive")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.frontend_capacity_qps is not None and self.frontend_capacity_qps <= 0:
            raise ValueError("frontend_capacity_qps must be positive when set")

    # ------------------------------------------------------------------ #
    # construction from composed specs
    # ------------------------------------------------------------------ #
    @classmethod
    def from_specs(
        cls,
        model: str,
        partitioner: Any = "paris",
        scheduler: Any = "elsa",
        *,
        sla: Any = None,
        cluster: Any = None,
        extra_models: Sequence[str] = (),
        **overrides: Any,
    ) -> "ServerConfig":
        """Compose a config from per-policy spec objects.

        Args:
            model: primary model name.
            partitioner: a partitioner spec (e.g. :class:`ParisSpec
                <repro.core.specs.ParisSpec>`), or a policy name string.
            scheduler: a scheduler spec (e.g. :class:`ElsaSpec
                <repro.core.specs.ElsaSpec>`), or a policy name string.
            sla: optional :class:`~repro.core.specs.SlaSpec`.
            cluster: optional :class:`~repro.core.specs.ClusterSpec`.
            extra_models: additional co-located models.
            overrides: any remaining flat :class:`ServerConfig` kwargs; they
                win over values derived from the specs.

        Returns:
            The composed (still frozen, still flat-compatible) config.
        """
        reserved = {
            "model": "the first positional argument",
            "partitioning": "the 'partitioner' argument",
            "scheduler": "the 'scheduler' argument",
            "extra_models": "the 'extra_models' argument",
            "partitioner_spec": "the 'partitioner' argument",
            "scheduler_spec": "the 'scheduler' argument",
        }
        clashes = sorted(set(overrides) & set(reserved))
        if clashes:
            hints = "; ".join(f"set {k!r} via {reserved[k]}" for k in clashes)
            raise ValueError(
                f"override(s) {clashes} collide with from_specs parameters: {hints}"
            )
        if isinstance(extra_models, str):
            raise TypeError(
                "extra_models must be a sequence of model names, not a bare "
                f"string; did you mean extra_models=({extra_models!r},)?"
            )
        kwargs: Dict[str, Any] = {}
        partitioner_spec = scheduler_spec = None

        if isinstance(partitioner, (str, enum.Enum)):
            partitioning = normalize_policy_name(partitioner, "partitioning")
        else:
            partitioning = normalize_policy_name(
                spec_policy_name(partitioner), "partitioning"
            )
            partitioner_spec = _concretise_policy_spec(
                partitioner, PARTITIONERS.canonical(partitioning), "partitioner"
            )
            kwargs.update(spec_flat_overrides(partitioner_spec))

        if isinstance(scheduler, (str, enum.Enum)):
            scheduler_name = normalize_policy_name(scheduler, "scheduler")
        else:
            scheduler_name = normalize_policy_name(
                spec_policy_name(scheduler), "scheduler"
            )
            scheduler_spec = _concretise_policy_spec(
                scheduler, SCHEDULERS.canonical(scheduler_name), "scheduler"
            )
            kwargs.update(spec_flat_overrides(scheduler_spec))

        from repro.core.specs import ClusterSpec, SlaSpec

        for arg_name, spec, expected in (
            ("sla", sla, SlaSpec),
            ("cluster", cluster, ClusterSpec),
        ):
            if spec is not None:
                if not isinstance(spec, expected):
                    raise TypeError(
                        f"{arg_name}= expects a {expected.__name__}(...), "
                        f"got {type(spec).__name__}"
                    )
                kwargs.update(spec_flat_overrides(spec))

        valid = {f.name for f in fields(cls)}
        unknown = sorted(set(kwargs) - valid)
        if unknown:
            raise ValueError(
                f"spec maps onto unknown ServerConfig fields {unknown}"
            )
        kwargs.update(overrides)
        # Explicit flat overrides win over the specs — including inside the
        # spec objects themselves, which the policy factories read first.
        # A PolicySpec's options cannot be rewritten that way (their names
        # are policy-defined), so a collision there is ambiguous and raises.
        for spec in (partitioner_spec, scheduler_spec):
            if isinstance(spec, PolicySpec):
                clashes = sorted(set(spec.options) & set(overrides))
                if clashes:
                    raise ValueError(
                        f"{clashes} set both in PolicySpec({spec.policy!r}) "
                        "options and as flat overrides; configure each "
                        "tunable in one place"
                    )
        if partitioner_spec is not None:
            partitioner_spec = spec_with_flat_overrides(partitioner_spec, overrides)
        if scheduler_spec is not None:
            scheduler_spec = spec_with_flat_overrides(scheduler_spec, overrides)
        return cls(
            model=model,
            partitioning=partitioning,
            scheduler=scheduler_name,
            extra_models=tuple(extra_models),
            partitioner_spec=partitioner_spec,
            scheduler_spec=scheduler_spec,
            **kwargs,
        )

    # ------------------------------------------------------------------ #
    # derived views
    # ------------------------------------------------------------------ #
    @property
    def models(self) -> Tuple[str, ...]:
        """All served models: the primary first, then the extras (deduped)."""
        seen = {self.model: None}
        for name in self.extra_models:
            seen.setdefault(name, None)
        return tuple(seen)

    @property
    def effective_gpc_budget(self) -> int:
        """The GPC budget actually used (full server if none was set)."""
        if self.gpc_budget is not None:
            return self.gpc_budget
        return self.num_gpus * self.architecture.gpc_count

    @property
    def is_fleet(self) -> bool:
        """True when this design deploys onto an explicit fleet."""
        return self.fleet is not None

    @property
    def is_heterogeneous_fleet(self) -> bool:
        """True when the fleet mixes two or more GPU architectures."""
        if self.fleet is None:
            return False
        return len({spec.architecture.name for spec in self.fleet}) > 1

    def build_fleet(self) -> Fleet:
        """Materialise the configured :class:`~repro.gpu.fleet.Fleet`.

        Raises:
            ValueError: when no fleet was configured.
        """
        if self.fleet is None:
            raise ValueError(
                "this config has no fleet; set ServerConfig(fleet=...) or "
                "use ServerBuilder.fleet()"
            )
        return Fleet(list(self.fleet))

    def label(self) -> str:
        """Readable design-point label, e.g. ``paris+elsa`` or ``gpu(3)+fifs``."""
        if self.partitioning == "homogeneous":
            left = f"gpu({self.homogeneous_gpcs})"
        else:
            left = self.partitioning
        return f"{left}+{self.scheduler}"


def config_with_fleet(
    template: ServerConfig, servers: Sequence
) -> ServerConfig:
    """``template`` re-targeted at a different fleet composition.

    Every policy knob (model, partitioning, scheduler, SLA derivation, …)
    carries over; only the fleet — and the shape fields ``num_gpus`` /
    ``architecture`` / ``gpc_budget`` derived from it — changes.  This is
    the one sanctioned way the control plane (autoscaler, preemptions,
    capacity planner) and the daemon's quota carving mutate a design's
    fleet: going through the constructor re-runs every validation.

    Args:
        template: the config to re-target.
        servers: the new fleet — :class:`~repro.gpu.fleet.FleetServerSpec`
            objects or ``(num_gpus, architecture[, gpc_budget])`` tuples.

    Returns:
        A new frozen config deploying onto ``servers``.
    """
    import dataclasses

    specs = tuple(FleetServerSpec.coerce(server) for server in servers)
    if not specs:
        raise ValueError("the new fleet must name at least one server")
    return dataclasses.replace(template, fleet=specs, gpc_budget=None)
