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
from user code is selectable here by name.

Each policy tunable lives in its policy's spec (:mod:`repro.core.specs`),
stored as ``partitioner_spec`` / ``scheduler_spec``.  The three construction
forms give equal configs for one design point:

1. the constructor::

       ServerConfig(model="resnet", partitioner_spec=ParisSpec(knee_threshold=0.85))

2. composed specs::

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

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from repro.core.registry import PARTITIONERS, SCHEDULERS, normalize_policy_name
from repro.core.specs import ClusterSpec, SlaSpec, resolve_policy_spec, spec_policy_name
from repro.gpu.architecture import A100, GPUArchitecture
from repro.gpu.fleet import Fleet, FleetServerSpec


def _policy_selection(policy: Any) -> Tuple[str, Any]:
    """A policy selector — a registry name or a spec object — as
    ``(name, spec)``; a bare name selects no spec."""
    if isinstance(policy, str):
        return policy, None
    return spec_policy_name(policy), policy


@dataclass(frozen=True)
class ServerConfig:
    """One inference-server design point.

    Attributes:
        model: primary DNN model served (registry name); drives the
            partitioning plan and the SLA target.
        partitioning: partitioner name in the policy registry.
        scheduler: scheduler name in the policy registry.
        extra_models: additional models co-located on the same server; their
            profiles are loaded so mixed-model traces can be served.
        gpc_budget: GPCs available to the partitioning (e.g. 24/42/48 in
            Table I).  ``None`` uses the full server.
        num_gpus: physical GPUs in the server (8 in the paper).
        sla_multiplier: SLA target = multiplier x GPU(7) latency at the max
            batch size (1.5 default, 2.0 in the sensitivity study).
        sla_reference_gpcs: partition size of the SLA reference device.  The
            default 7 resolves to the (primary) architecture's largest
            partition size where GPU(7) does not exist (e.g. a 4-GPC A30).
        max_batch: maximum batch size of the workload distribution.
        random_seed: the design's seed, used by every stochastic policy
            whose spec leaves ``seed=None``.
        architecture: physical GPU architecture.
        frontend_capacity_qps: maximum dispatch rate of the server frontend
            in queries/second; ``None`` means the frontend is never the
            bottleneck.
        partitioner_spec: the partitioner's spec, the only home of its
            tunables (e.g. :class:`~repro.core.specs.ParisSpec`).  For a
            built-in partitioner it is always its typed spec: ``None``
            becomes the defaults and a
            :class:`~repro.core.specs.PolicySpec` is converted, see
            :func:`~repro.core.specs.resolve_policy_spec`.
        scheduler_spec: the scheduler's spec, resolved the same way.
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
    partitioning: str = "paris"
    scheduler: str = "elsa"
    gpc_budget: Optional[int] = None
    num_gpus: int = 8
    sla_multiplier: float = 1.5
    max_batch: int = 32
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
        # scheduler "random" -> "random-dispatch") and resolve each built-in
        # policy's typed spec, so equal design points compare equal and
        # label identically however they were spelled
        partitioning = PARTITIONERS.canonical(
            normalize_policy_name(self.partitioning, "partitioning")
        )
        scheduler = SCHEDULERS.canonical(
            normalize_policy_name(self.scheduler, "scheduler")
        )
        object.__setattr__(self, "partitioning", partitioning)
        object.__setattr__(self, "scheduler", scheduler)
        object.__setattr__(
            self,
            "partitioner_spec",
            resolve_policy_spec("partitioner", partitioning, self.partitioner_spec),
        )
        object.__setattr__(
            self,
            "scheduler_spec",
            resolve_policy_spec("scheduler", scheduler, self.scheduler_spec),
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
        if self.partitioning == "homogeneous":
            # the homogeneous partitioner runs once per member architecture
            # on a fleet, so its size must be valid on every member (the
            # union would accept configs that crash at deploy time)
            members = [s.architecture for s in self.fleet] if self.fleet else [self.architecture]
            common = set.intersection(*(set(a.valid_partition_sizes) for a in members))
            gpcs = self.partitioner_spec.gpcs
            if gpcs not in common:
                where = "every fleet architecture" if self.fleet else self.architecture.name
                raise ValueError(
                    f"HomogeneousSpec(gpcs={gpcs}) is not a valid partition "
                    f"size on {where} (valid sizes: {sorted(common)})"
                )
        # the default reference GPU(7) means "the largest partition": where
        # the (primary) architecture has no 7-GPC size, its largest is used
        valid = self.architecture.valid_partition_sizes
        if self.sla_reference_gpcs not in valid:
            if self.sla_reference_gpcs != 7:
                raise ValueError(
                    f"sla_reference_gpcs={self.sla_reference_gpcs} is not a "
                    f"valid partition size of {self.architecture.name}"
                )
            object.__setattr__(self, "sla_reference_gpcs", max(valid))
        if not 0 < self.sla_multiplier < math.inf:
            raise ValueError(
                f"sla_multiplier must be positive and finite, got {self.sla_multiplier}"
            )
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.frontend_capacity_qps is not None and not (
            0 < self.frontend_capacity_qps < math.inf
        ):
            raise ValueError(
                "frontend_capacity_qps must be positive and finite when set, "
                f"got {self.frontend_capacity_qps}"
            )

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
            overrides: any remaining :class:`ServerConfig` fields; they win
                over the values of ``sla`` and ``cluster``.

        Returns:
            The composed (frozen) config.

        Raises:
            ValueError: for an override of a from_specs parameter.
            TypeError: for an override that is no config field.
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
        _check_flat_fields(overrides, reserved)
        kwargs: Dict[str, Any] = {}
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
                kwargs.update(spec.flat_overrides())
        kwargs.update(overrides)
        partitioning, partitioner_spec = _policy_selection(partitioner)
        scheduler_name, scheduler_spec = _policy_selection(scheduler)
        return cls(
            model=model,
            partitioning=partitioning,
            scheduler=scheduler_name,
            extra_models=extra_models,
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
            left = f"gpu({self.partitioner_spec.gpcs})"
        else:
            left = self.partitioning
        return f"{left}+{self.scheduler}"


def _check_flat_fields(names: Iterable[str], reserved: Iterable[str]) -> None:
    """Reject ``names`` that are not :class:`ServerConfig` fields.

    Raises:
        TypeError: listing the valid fields (those not in ``reserved``).
    """
    fields = {f.name for f in dataclasses.fields(ServerConfig)}
    unknown = sorted(set(names) - fields)
    if unknown:
        raise TypeError(
            f"unknown ServerConfig field(s) {unknown}; valid fields: "
            f"{sorted(fields - set(reserved))}.  Policy tunables live in "
            "their policy's spec, e.g. ParisSpec(knee_threshold=...)"
        )


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
    specs = tuple(FleetServerSpec.coerce(server) for server in servers)
    if not specs:
        raise ValueError("the new fleet must name at least one server")
    return dataclasses.replace(template, fleet=specs, gpc_budget=None)
