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
stored as ``partitioner_spec`` / ``scheduler_spec``.  The constructor is the
one way to spell a design point; a typed spec and
:class:`~repro.core.specs.PolicySpec` options give equal configs::

    ServerConfig("resnet", partitioner_spec=ParisSpec(knee_threshold=0.85))
    ServerConfig("resnet", partitioner_spec=PolicySpec("paris", {"knee_threshold": 0.85}))

A variant of a design point is ``dataclasses.replace(config, ...)``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple

from repro.core.registry import PARTITIONERS, SCHEDULERS
from repro.core.specs import resolve_policy_spec
from repro.gpu.architecture import A100, GPUArchitecture, get_architecture
from repro.gpu.fleet import Fleet, FleetServerSpec
from repro.registry import check_count, normalize_policy_name


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
        num_gpus: physical GPUs in the server; ``None`` (the default) is
            the paper's 8, or the fleet's total when a fleet is set.
        sla_multiplier: SLA target = multiplier x GPU(7) latency at the max
            batch size (1.5 default, 2.0 in the sensitivity study).
        sla_reference_gpcs: partition size of the SLA reference device.  The
            default 7 resolves to the (primary) architecture's largest
            partition size where GPU(7) does not exist (e.g. a 4-GPC A30).
        max_batch: maximum batch size of the workload distribution.
        random_seed: the design's seed, used by every stochastic policy
            whose spec leaves ``seed=None``.
        architecture: physical GPU architecture, a
            :class:`~repro.gpu.architecture.GPUArchitecture` or a preset name
            (``"a30"``) resolved by
            :func:`~repro.gpu.architecture.get_architecture`; ``None`` (the
            default) is A100, or the first fleet server's architecture.
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
            architecture, the summed per-server budgets).  An explicit value
            that differs from the derived one raises; an equal one is
            accepted, so a fleet config round-trips through
            ``dataclasses.replace``.  Without a fleet the design is a fleet
            of one server, ``(num_gpus, architecture, gpc_budget)``: both
            spellings deploy through one path (:meth:`build_fleet`), so
            ``ServerConfig(m, num_gpus=n, gpc_budget=b)`` and
            ``ServerConfig(m, fleet=[(n, "a100", b)])`` plan, place and
            replay identically.
    """

    model: str
    partitioning: str = "paris"
    scheduler: str = "elsa"
    gpc_budget: Optional[int] = None
    num_gpus: Optional[int] = None
    sla_multiplier: float = 1.5
    max_batch: int = 32
    random_seed: int = 0
    architecture: Optional[GPUArchitecture] = None
    frontend_capacity_qps: Optional[float] = None
    extra_models: Tuple[str, ...] = ()
    sla_reference_gpcs: int = 7
    partitioner_spec: Any = None
    scheduler_spec: Any = None
    fleet: Optional[Tuple[FleetServerSpec, ...]] = None

    def __post_init__(self) -> None:
        if self.architecture is not None:
            object.__setattr__(self, "architecture", get_architecture(self.architecture))
        if self.fleet is not None:
            raw = self.fleet
            if isinstance(raw, (FleetServerSpec,)):
                raw = (raw,)
            specs = tuple(FleetServerSpec.coerce(server) for server in raw)
            if not specs:
                raise ValueError("fleet must name at least one server")
            object.__setattr__(self, "fleet", specs)
            # Derive the flat shape fields so downstream consumers that only
            # know the flat surface stay coherent: total GPUs, the primary
            # (first server's) architecture, and the summed budget.
            derived = (
                ("num_gpus", sum(spec.num_gpus for spec in specs), ""),
                ("architecture", specs[0].architecture, ""),
                (
                    "gpc_budget",
                    sum(spec.effective_gpc_budget for spec in specs),
                    "set per-server budgets on the FleetServerSpecs instead; ",
                ),
            )
            for name, value, hint in derived:
                given = getattr(self, name)
                if given is not None and given != value:
                    raise ValueError(
                        f"{name} cannot be combined with a fleet; {hint}the "
                        f"fleet derives {getattr(value, 'name', value)}, got "
                        f"{getattr(given, 'name', given)}"
                    )
                object.__setattr__(self, name, value)
        else:
            if self.num_gpus is None:
                object.__setattr__(self, "num_gpus", 8)
            if self.architecture is None:
                object.__setattr__(self, "architecture", A100)
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
        check_count(self.num_gpus, "num_gpus must be positive and integral")
        if self.gpc_budget is not None:
            check_count(self.gpc_budget, "gpc_budget must be positive when set and integral")
            if self.fleet is None:
                # the one-server fleet this design deploys onto refuses a
                # budget above its physical capacity
                FleetServerSpec(self.num_gpus, self.architecture, self.gpc_budget)
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
        check_count(self.max_batch, "max_batch must be >= 1 and integral")
        if self.frontend_capacity_qps is not None and not (
            0 < self.frontend_capacity_qps < math.inf
        ):
            raise ValueError(
                "frontend_capacity_qps must be positive and finite when set, "
                f"got {self.frontend_capacity_qps}"
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
    def is_heterogeneous_fleet(self) -> bool:
        """True when the fleet mixes two or more GPU architectures."""
        if self.fleet is None:
            return False
        return len({spec.architecture.name for spec in self.fleet}) > 1

    def build_fleet(self) -> Fleet:
        """Materialise the :class:`~repro.gpu.fleet.Fleet` this design
        deploys onto: the configured fleet, or a fleet of one server with
        the flat ``num_gpus`` / ``architecture`` / ``gpc_budget``."""
        servers = self.fleet or ((self.num_gpus, self.architecture, self.gpc_budget),)
        return Fleet(list(servers))

    def label(self) -> str:
        """Readable design-point label, e.g. ``paris+elsa`` or ``gpu(3)+fifs``."""
        if self.partitioning == "homogeneous":
            left = f"gpu({self.partitioner_spec.gpcs})"
        else:
            left = self.partitioning
        return f"{left}+{self.scheduler}"


def config_with_fleet(
    template: ServerConfig, servers: Sequence
) -> ServerConfig:
    """``template`` re-targeted at a different fleet composition.

    Every policy knob (model, partitioning, scheduler, SLA derivation, …)
    carries over; only the fleet — and the shape fields ``num_gpus`` /
    ``architecture`` / ``gpc_budget`` derived from it — changes.  A
    reference size equal to the template's largest partition (the resolved
    default) becomes the new primary architecture's largest partition.  This is
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
    reference = template.sla_reference_gpcs
    if reference == max(template.architecture.valid_partition_sizes):
        # the template's largest partition, resolved again for the new
        # primary; an explicitly chosen smaller reference carries over
        reference = max(specs[0].architecture.valid_partition_sizes)
    return dataclasses.replace(
        template,
        fleet=specs,
        num_gpus=None,
        gpc_budget=None,
        architecture=None,
        sla_reference_gpcs=reference,
    )
