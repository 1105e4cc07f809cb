"""Composable per-policy configuration specs.

The monolithic :class:`~repro.serving.config.ServerConfig` grew one flat
keyword argument per policy tunable (``knee_threshold`` for PARIS, ``alpha`` /
``beta`` for ELSA, ...).  That stays supported, but the preferred surface is
now a small spec object per policy:

* partitioners — :class:`ParisSpec`, :class:`HomogeneousSpec`,
  :class:`RandomPartitionSpec`;
* schedulers — :class:`ElsaSpec`, :class:`FifsSpec`, :class:`LeastLoadedSpec`,
  :class:`RandomDispatchSpec`;
* cross-cutting — :class:`SlaSpec` (SLA derivation) and :class:`ClusterSpec`
  (physical server shape);
* third-party policies — :class:`PolicySpec`, an open name + options bag.

Specs compose through :meth:`ServerConfig.from_specs
<repro.serving.config.ServerConfig.from_specs>` or the fluent
:class:`~repro.serving.builder.ServerBuilder`, and are handed verbatim to the
registered policy factory (:mod:`repro.core.registry`) at deployment time, so
a custom partitioner can define its own spec type with arbitrary fields.

Every built-in spec knows

* ``policy`` — the registry name it selects, and
* ``flat_overrides()`` — the legacy flat ``ServerConfig`` kwargs it maps onto
  (kept in sync so old code reading ``config.alpha`` still sees the truth);
* ``from_config(config)`` — the reverse direction, used by the registry
  factories when a deployment was configured through flat kwargs only.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Mapping, Optional, Sequence

from repro.core.knee import DEFAULT_KNEE_THRESHOLD
from repro.gpu.architecture import A100, GPUArchitecture


def spec_policy_name(spec: Any) -> str:
    """The registry name a spec object selects.

    Works for built-in specs (class-level ``policy``), :class:`PolicySpec`
    (instance field) and any third-party object exposing ``policy``.
    """
    name = getattr(spec, "policy", None)
    if not name:
        raise TypeError(
            f"{type(spec).__name__} does not name a policy; give it a "
            "'policy' attribute or use PolicySpec(policy=..., options=...)"
        )
    return str(name)


def spec_flat_overrides(spec: Any) -> Dict[str, Any]:
    """The legacy flat ``ServerConfig`` kwargs a spec maps onto (may be empty)."""
    overrides = getattr(spec, "flat_overrides", None)
    if overrides is None:
        return {}
    return dict(overrides())


def build_builtin_spec(
    spec_type: type, name: str, options: Mapping[str, Any], kind: str = "policy"
) -> Any:
    """Construct a built-in spec from free-form options with a clear error.

    The one conversion shared by the fluent builder and
    ``ServerConfig.from_specs`` when options target a built-in policy.
    """
    try:
        return spec_type(**dict(options))
    except TypeError as exc:
        raise ValueError(
            f"invalid option(s) for built-in {kind} {name!r}: {exc}"
        ) from None


def spec_with_flat_overrides(spec: Any, overrides: Mapping[str, Any]) -> Any:
    """Rebuild ``spec`` with any flat ``ServerConfig`` overrides applied.

    ``ServerConfig.from_specs`` promises that explicit flat kwargs win over
    values derived from the specs; since the policy factories read the spec
    in preference to the flat fields, the override has to flow back into the
    spec itself.  Specs without a ``FLAT_FIELDS`` mapping (e.g. third-party
    specs, :class:`PolicySpec`) are returned unchanged.
    """
    mapping = getattr(spec, "FLAT_FIELDS", None)
    if not mapping or not dataclasses.is_dataclass(spec):
        return spec
    updates = {
        spec_field: overrides[flat]
        for flat, spec_field in mapping.items()
        if flat in overrides
    }
    return dataclasses.replace(spec, **updates) if updates else spec


# --------------------------------------------------------------------------- #
# generic spec for third-party policies
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PolicySpec:
    """An open (policy name, options) pair for externally registered policies.

    Attributes:
        policy: registry name of the partitioner / scheduler.
        options: free-form options handed to the registered factory via the
            build context's ``spec`` field.
    """

    policy: str
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.policy:
            raise ValueError("policy name must be non-empty")
        object.__setattr__(self, "options", dict(self.options))

    def flat_overrides(self) -> Dict[str, Any]:
        return {}


# --------------------------------------------------------------------------- #
# partitioner specs
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ParisSpec:
    """Tunables of the PARIS partitioner (Algorithm 1).

    Attributes:
        knee_threshold: utilization threshold defining ``MaxBatch_knee``.
        partition_sizes: candidate partition sizes; defaults to every size in
            the profile table.
        min_instances_per_active_segment: lower bound on the instance count of
            any partition size whose batch segment carries probability mass.
    """

    policy: ClassVar[str] = "paris"
    FLAT_FIELDS: ClassVar[Mapping[str, str]] = {"knee_threshold": "knee_threshold"}

    knee_threshold: float = DEFAULT_KNEE_THRESHOLD
    partition_sizes: Optional[Sequence[int]] = None
    min_instances_per_active_segment: int = 0

    @classmethod
    def from_config(cls, config: Any) -> "ParisSpec":
        return cls(
            knee_threshold=getattr(config, "knee_threshold", DEFAULT_KNEE_THRESHOLD)
        )

    def flat_overrides(self) -> Dict[str, Any]:
        return {"knee_threshold": self.knee_threshold}


@dataclass(frozen=True)
class HomogeneousSpec:
    """The homogeneous GPU(N) baseline partitioner.

    Attributes:
        gpcs: size of every partition instance, in GPCs.
    """

    policy: ClassVar[str] = "homogeneous"
    FLAT_FIELDS: ClassVar[Mapping[str, str]] = {"homogeneous_gpcs": "gpcs"}

    gpcs: int = 7

    @classmethod
    def from_config(cls, config: Any) -> "HomogeneousSpec":
        return cls(gpcs=getattr(config, "homogeneous_gpcs", 7))

    def flat_overrides(self) -> Dict[str, Any]:
        return {"homogeneous_gpcs": self.gpcs}


@dataclass(frozen=True)
class RandomPartitionSpec:
    """The random heterogeneous baseline partitioner.

    Attributes:
        seed: RNG seed; ``None`` falls back to the config's ``random_seed``.
        partition_sizes: candidate sizes (defaults to the architecture's
            valid sizes).
    """

    policy: ClassVar[str] = "random"
    FLAT_FIELDS: ClassVar[Mapping[str, str]] = {"random_seed": "seed"}

    seed: Optional[int] = None
    partition_sizes: Optional[Sequence[int]] = None

    @classmethod
    def from_config(cls, config: Any) -> "RandomPartitionSpec":
        return cls(seed=getattr(config, "random_seed", 0))

    def flat_overrides(self) -> Dict[str, Any]:
        return {} if self.seed is None else {"random_seed": self.seed}


# --------------------------------------------------------------------------- #
# scheduler specs
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ElsaSpec:
    """Tunables of the ELSA scheduler (Algorithm 2).

    Attributes:
        alpha: slack-predictor safety coefficient (Equation 2).
        beta: weight on the new query's execution time (Equation 2).
        prefer_smallest: iterate candidates smallest-first in Step A.
    """

    policy: ClassVar[str] = "elsa"
    FLAT_FIELDS: ClassVar[Mapping[str, str]] = {"alpha": "alpha", "beta": "beta"}

    alpha: float = 1.0
    beta: float = 1.0
    prefer_smallest: bool = True

    @classmethod
    def from_config(cls, config: Any) -> "ElsaSpec":
        return cls(
            alpha=getattr(config, "alpha", 1.0),
            beta=getattr(config, "beta", 1.0),
        )

    def flat_overrides(self) -> Dict[str, Any]:
        return {"alpha": self.alpha, "beta": self.beta}


@dataclass(frozen=True)
class FifsSpec:
    """The first-idle first-serve (Triton-style) baseline scheduler.

    Attributes:
        idle_preference: tie-break among idle partitions (``round_robin``,
            ``smallest``, ``largest`` or ``random``).
        seed: RNG seed for the ``random`` preference; ``None`` falls back to
            the config's ``random_seed``.
    """

    policy: ClassVar[str] = "fifs"

    idle_preference: str = "round_robin"
    seed: Optional[int] = None

    @classmethod
    def from_config(cls, config: Any) -> "FifsSpec":
        return cls(seed=getattr(config, "random_seed", 0))

    def flat_overrides(self) -> Dict[str, Any]:
        # the scheduler seed stays spec-local: the flat ``random_seed``
        # field belongs to the random *partitioner* (its historical meaning)
        return {}


@dataclass(frozen=True)
class LeastLoadedSpec:
    """The least-outstanding-work baseline scheduler (no tunables)."""

    policy: ClassVar[str] = "least-loaded"

    @classmethod
    def from_config(cls, config: Any) -> "LeastLoadedSpec":
        del config
        return cls()

    def flat_overrides(self) -> Dict[str, Any]:
        return {}


@dataclass(frozen=True)
class RandomDispatchSpec:
    """The uniformly random baseline scheduler.

    Attributes:
        seed: RNG seed; ``None`` falls back to the config's ``random_seed``.
    """

    policy: ClassVar[str] = "random-dispatch"

    seed: Optional[int] = None

    @classmethod
    def from_config(cls, config: Any) -> "RandomDispatchSpec":
        return cls(seed=getattr(config, "random_seed", 0))

    def flat_overrides(self) -> Dict[str, Any]:
        # spec-local for the same reason as FifsSpec: ``random_seed`` is
        # the partitioner's seed, and the two must stay independent
        return {}


# --------------------------------------------------------------------------- #
# cross-cutting specs
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SlaSpec:
    """How the SLA target is derived (Section V).

    Attributes:
        multiplier: SLA = multiplier x reference latency at the max batch.
        max_batch: largest batch size of the workload distribution.
        reference_gpcs: partition size of the reference device (GPU(7)).
    """

    multiplier: float = 1.5
    max_batch: int = 32
    reference_gpcs: int = 7

    def flat_overrides(self) -> Dict[str, Any]:
        return {
            "sla_multiplier": self.multiplier,
            "max_batch": self.max_batch,
            "sla_reference_gpcs": self.reference_gpcs,
        }


@dataclass(frozen=True)
class ClusterSpec:
    """The physical shape of the server (or fleet).

    Attributes:
        num_gpus: physical GPUs in the server.
        gpc_budget: GPCs the partitioner may use (``None`` = full server).
        architecture: reconfigurable GPU architecture.
        frontend_capacity_qps: dispatch capacity of the serving frontend.
        fleet: optional mixed-architecture fleet description (a sequence of
            :class:`~repro.gpu.fleet.FleetServerSpec` or ``(num_gpus,
            architecture[, gpc_budget])`` tuples).  When set it supersedes
            ``num_gpus`` / ``gpc_budget`` / ``architecture`` (the flat
            fields are derived from the fleet by
            :class:`~repro.serving.config.ServerConfig`).
    """

    num_gpus: int = 8
    gpc_budget: Optional[int] = None
    architecture: GPUArchitecture = A100
    frontend_capacity_qps: Optional[float] = None
    fleet: Optional[Sequence[Any]] = None

    def flat_overrides(self) -> Dict[str, Any]:
        overrides = {
            "num_gpus": self.num_gpus,
            "gpc_budget": self.gpc_budget,
            "architecture": self.architecture,
            "frontend_capacity_qps": self.frontend_capacity_qps,
        }
        if self.fleet is not None:
            overrides["fleet"] = tuple(self.fleet)
            # the flat shape fields are derived from the fleet downstream;
            # emitting them here would collide with that derivation
            del overrides["num_gpus"], overrides["gpc_budget"], overrides["architecture"]
        return overrides


#: Built-in partitioner specs by registry name (used by the fluent builder).
PARTITIONER_SPECS: Dict[str, type] = {
    ParisSpec.policy: ParisSpec,
    HomogeneousSpec.policy: HomogeneousSpec,
    RandomPartitionSpec.policy: RandomPartitionSpec,
}

#: Built-in scheduler specs by registry name (used by the fluent builder).
SCHEDULER_SPECS: Dict[str, type] = {
    ElsaSpec.policy: ElsaSpec,
    FifsSpec.policy: FifsSpec,
    LeastLoadedSpec.policy: LeastLoadedSpec,
    RandomDispatchSpec.policy: RandomDispatchSpec,
}
