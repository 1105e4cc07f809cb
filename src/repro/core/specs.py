"""Composable per-policy configuration specs.

Each policy tunable has one home, the spec object of its policy:

* partitioners — :class:`ParisSpec`, :class:`HomogeneousSpec`,
  :class:`RandomPartitionSpec`;
* schedulers — :class:`ElsaSpec`, :class:`FifsSpec`, :class:`LeastLoadedSpec`,
  :class:`RandomDispatchSpec`;
* third-party policies — :class:`PolicySpec`, an open name + options bag.

A :class:`~repro.serving.config.ServerConfig` stores its partitioner's and
scheduler's specs.  For a built-in policy, :func:`resolve_policy_spec` turns
whatever selected it (no spec, a :class:`PolicySpec`, the typed spec) into
the typed spec, so every spelling of one design point gives an equal
config.  The stored spec is handed verbatim to the registered policy
factory (:mod:`repro.core.registry`) at deployment time, so a custom
partitioner can define its own spec type with arbitrary fields.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Mapping, Optional, Sequence

from repro.core.knee import DEFAULT_KNEE_THRESHOLD
from repro.core.registry import PARTITIONERS, SCHEDULERS


# --------------------------------------------------------------------------- #
# generic spec for third-party policies
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PolicySpec:
    """An open (policy name, options) pair for externally registered policies.

    For a built-in policy, :func:`resolve_policy_spec` converts it into the
    policy's typed spec.

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


# --------------------------------------------------------------------------- #
# partitioner specs
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ParisSpec:
    """Tunables of the PARIS partitioner (Algorithm 1), handed to
    :class:`~repro.core.paris.Paris` and :class:`~repro.core.paris.FleetParis`.

    Attributes:
        knee_threshold: utilization threshold defining ``MaxBatch_knee``
            (0.8), in ``(0, 1]``.
        partition_sizes: candidate partition sizes ``GPC[k]``; defaults to
            every size in the profile table.
        min_instances_per_active_segment: lower bound on the instance count
            of any partition size whose batch segment carries probability
            mass, provided the budget allows it.  The paper's formulation
            (and the default of 0) lets a low-demand segment round down to
            zero instances, in which case its batch range is served by the
            next-smaller partition; set to 1 to force coverage of every
            active segment.
    """

    policy: ClassVar[str] = "paris"

    knee_threshold: float = DEFAULT_KNEE_THRESHOLD
    partition_sizes: Optional[Sequence[int]] = None
    min_instances_per_active_segment: int = 0

    def __post_init__(self) -> None:
        # written so NaN fails both checks
        if not 0.0 < self.knee_threshold <= 1.0:
            raise ValueError("knee_threshold must be in (0, 1]")
        if not self.min_instances_per_active_segment >= 0:
            raise ValueError("min_instances_per_active_segment must be >= 0")


@dataclass(frozen=True)
class HomogeneousSpec:
    """The homogeneous GPU(N) baseline partitioner.

    Attributes:
        gpcs: size of every partition instance, in GPCs.
    """

    policy: ClassVar[str] = "homogeneous"

    gpcs: int = 7


@dataclass(frozen=True)
class RandomPartitionSpec:
    """The random heterogeneous baseline partitioner.

    Attributes:
        seed: RNG seed; ``None`` falls back to the config's ``random_seed``.
        partition_sizes: candidate sizes (defaults to the architecture's
            valid sizes).
    """

    policy: ClassVar[str] = "random"

    seed: Optional[int] = None
    partition_sizes: Optional[Sequence[int]] = None


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

    alpha: float = 1.0
    beta: float = 1.0
    prefer_smallest: bool = True


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


@dataclass(frozen=True)
class LeastLoadedSpec:
    """The least-outstanding-work baseline scheduler (no tunables)."""

    policy: ClassVar[str] = "least-loaded"


@dataclass(frozen=True)
class RandomDispatchSpec:
    """The uniformly random baseline scheduler.

    Attributes:
        seed: RNG seed; ``None`` falls back to the config's ``random_seed``.
    """

    policy: ClassVar[str] = "random-dispatch"

    seed: Optional[int] = None


#: Built-in partitioner specs by registry name (see :func:`resolve_policy_spec`).
PARTITIONER_SPECS: Dict[str, type] = {
    ParisSpec.policy: ParisSpec,
    HomogeneousSpec.policy: HomogeneousSpec,
    RandomPartitionSpec.policy: RandomPartitionSpec,
}

#: Built-in scheduler specs by registry name (see :func:`resolve_policy_spec`).
SCHEDULER_SPECS: Dict[str, type] = {
    ElsaSpec.policy: ElsaSpec,
    FifsSpec.policy: FifsSpec,
    LeastLoadedSpec.policy: LeastLoadedSpec,
    RandomDispatchSpec.policy: RandomDispatchSpec,
}


def resolve_policy_spec(kind: str, policy: str, spec: Any = None) -> Any:
    """The typed spec of built-in ``policy`` as configured by ``spec``.

    The one conversion from a policy selector to a built-in policy's spec,
    shared by ``ServerConfig`` and the registry factories.  A spec of the
    policy's own type passes through, ``None`` gives its defaults and a
    :class:`PolicySpec` has its options applied.  Policies without a
    built-in spec type (externally registered ones) get ``spec`` back
    unchanged.

    Args:
        kind: ``"partitioner"`` or ``"scheduler"``.
        policy: canonical registry name of the selected policy.
        spec: the configured spec, if any.

    Raises:
        ValueError: for a :class:`PolicySpec` option the spec type lacks.
        TypeError: for another policy's spec object, or a
            :class:`PolicySpec` naming another policy.
    """
    builtin = PARTITIONER_SPECS if kind == "partitioner" else SCHEDULER_SPECS
    spec_type = builtin.get(policy)
    if spec_type is None or isinstance(spec, spec_type):
        return spec
    if spec is None:
        return spec_type()
    registry = PARTITIONERS if kind == "partitioner" else SCHEDULERS
    if isinstance(spec, PolicySpec) and registry.canonical(spec.policy) == policy:
        valid = {f.name for f in dataclasses.fields(spec_type)}  # type: ignore[arg-type]
        unknown = sorted(set(spec.options) - valid)
        if unknown:
            raise ValueError(
                f"unknown option(s) {unknown} for built-in {kind} "
                f"{policy!r}; valid options: {sorted(valid)}"
            )
        return spec_type(**spec.options)
    raise TypeError(
        f"{kind} {policy!r} expects a {spec_type.__name__} (or a PolicySpec "
        f"naming it), got {spec!r}; the configured spec does not match "
        "the selected policy"
    )
