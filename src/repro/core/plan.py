"""Partitioning plan produced by PARIS (and the baseline partitioners).

A :class:`PartitionPlan` records, for one DNN model and one GPC budget, how
many instances of each GPU partition size to deploy, plus the intermediate
quantities of Algorithm 1 (knees, batch-range segments, instance ratios) so
experiments and reports can explain *why* the plan looks the way it does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple


@dataclass(frozen=True)
class BatchSegment:
    """The batch-size range assigned to one partition size (Step B).

    Attributes:
        gpcs: partition size owning this segment.
        low: smallest batch size in the segment (inclusive).
        high: largest batch size in the segment (inclusive).
        probability: total probability mass of the segment under the batch
            size distribution.
        instance_ratio: the un-normalised instance requirement ``R_k``.
    """

    gpcs: int
    low: int
    high: int
    probability: float
    instance_ratio: float

    def contains(self, batch: int) -> bool:
        """Whether ``batch`` falls inside this segment."""
        return self.low <= batch <= self.high


@dataclass(frozen=True)
class PartitionPlan:
    """A heterogeneous (or homogeneous) partitioning of the server's GPCs.

    Attributes:
        model: DNN model the plan targets.
        counts: mapping partition size (GPCs) -> number of instances.
        total_gpcs: GPC budget the plan was derived for.
        strategy: name of the producing strategy ("paris", "homogeneous",
            "random").
        knees: MaxBatch_knee per partition size (PARIS only).
        segments: batch-range segments per partition size (PARIS only).
    """

    model: str
    counts: Dict[int, int]
    total_gpcs: int
    strategy: str = "paris"
    knees: Dict[int, int] = field(default_factory=dict)
    segments: List[BatchSegment] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.total_gpcs <= 0:
            raise ValueError("total_gpcs must be positive")
        for size, count in self.counts.items():
            if size <= 0:
                raise ValueError(f"invalid partition size {size}")
            if count < 0:
                raise ValueError(f"negative instance count for GPU({size})")
        if self.used_gpcs > self.total_gpcs:
            raise ValueError(
                f"plan uses {self.used_gpcs} GPCs, exceeding the budget of "
                f"{self.total_gpcs}"
            )

    @property
    def used_gpcs(self) -> int:
        """GPCs consumed by the planned instances."""
        return sum(size * count for size, count in self.counts.items())

    @property
    def total_instances(self) -> int:
        """Total number of partition instances."""
        return sum(self.counts.values())

    @property
    def is_heterogeneous(self) -> bool:
        """True when more than one partition size is instantiated."""
        return len([size for size, count in self.counts.items() if count > 0]) > 1

    def instances_of(self, gpcs: int) -> int:
        """Number of instances of ``GPU(gpcs)`` in the plan."""
        return self.counts.get(gpcs, 0)

    def segment_for_batch(self, batch: int) -> Optional[BatchSegment]:
        """The batch segment covering ``batch``, if segmentation was recorded."""
        for segment in self.segments:
            if segment.contains(batch):
                return segment
        return None

    def describe(self) -> str:
        """Compact human-readable description, e.g. ``6xGPU(1)+4xGPU(2)``."""
        parts = [
            f"{count}xGPU({size})"
            for size, count in sorted(self.counts.items())
            if count > 0
        ]
        return "+".join(parts) if parts else "(empty)"

    def to_dict(self) -> dict:
        """Serialise the plan (e.g. for experiment reports)."""
        return {
            "model": self.model,
            "strategy": self.strategy,
            "total_gpcs": self.total_gpcs,
            "used_gpcs": self.used_gpcs,
            "counts": {int(k): int(v) for k, v in sorted(self.counts.items())},
            "knees": {int(k): int(v) for k, v in sorted(self.knees.items())},
            "description": self.describe(),
        }


@dataclass(frozen=True)
class FleetPlan:
    """A partitioning of a (possibly mixed-architecture) GPU fleet.

    Where a :class:`PartitionPlan` divides one architecture's GPC budget,
    a fleet plan divides **per-architecture budgets**: its counts are keyed
    by ``(architecture name, partition size)`` and every architecture's
    share respects that architecture's own budget.  The per-architecture
    sub-plans (ordinary :class:`PartitionPlan`\\ s) are retained so reports
    can explain each architecture's knees and segments.

    Attributes:
        model: DNN model the plan targets.
        counts: mapping ``(architecture name, size) -> instance count``.
        budgets: mapping ``architecture name -> GPC budget`` the plan was
            derived for.
        strategy: name of the producing strategy (e.g. ``"fleet-paris"``).
        per_architecture: per-architecture sub-plans, keyed by name.
    """

    model: str
    counts: Dict[Tuple[str, int], int]
    budgets: Dict[str, int]
    strategy: str = "fleet-paris"
    per_architecture: Mapping[str, PartitionPlan] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.budgets:
            raise ValueError("a FleetPlan needs at least one architecture budget")
        for name, budget in self.budgets.items():
            if budget <= 0:
                raise ValueError(f"budget for {name!r} must be positive")
        for (name, size), count in self.counts.items():
            if name not in self.budgets:
                raise ValueError(
                    f"counts reference architecture {name!r} absent from the "
                    f"budgets {sorted(self.budgets)}"
                )
            if size <= 0:
                raise ValueError(f"invalid partition size {size}")
            if count < 0:
                raise ValueError(f"negative instance count for {name}/GPU({size})")
        for name in self.budgets:
            used = self.used_gpcs_of(name)
            if used > self.budgets[name]:
                raise ValueError(
                    f"plan uses {used} {name} GPCs, exceeding that "
                    f"architecture's budget of {self.budgets[name]}"
                )

    @property
    def architectures(self) -> List[str]:
        """Architecture names the plan spans, in budget order."""
        return list(self.budgets)

    @property
    def total_gpcs(self) -> int:
        """Summed GPC budget across every architecture."""
        return sum(self.budgets.values())

    @property
    def used_gpcs(self) -> int:
        """GPCs consumed by the planned instances, fleet-wide."""
        return sum(size * count for (_, size), count in self.counts.items())

    def used_gpcs_of(self, architecture: str) -> int:
        """GPCs the plan consumes on one architecture."""
        return sum(
            size * count
            for (name, size), count in self.counts.items()
            if name == architecture
        )

    @property
    def total_instances(self) -> int:
        """Total number of partition instances, fleet-wide."""
        return sum(self.counts.values())

    def counts_of(self, architecture: str) -> Dict[int, int]:
        """One architecture's share as plain ``{size: count}``."""
        return {
            size: count
            for (name, size), count in sorted(self.counts.items())
            if name == architecture and count > 0
        }

    def describe(self) -> str:
        """Readable description, e.g. ``A30[4xGPU(1)] + A100[2xGPU(3)+...]``."""
        parts = []
        for name in self.budgets:
            flat = self.counts_of(name)
            if not flat:
                continue
            inner = "+".join(f"{c}xGPU({s})" for s, c in sorted(flat.items()))
            parts.append(f"{name}[{inner}]")
        return " + ".join(parts) if parts else "(empty)"

    def to_dict(self) -> dict:
        """Serialise the plan (e.g. for experiment reports)."""
        return {
            "model": self.model,
            "strategy": self.strategy,
            "budgets": dict(self.budgets),
            "used_gpcs": self.used_gpcs,
            "counts": {
                f"{name}/GPU({size})": int(count)
                for (name, size), count in sorted(self.counts.items())
                if count
            },
            "description": self.describe(),
        }
