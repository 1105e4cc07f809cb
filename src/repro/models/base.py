"""Model specification container.

A :class:`ModelSpec` is an ordered collection of analytical layers together
with model-level metadata (name, compute-intensity class).  It exposes the
aggregate cost queries (FLOPs, bytes, layer count) that the performance
model, PARIS and the SLA-target derivation consume.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, List, Sequence

from repro.models.layers import Layer


class ComputeIntensity(enum.Enum):
    """Coarse compute-intensity class used in the paper's benchmark table."""

    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


@dataclass(frozen=True)
class ModelSpec:
    """An analytical description of a DNN inference model.

    Attributes:
        name: canonical model name (lowercase, e.g. ``"resnet"``).
        layers: ordered layer list executed per inference query.
        intensity: compute-intensity class (low/medium/high).
        description: free-form human readable description.
    """

    name: str
    layers: Sequence[Layer]
    intensity: ComputeIntensity = ComputeIntensity.MEDIUM
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("model name must be non-empty")
        if not self.layers:
            raise ValueError(f"model {self.name!r} must have at least one layer")

    @property
    def num_layers(self) -> int:
        """Number of kernel launches per query."""
        return len(self.layers)

    def flops(self, batch: int = 1) -> float:
        """Total FLOPs for one query of ``batch`` samples."""
        return sum(layer.flops(batch) for layer in self.layers)

    def bytes_moved(self, batch: int = 1) -> float:
        """Total bytes moved to/from device memory for one query."""
        return sum(layer.bytes_moved(batch) for layer in self.layers)

    def weight_bytes(self) -> float:
        """Bytes of model parameters."""
        return sum(layer.weight_bytes() for layer in self.layers)

    def gflops(self, batch: int = 1) -> float:
        """Convenience: total GFLOPs for one query."""
        return self.flops(batch) / 1e9

    def summary(self) -> dict:
        """Return a metadata dictionary (handy for reports and tests)."""
        return {
            "name": self.name,
            "layers": self.num_layers,
            "gflops_per_sample": self.gflops(1),
            "weight_mb": self.weight_bytes() / 1e6,
            "intensity": self.intensity.value,
        }


def validate_layers(layers: Iterable[Layer]) -> List[Layer]:
    """Validate and materialise a layer iterable (used by model builders)."""
    result = list(layers)
    for layer in result:
        if not isinstance(layer, Layer):
            raise TypeError(f"expected Layer, got {type(layer)!r}")
        if not 0.0 < layer.efficiency <= 1.0:
            raise ValueError(
                f"layer {layer.name!r} efficiency must be in (0, 1], got "
                f"{layer.efficiency}"
            )
    return result
