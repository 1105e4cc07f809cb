"""Per-query retry budgets with deterministic exponential backoff."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """How a crashed worker's displaced queries are retried.

    Each displaced query re-enters the arrival stream after a deterministic
    (jitterless) backoff delay; a query displaced more than ``max_retries``
    times becomes a first-class *failed* query — counted in
    ``ServerStatistics.failed_queries`` alongside SLA violations instead of
    silently vanishing.

    Attributes:
        max_retries: displacements tolerated per query before it fails
            (0 fails a query on its first crash).
        backoff: base re-arrival delay in simulated seconds; 0 requeues
            immediately.
        growth: geometric factor applied per subsequent attempt (>= 1).
    """

    max_retries: int = 2
    backoff: float = 0.0
    growth: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if not 0 <= self.backoff < math.inf:
            raise ValueError(f"backoff must be non-negative and finite, got {self.backoff}")
        if not 1.0 <= self.growth < math.inf:
            raise ValueError(f"growth must be >= 1 and finite, got {self.growth}")

    def delay(self, attempt: int) -> float:
        """The backoff before retry ``attempt`` (1-based): ``backoff * growth**(attempt-1)``."""
        if attempt < 1:
            raise ValueError("attempt is 1-based and must be >= 1")
        if self.backoff == 0.0:
            return 0.0
        return self.backoff * self.growth ** (attempt - 1)


__all__ = ["RetryPolicy"]
