"""Deterministic spot-instance preemption schedules.

Spot capacity is cheap because the provider may reclaim it: a preemption
*notice* arrives, the server gets a short grace period, then it is gone.
The reproduction models that as first-class scenario events: a
:class:`PreemptionSchedule` is a fixed, replayable list of
:class:`PreemptionEvent` — same schedule, same seed, same trace → byte-equal
window series — which the session's control plane executes with the live
repartition machinery (notice → forced drain → server removal).

Schedules are either written explicitly (pinned tests, experiments) or
sampled with :meth:`PreemptionSchedule.sample` from a seeded generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class PreemptionEvent:
    """One spot preemption.

    Attributes:
        time: simulation time the preemption *notice* arrives.
        server_index: stable roster id of the server being reclaimed.
        notice: grace period in seconds — the server is actually removed at
            ``time + notice`` (0 means immediate reclaim).
    """

    time: float
    server_index: int
    notice: float = 0.0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("time must be non-negative")
        if self.server_index < 0:
            raise ValueError("server_index must be non-negative")
        if self.notice < 0:
            raise ValueError("notice must be non-negative")

    @property
    def removal_time(self) -> float:
        """When the server leaves the fleet."""
        return self.time + self.notice


class PreemptionSchedule:
    """An ordered, replay-deterministic list of preemptions.

    Args:
        events: the preemptions; stored sorted by ``(time, server_index)``
            so execution order never depends on construction order.
    """

    def __init__(self, events: Sequence[PreemptionEvent] = ()) -> None:
        self.events: Tuple[PreemptionEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.time, e.server_index))
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[PreemptionEvent]:
        return iter(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    @classmethod
    def sample(
        cls,
        server_ids: Sequence[int],
        horizon: float,
        *,
        rate: float,
        notice: float = 0.0,
        seed: int = 0,
    ) -> "PreemptionSchedule":
        """Draw a schedule from a seeded generator (same seed → same events).

        Preemption notices arrive as a Poisson process of ``rate`` events
        per second over ``[0, horizon)``; each picks its victim uniformly
        from ``server_ids``.  A server may be drawn more than once — the
        control plane records later hits on an already-removed server as
        skipped events rather than failing.

        Raises:
            ValueError: for an empty candidate set, a non-positive, NaN or
                infinite horizon (the draw loop would never end), a
                non-positive, NaN or infinite rate (a zero rate would divide
                by zero in the exponential draw — pass
                ``PreemptionSchedule()`` for a quiet run instead — and an
                infinite one draws zero gaps forever), or a negative/NaN
                notice.
        """
        if not server_ids:
            raise ValueError("server_ids must name at least one candidate")
        if math.isnan(horizon) or horizon <= 0:
            raise ValueError("horizon must be positive (and not NaN)")
        if math.isinf(horizon):
            raise ValueError(f"horizon must be finite, got {horizon}")
        if math.isnan(rate) or rate <= 0:
            raise ValueError(
                "rate must be positive (and not NaN); for a preemption-free "
                "run pass PreemptionSchedule() instead of rate=0"
            )
        if math.isinf(rate):
            raise ValueError(f"rate must be finite, got {rate}")
        if math.isnan(notice) or notice < 0:
            raise ValueError("notice must be non-negative (and not NaN)")
        rng = np.random.default_rng(seed)
        events: List[PreemptionEvent] = []
        time = 0.0
        candidates = list(server_ids)
        while True:
            time += float(rng.exponential(1.0 / rate))
            if time >= horizon:
                break
            victim = int(candidates[int(rng.integers(0, len(candidates)))])
            events.append(
                PreemptionEvent(time=time, server_index=victim, notice=notice)
            )
        return cls(events)

    def describe(self) -> str:
        """Readable one-liner, e.g. ``2 preemptions @ t=[40.1, 77.3]``."""
        if not self.events:
            return "no preemptions"
        times = ", ".join(f"{e.time:.1f}" for e in self.events)
        return f"{len(self.events)} preemption(s) @ t=[{times}]"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PreemptionSchedule({self.describe()})"


__all__ = ["PreemptionEvent", "PreemptionSchedule"]
