"""Seeded, sorted fault schedules (the :class:`PreemptionSchedule` analogue).

A schedule is an immutable, deterministically ordered sequence of
:class:`~repro.faults.events.FaultEvent`\\ s.  :meth:`FaultSchedule.sample`
draws crash arrivals from a seeded Poisson process — mirroring
:meth:`repro.autoscale.preemption.PreemptionSchedule.sample` — and pairs
each crash with an exponential repair when a mean time to repair is given,
so one call yields a full crash/restart history.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Sequence, Tuple, Type

import numpy as np

from repro.faults.events import (
    FailedReconfigure,
    FaultEvent,
    StragglerEnd,
    StragglerStart,
    WorkerCrash,
    WorkerRestart,
)

#: Deterministic tie-break order for distinct fault kinds at one instant:
#: restarts and straggler recoveries land before fresh damage, so a
#: same-instant restart+crash pair never deadlocks on an empty crashed set.
_KIND_ORDER: Dict[Type[FaultEvent], int] = {
    WorkerRestart: 0,
    StragglerEnd: 1,
    WorkerCrash: 2,
    StragglerStart: 3,
    FailedReconfigure: 4,
}


def _sort_key(event: FaultEvent) -> Tuple[float, int, int, float]:
    worker = getattr(event, "worker", -1)
    extra = getattr(event, "multiplier", getattr(event, "downtime", 0.0))
    return (event.time, _KIND_ORDER.get(type(event), 99), int(worker), float(extra))


class FaultSchedule:
    """An immutable fault schedule, sorted by ``(time, kind, worker)``.

    Args:
        events: fault events in any order.  An empty schedule is falsy and
            injects nothing — a session given one is pinned bit-identical
            to a session given no schedule at all.
    """

    def __init__(self, events: Sequence[FaultEvent] = ()) -> None:
        for event in events:
            if not isinstance(event, FaultEvent):
                raise TypeError(
                    f"FaultSchedule holds FaultEvent instances; got "
                    f"{type(event).__name__}"
                )
        self.events: Tuple[FaultEvent, ...] = tuple(sorted(events, key=_sort_key))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def describe(self) -> str:
        """Readable summary, e.g. ``3 fault(s) @ t=[0.5, 1.2, 4.0]``."""
        times = ", ".join(f"{event.time:g}" for event in self.events)
        return f"{len(self.events)} fault(s) @ t=[{times}]"

    @classmethod
    def sample(
        cls,
        num_workers: int,
        horizon: float,
        *,
        rate: float,
        mttr: float = 0.0,
        seed: int = 0,
    ) -> "FaultSchedule":
        """Draw a crash/restart history from a seeded Poisson process.

        Crash arrivals are exponential with mean ``1/rate``; each crash
        picks a uniform victim index and, when ``mttr > 0``, schedules a
        restart after an exponential repair with mean ``mttr`` (dropped if
        it lands past the horizon — the worker stays down).

        Args:
            num_workers: victim index range (>= 1).
            horizon: exclusive upper bound on event times (> 0, finite).
            rate: mean crashes per simulated second (> 0, finite).
            mttr: mean time to repair; 0 disables restarts.
            seed: RNG seed — equal seeds give equal schedules.

        Raises:
            ValueError: for a non-positive worker count, a non-positive,
                NaN or infinite horizon or rate (the draw loop would never
                end), or a negative/NaN mttr.
        """
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if math.isnan(horizon) or horizon <= 0:
            raise ValueError("horizon must be positive (and not NaN)")
        if math.isinf(horizon):
            raise ValueError(f"horizon must be finite, got {horizon}")
        if math.isnan(rate) or rate <= 0:
            raise ValueError(
                "rate must be positive (and not NaN); for a fault-free run "
                "pass FaultSchedule([]) instead of rate=0"
            )
        if math.isinf(rate):
            raise ValueError(f"rate must be finite, got {rate}")
        if math.isnan(mttr) or mttr < 0:
            raise ValueError("mttr must be non-negative (and not NaN)")
        rng = np.random.default_rng(seed)
        events: List[FaultEvent] = []
        time = 0.0
        while True:
            time += float(rng.exponential(1.0 / rate))
            if time >= horizon:
                break
            victim = int(rng.integers(0, num_workers))
            events.append(WorkerCrash(time=time, worker=victim))
            if mttr > 0:
                repaired = time + float(rng.exponential(mttr))
                if repaired < horizon:
                    events.append(WorkerRestart(time=repaired, worker=victim))
        return cls(events)


__all__ = ["FaultSchedule"]
