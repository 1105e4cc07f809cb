"""Typed fault events and the session-side fault log row.

Fault events are *abstract*: a ``worker`` field names a victim by index into
the deterministically sorted live worker list at application time (modulo
its length), never by instance id — partition generations are renumbered by
every reconfiguration, so a schedule built before the run could not name
concrete instance ids and stay meaningful.  The session resolves the victim
when the event comes due, which keeps one schedule valid across arbitrary
repartition histories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional


def _require_finite_time(time: float) -> None:
    if math.isnan(time) or time < 0:
        raise ValueError("time must be non-negative")


@dataclass(frozen=True)
class FaultEvent:
    """Base class of every schedulable fault.

    Attributes:
        time: simulated seconds at which the fault comes due.
    """

    time: float

    def __post_init__(self) -> None:
        _require_finite_time(self.time)


@dataclass(frozen=True)
class WorkerCrash(FaultEvent):
    """Crash one live partition worker: in-flight + queued work requeues.

    Attributes:
        worker: victim index into the sorted live worker list (mod its
            length at application time).
    """

    worker: int

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.worker < 0:
            raise ValueError("worker must be non-negative")


@dataclass(frozen=True)
class WorkerRestart(FaultEvent):
    """Bring a crashed worker back online (index into the crashed set)."""

    worker: int

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.worker < 0:
            raise ValueError("worker must be non-negative")


@dataclass(frozen=True)
class StragglerStart(FaultEvent):
    """Slow one live worker down by a latency multiplier (>= 1).

    The multiplier scales the worker's execution model *and* its oracle
    estimates, so estimate-driven schedulers (ELSA's T_wait term,
    least-loaded) route around the straggler.  Queries already executing
    keep their committed finish time.
    """

    worker: int
    multiplier: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.worker < 0:
            raise ValueError("worker must be non-negative")
        if not 1.0 <= self.multiplier < math.inf:
            raise ValueError(f"multiplier must be >= 1 and finite, got {self.multiplier}")


@dataclass(frozen=True)
class StragglerEnd(FaultEvent):
    """Restore a straggling worker (index into the slowed set) to full speed."""

    worker: int

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.worker < 0:
            raise ValueError("worker must be non-negative")


@dataclass(frozen=True)
class FailedReconfigure(FaultEvent):
    """Arm the next live repartition to fail and roll back to the old plan.

    The failed attempt still drains the old partitions and pays the
    session's reconfig cost *plus* ``downtime`` extra rollback seconds, but
    comes back online on the **old** shapes with the planned PDF untouched —
    a fired trigger stays hungry and may fire again.
    """

    downtime: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if math.isnan(self.downtime) or self.downtime < 0:
            raise ValueError("downtime must be non-negative")


@dataclass(frozen=True)
class FaultRecord:
    """One applied (or skipped) fault, as logged by the session.

    These are the daemon-visible rows: :meth:`to_dict` is the NDJSON shape
    interleaved into a job's window stream, marked ``"type": "fault-event"``
    so artifact digestion partitions them from metric windows.
    """

    time: float
    kind: str
    instance_id: Optional[int] = None
    gpcs: int = 0
    reason: str = ""
    requeued: int = 0
    failed: int = 0
    multiplier: float = 1.0

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-serialisable NDJSON row."""
        return {
            "type": "fault-event",
            "time": self.time,
            "kind": self.kind,
            "instance_id": self.instance_id,
            "gpcs": self.gpcs,
            "reason": self.reason,
            "requeued": self.requeued,
            "failed": self.failed,
            "multiplier": self.multiplier,
        }


__all__ = [
    "FailedReconfigure",
    "FaultEvent",
    "FaultRecord",
    "StragglerEnd",
    "StragglerStart",
    "WorkerCrash",
    "WorkerRestart",
]
