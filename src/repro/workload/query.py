"""The inference query: one request of a trace.

A :class:`Query` is the unit of work the inference server schedules: one
request carrying ``batch`` inputs for one DNN model, arriving at a given
time.  It holds the request alone.  A replay keeps each query's outcome
(dispatch, start, finish, instance, retries, failure) in its own columns
(:mod:`repro.sim.columnar`) and hands it out as
:class:`~repro.sim.columnar.QueryRecord` rows of its result, so one query
object can serve any number of replays, one after another or at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

_INF = float("inf")


@dataclass(slots=True)
class Query:
    """One inference request.

    No replay writes to a query: the slots leave no room for run state.

    Attributes:
        query_id: unique id within a trace.
        model: name of the DNN model this query targets.
        batch: number of inputs batched into the query (its "size").
        arrival_time: wall-clock arrival time at the server frontend, seconds
            (finite and non-negative).
        sla_target: latency SLA for this query in seconds, positive (``None``
            when the experiment does not enforce one).
    """

    query_id: int
    model: str
    batch: int
    arrival_time: float
    sla_target: Optional[float] = None

    def __post_init__(self) -> None:
        # One chained comparison per field, each false for NaN: every
        # generated or SLA-stamped query passes through here.
        if self.batch < 1:
            raise ValueError(f"query batch must be >= 1, got {self.batch}")
        if not 0.0 <= self.arrival_time < _INF:
            raise ValueError(
                f"arrival_time must be finite and non-negative, got {self.arrival_time}"
            )
        sla = self.sla_target
        if sla is not None and not 0.0 < sla:
            raise ValueError(f"sla_target must be positive when set, got {sla}")
