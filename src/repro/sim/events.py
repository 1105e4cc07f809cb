"""Event kinds for the discrete-event simulator."""

from __future__ import annotations

import enum


class EventKind(enum.IntEnum):
    """Kinds of simulation events.

    The integer values double as tie-break priorities when two events share a
    timestamp: completions are processed before arrivals so that a partition
    freed at time ``t`` is visible to a query arriving at the same ``t``, and
    a reconfiguration completes only after every same-instant completion and
    arrival has been absorbed (so drained partitions are truly empty and
    buffered queries are all accounted for when the new set comes online).
    """

    COMPLETION = 0
    ARRIVAL = 1
    RECONFIG = 2
