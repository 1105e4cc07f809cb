"""Query traces.

A :class:`QueryTrace` is an immutable, time-ordered list of queries plus
convenience statistics.  Traces decouple workload generation from simulation:
the same trace can be replayed against every server design being compared,
eliminating workload noise from design comparisons (this mirrors how the
paper replays identical query streams against each configuration).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le
from typing import Dict, Iterable, Iterator, Sequence

from repro.workload.query import Query


@dataclass(frozen=True)
class QueryTrace:
    """A time-ordered sequence of inference queries."""

    queries: Sequence[Query]

    def __post_init__(self) -> None:
        arrivals = [q.arrival_time for q in self.queries]
        if not all(map(le, arrivals, arrivals[1:])):
            raise ValueError("queries must be sorted by arrival time")

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self) -> Iterator[Query]:
        return iter(self.queries)

    def __getitem__(self, idx: int) -> Query:
        return self.queries[idx]

    @property
    def duration(self) -> float:
        """Time span between the first and last arrival (seconds).

        Defined for every trace: 0.0 for empty and single-query traces.
        """
        if not self.queries:
            return 0.0
        return self.queries[-1].arrival_time - self.queries[0].arrival_time

    @property
    def total_samples(self) -> int:
        """Total number of inference samples across all queries."""
        return sum(q.batch for q in self.queries)

    def arrival_rate(self) -> float:
        """Observed average arrival rate in queries/second.

        Defined for every trace: 0.0 when fewer than two queries exist or
        when all arrivals share one timestamp (no time span to rate over) —
        never a division by zero.
        """
        if len(self.queries) < 2 or self.duration == 0:
            return 0.0
        return (len(self.queries) - 1) / self.duration

    def batch_histogram(self) -> Dict[int, int]:
        """Observed batch-size histogram."""
        hist: Dict[int, int] = {}
        for query in self.queries:
            hist[query.batch] = hist.get(query.batch, 0) + 1
        return dict(sorted(hist.items()))

    def batch_pdf(self) -> Dict[int, float]:
        """Observed batch-size probability mass function.

        Raises:
            ValueError: for an empty trace — an empty PDF would silently
                poison every downstream consumer (the partitioner rejects
                it anyway), so the degenerate case fails loudly here.
        """
        hist = self.batch_histogram()
        total = sum(hist.values())
        if total == 0:
            raise ValueError(
                "cannot derive a batch-size PDF from an empty trace"
            )
        return {batch: count / total for batch, count in hist.items()}

    def with_sla(self, sla_target: float) -> "QueryTrace":
        """A trace of the same requests, every query's SLA set to ``sla_target``."""
        if not sla_target > 0:  # NaN too; checked even when the trace is empty
            raise ValueError("sla_target must be positive")
        return QueryTrace(
            tuple(
                Query(q.query_id, q.model, q.batch, q.arrival_time, sla_target)
                for q in self.queries
            )
        )


def merge_traces(traces: Iterable[QueryTrace]) -> QueryTrace:
    """Merge several traces into one, re-sorted by arrival time.

    Query ids are reassigned to stay unique in the merged trace.  Useful for
    multi-tenant experiments where several models share one server.  Merging
    no traces (or only empty ones) yields an empty trace.
    """
    merged = sorted((q for trace in traces for q in trace), key=lambda q: q.arrival_time)
    return QueryTrace(
        tuple(
            Query(index, q.model, q.batch, q.arrival_time, q.sla_target)
            for index, q in enumerate(merged)
        )
    )
