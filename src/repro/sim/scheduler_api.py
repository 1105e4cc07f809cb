"""Scheduler interface driven by the inference-server simulator.

A scheduler sees two kinds of moments:

* a new query arrives at the server frontend (:meth:`Scheduler.on_arrival`);
* a partition finishes its current query and has nothing queued locally
  (:meth:`Scheduler.on_worker_idle`).

Two queueing disciplines are expressible through this interface:

* *central queue* policies (the baseline FIFS of Triton-style servers):
  ``on_arrival`` returns ``None`` when no partition is idle, parking the
  query in the server-wide FIFO; idle partitions later pull from that FIFO
  via ``on_worker_idle``.  The FIFO holds *rows*: each query's position in
  the run's columnar store (:mod:`repro.sim.columnar`).
* *per-partition queue* policies (ELSA): ``on_arrival`` always picks a
  partition immediately, and ``on_worker_idle`` returns ``None`` because
  every query already sits in some partition's local queue.

Concrete policies live in :mod:`repro.core.schedulers` (FIFS and other
baselines) and :mod:`repro.core.elsa`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence

from repro.sim.worker import LatencyFn, PartitionWorker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workload.query import Query


@dataclass(frozen=True)
class SchedulingContext:
    """Everything a scheduling decision may look at.

    Attributes:
        now: current simulation time in seconds.
        workers: all partition workers, sorted by ascending partition size
            then instance id.  ELSA and the least-loaded baseline do not
            depend on this order: they break ties by instance id, then by
            list position.
        central_queue: read-only view of the rows of the queries currently
            parked in the server-wide FIFO, oldest first (relevant to
            central-queue policies).  Must not be mutated — the simulator
            shares its live queue here instead of copying it per event.
        estimator: the profiled latency oracle (model, batch, gpcs) -> seconds,
            i.e. the ``T_estimated`` lookup of Section IV-C.  On a
            mixed-architecture fleet this is the *primary* architecture's
            oracle; use :meth:`oracle_for` to resolve the right oracle per
            worker.
        estimators: per-architecture latency oracles keyed by architecture
            name, set only on mixed-architecture fleets; ``None`` on
            single-architecture servers (every worker then shares
            ``estimator``).
        changed: the change feed — every worker whose local queue,
            in-flight query, pool membership (crash, restore) or slowdown
            changed since the previous ``on_arrival``, possibly repeated.
            The simulator appends at each such change and empties the list
            after every ``on_arrival``; schedulers read it (to keep a
            :class:`~repro.sim.drain_index.DrainIndex` or FIFS's idle index
            current) and must not mutate it.  ``None`` (a hand-built
            context) means "no feed": indexes rebuild from ``workers`` on
            every decision.
    """

    now: float
    workers: Sequence[PartitionWorker]
    central_queue: Sequence[int]
    estimator: LatencyFn
    estimators: Optional[Mapping[str, LatencyFn]] = None
    changed: Optional[Sequence[PartitionWorker]] = None

    def oracle_for(self, worker: PartitionWorker) -> LatencyFn:
        """The latency oracle matching ``worker``'s architecture.

        On single-architecture servers this is always :attr:`estimator`
        (same object, so worker-side queued-work caches keep their
        identity); on mixed fleets it is the worker's architecture's oracle.
        """
        estimators = self.estimators
        if estimators is None:
            return self.estimator
        return estimators.get(worker.arch_name, self.estimator)


class Scheduler(abc.ABC):
    """Abstract scheduling policy."""

    #: Human-readable policy name used in reports and experiment tables.
    name: str = "scheduler"

    @abc.abstractmethod
    def on_arrival(
        self, query: Query, context: SchedulingContext
    ) -> Optional[PartitionWorker]:
        """Decide where a newly arrived query goes.

        Returns:
            The worker whose local queue should receive the query, or
            ``None`` to park the query in the server-wide central queue.
        """

    def on_worker_idle(
        self, worker: PartitionWorker, context: SchedulingContext
    ) -> Optional[int]:
        """Pick a row from the central queue for a newly idle worker.

        The returned row must be an element of ``context.central_queue``;
        the simulator removes it from the central queue and enqueues its
        query on ``worker``.  The default implementation returns ``None``
        (nothing to pull), which suits per-partition-queue policies.
        """
        del worker, context
        return None

    def reset(self) -> None:
        """Clear any per-run state.

        The simulator calls this both when a run opens and when it closes.
        One policy object serves every simulator a deployment builds, so
        state kept past the close (an index over the run's workers, say)
        would pin the finished run's workers and the columns they write
        while the next run allocates its own.
        """

    @staticmethod
    def idle_workers(context: SchedulingContext) -> List[PartitionWorker]:
        """Convenience: all completely idle workers, in ``workers`` order
        (smallest partition first).  A scan of every worker; a policy that
        asks on every arrival keeps its own index instead (FIFS does)."""
        return [worker for worker in context.workers if worker.is_idle]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
