"""Baseline scheduling policies.

* :class:`FifsScheduler` — first-idle first-serve, the policy of
  state-of-the-art multi-GPU inference servers such as NVIDIA Triton
  (Section III-C): an arriving query is dispatched to an idle GPU if one
  exists, otherwise it waits in a server-wide FIFO that idle GPUs drain in
  arrival order.
* :class:`LeastLoadedScheduler` — a heterogeneity-*unaware* load balancer
  that always picks the partition with the least outstanding work; a
  stronger-than-FIFS baseline useful for ablations.
* :class:`RandomDispatchScheduler` — dispatches uniformly at random; a lower
  bound sanity check.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.drain_index import DrainIndex
from repro.sim.scheduler_api import Scheduler, SchedulingContext
from repro.sim.worker import PartitionWorker
from repro.workload.query import Query


class FifsScheduler(Scheduler):
    """First-idle first-serve (Triton-style) central-queue scheduler.

    FIFS keeps its own index of the idle workers, sorted by ``(gpcs,
    instance_id)`` (the simulator's ``workers`` order), and keeps it current
    from the context's change feed the way
    :class:`~repro.sim.drain_index.DrainIndex` is fed: an arrival costs
    O(changed workers) instead of a scan of every worker.  A context with no
    feed, or with a different worker list or feed object (a hand-built
    context, a live reconfiguration, a new run), rebuilds the index through
    the :meth:`~repro.sim.scheduler_api.Scheduler.idle_workers` scan.

    Args:
        idle_preference: how to break ties when several partitions are idle:
            ``"round_robin"`` (default) rotates across instances,
            ``"smallest"`` / ``"largest"`` prefer the smallest / largest idle
            partition, ``"random"`` picks uniformly at random.
        seed: RNG seed for the ``"random"`` preference.
    """

    name = "fifs"
    _PREFERENCES = ("round_robin", "smallest", "largest", "random")

    def __init__(self, idle_preference: str = "round_robin", seed: int = 0) -> None:
        if idle_preference not in self._PREFERENCES:
            raise ValueError(
                f"idle_preference must be one of {self._PREFERENCES}, "
                f"got {idle_preference!r}"
            )
        self.idle_preference = idle_preference
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self._dispatch_clock = 0
        self._last_pick: dict = {}
        self._forget()

    def reset(self) -> None:
        self._rng = np.random.default_rng(self._seed)
        self._dispatch_clock = 0
        self._last_pick = {}
        self._forget()

    def on_arrival(
        self, query: Query, context: SchedulingContext
    ) -> Optional[PartitionWorker]:
        idle = self._idle_in_order(context)
        if not idle:
            return None  # park in the central FIFO
        return self._pick(idle)

    def _forget(self) -> None:
        """Drop the idle index (it rebuilds on the next arrival); the index
        holds workers, so a closed run must not keep it."""
        self._idle: List[PartitionWorker] = []
        self._keys: List[Tuple[int, int]] = []
        self._workers: Optional[Sequence[PartitionWorker]] = None
        self._feed: Optional[Sequence[PartitionWorker]] = None

    def _idle_in_order(self, context: SchedulingContext) -> List[PartitionWorker]:
        """The idle workers of ``context`` in ``workers`` order (read-only).

        A worker from the feed joins the list when it is idle and in the
        pool (``retired_at`` unset: not crashed), and leaves it otherwise.
        """
        workers, feed = context.workers, context.changed
        if feed is None or workers is not self._workers or feed is not self._feed:
            self._workers, self._feed = workers, feed
            self._idle = self.idle_workers(context)
            self._keys = [(worker.gpcs, worker.instance_id) for worker in self._idle]
            return self._idle
        idle, keys = self._idle, self._keys
        for worker in feed:
            key = (worker.gpcs, worker.instance_id)
            position = bisect_left(keys, key)
            indexed = position < len(keys) and keys[position] == key
            if worker.is_idle and worker.retired_at is None:
                if not indexed:
                    keys.insert(position, key)
                    idle.insert(position, worker)
            elif indexed:
                del keys[position]
                del idle[position]
        return idle

    def on_worker_idle(
        self, worker: PartitionWorker, context: SchedulingContext
    ) -> Optional[int]:
        # Strict FIFO drain of the central queue (it holds rows).
        if not context.central_queue:
            return None
        return context.central_queue[0]

    def _pick(self, idle: List[PartitionWorker]) -> PartitionWorker:
        if self.idle_preference == "smallest":
            return min(idle, key=lambda w: (w.gpcs, w.instance_id))
        if self.idle_preference == "largest":
            return max(idle, key=lambda w: (w.gpcs, -w.instance_id))
        if self.idle_preference == "random":
            return idle[int(self._rng.integers(len(idle)))]
        # Round robin over *instance ids*, not over the currently idle
        # subset: the old ``ordered[cursor % len(ordered)]`` pick indexed the
        # idle list directly, so the rotation skewed with the idle-set size
        # and could starve high-id instances under load.  Dispatching the
        # least-recently-dispatched idle instance (ids break ties, so a full
        # idle set rotates 0, 1, 2, ... exactly) keeps every instance in the
        # rotation whatever subset happens to be idle.
        chosen = min(
            idle,
            key=lambda w: (self._last_pick.get(w.instance_id, -1), w.instance_id),
        )
        self._dispatch_clock += 1
        self._last_pick[chosen.instance_id] = self._dispatch_clock
        return chosen


class LeastLoadedScheduler(Scheduler):
    """Dispatch to the partition with the least outstanding (estimated) work.

    Unlike FIFS this policy uses per-partition queues and the profiled
    latency estimator, but unlike ELSA it ignores both the SLA and the fact
    that the *same* query runs faster on a larger partition — it only
    minimises the queue backlog, so it still mis-schedules large batches onto
    small partitions under load.
    """

    name = "least-loaded"

    def __init__(self) -> None:
        self._index = DrainIndex()

    def reset(self) -> None:
        self._index.clear()

    def on_arrival(
        self, query: Query, context: SchedulingContext
    ) -> Optional[PartitionWorker]:
        # The minimum (T_wait, id) over every worker is the minimum over the
        # drain-time index's group heads.  oracle_for resolves the right
        # per-architecture estimator on mixed fleets; on single-architecture
        # servers it is context.estimator itself, preserving the workers'
        # queued-work cache identity.
        index = self._index
        index.sync(context, context.oracle_for, context.estimators is not None)
        now = context.now
        heads = [group.best(now, 0.0) for group in index.groups]
        return min(head for head in heads if head is not None)[3]


class RandomDispatchScheduler(Scheduler):
    """Dispatch every query to a uniformly random partition instance."""

    name = "random-dispatch"

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    def reset(self) -> None:
        self._rng = np.random.default_rng(self._seed)

    def on_arrival(
        self, query: Query, context: SchedulingContext
    ) -> Optional[PartitionWorker]:
        index = int(self._rng.integers(len(context.workers)))
        return context.workers[index]
