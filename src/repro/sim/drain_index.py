"""Per-(architecture, size) drain-time index over a scheduler's workers.

ELSA's Step A needs each partition group's least-loaded member (smallest
``T_wait``, then instance id), and its Step B and the least-loaded baseline
need the minimum of ``T_wait`` (plus a per-group constant) over every
worker.  Polling ``estimated_wait`` on every worker per arrival makes one
decision O(workers); on a 366-worker fleet that dominates the replay.  This
index answers the same questions in O(groups) per arrival.

Workers are grouped by ``(architecture, size)`` (by size alone when every
worker shares one latency oracle).  Within a group, execution time of a
given query is constant, so only the members with the smallest wait can win.
Each group keeps two sorted lists of ``(key, instance_id, seq, worker)``
entries:

* ``idle`` — members with nothing executing.  Their wait is their queued
  work, which does not depend on time, so the key *is* the exact wait.
* ``busy`` — members with a query executing.  Their wait is
  ``queued + (finish - now)``; the key is the time-free drain time
  ``queued + finish``.  Ordering by it orders the waits at any ``now``, up
  to rounding.

``seq`` is the worker's position in the context's worker list at the last
rebuild (a worker the feed adds later comes after), so ties on
``(key, instance_id)`` resolve in list order, like the scan it replaces.

**The near-tie window.**  ``key - now`` and the exact wait differ by a few
ulps: ``queued + finish`` and ``queued + (finish - now)`` round
differently.  So two busy siblings whose keys differ by one ulp can have
equal waits, and the one with the larger key may have the lower id and win.
:meth:`WorkerGroup.best` therefore recomputes the exact wait of every busy
member whose approximate score ``key - now + execution`` lies within
:data:`NEAR_TIE` (relative to ``best + now``) of the best exact score found
so far, and stops at the first member beyond it.  The rounding error of
``key - now`` against the exact wait is at most about ``4u`` times the key
(``u = 2**-53``); the window is ``128u``, so a member past it has a strictly
larger exact score and can neither win nor tie.  Members whose query
finished at or before ``now`` only arise in hand-built contexts (the
simulator processes same-instant completions before arrivals); their wait
is clamped to their queued work, which only makes it *larger* than
``key - now``, so the stopping rule holds for them too.

**The change feed.**  The simulator lists, in ``SchedulingContext.changed``,
every worker whose queue, in-flight query, pool membership or slowdown
changed since the previous arrival, and empties the list after each
``on_arrival``.  :meth:`DrainIndex.sync` re-keys exactly those workers and
leaves an entry whose key did not change where it is.  A context with a
different worker list or feed (a live reconfiguration, a new run, a
hand-built context with no feed) rebuilds the index through the same
per-worker code (:meth:`WorkerGroup.locate`).

The index holds its workers; an owner must :meth:`~DrainIndex.clear` it
when the run closes (``Scheduler.reset``), or it pins the finished run.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.scheduler_api import SchedulingContext
from repro.sim.worker import LatencyFn, PartitionWorker

#: Relative width of the near-tie window (``128u``); see the module docstring.
NEAR_TIE = 2.0**-46

_INF = float("inf")

#: ``(key, instance_id, seq, worker)``; ``(key, instance_id, seq)`` is
#: unique, so comparisons never reach the worker.
Entry = Tuple[float, int, int, PartitionWorker]
#: Where a worker's entry lives: its group, the bucket and the entry.
Placement = Tuple["WorkerGroup", List[Entry], Entry]


class WorkerGroup:
    """The members of one ``(architecture, size)`` group, sorted by key.

    Attributes:
        arch: architecture name (``""`` when the index ignores
            architectures).
        gpcs: partition size.
        oracle: the latency oracle every member's wait is estimated with.
        idle / busy: the sorted member entries (see the module docstring).
    """

    __slots__ = ("arch", "busy", "gpcs", "idle", "oracle")

    def __init__(self, arch: str, gpcs: int, oracle: LatencyFn) -> None:
        self.arch = arch
        self.gpcs = gpcs
        self.oracle = oracle
        self.idle: List[Entry] = []
        self.busy: List[Entry] = []

    def locate(self, worker: PartitionWorker) -> Tuple[List[Entry], float]:
        """The bucket ``worker`` belongs in now, and its key there."""
        # An empty queue holds exactly 0.0 work: no fold to run.
        queued = worker.queued_work(self.oracle) if worker.queue else 0.0
        finish = worker.current_finish_time
        if finish is None:
            return self.idle, queued
        return self.busy, queued + finish

    def add(self, worker: PartitionWorker, seq: int) -> Placement:
        """Insert ``worker`` under its current key; returns where it went."""
        bucket, key = self.locate(worker)
        entry = (key, worker.instance_id, seq, worker)
        insort(bucket, entry)
        return self, bucket, entry

    def best(self, now: float, execution: float) -> Optional[Entry]:
        """The member minimising ``(T_wait + execution, instance_id, seq)``.

        Returns ``(score, instance_id, seq, worker)`` with the exact score
        ``estimated_wait(now) + execution``, or ``None`` for an empty group.
        ``execution = 0.0`` gives the least-loaded member (Step A); a
        query's execution time gives its fastest completion (Step B), where
        a larger wait can round to the same total and win on its id.
        """
        oracle = self.oracle
        best_score = _INF
        best_id = best_seq = 0
        best_worker: Optional[PartitionWorker] = None
        idle = self.idle
        size = len(idle)
        position = 0
        # Idle keys are exact waits: visit the lowest id of each distinct
        # key, in ascending order, while its score can still tie.
        while position < size:
            key, instance_id, seq, worker = idle[position]
            if key + execution > best_score:
                break
            score = worker.estimated_wait(now, oracle) + execution
            if score < best_score or (
                score == best_score and (instance_id, seq) < (best_id, best_seq)
            ):
                best_score, best_id, best_seq, best_worker = score, instance_id, seq, worker
            if idle[-1][0] == key:
                break  # the rest share this key, with higher ids
            position += 1
            while idle[position][0] == key:
                position += 1
        for key, instance_id, seq, worker in self.busy:
            if key - now + execution > best_score + NEAR_TIE * (best_score + now):
                break
            score = worker.estimated_wait(now, oracle) + execution
            if score < best_score or (
                score == best_score and (instance_id, seq) < (best_id, best_seq)
            ):
                best_score, best_id, best_seq, best_worker = score, instance_id, seq, worker
        if best_worker is None:
            return None
        return best_score, best_id, best_seq, best_worker


class DrainIndex:
    """Workers grouped by ``(architecture, size)`` with drain-time keys.

    The owner (a scheduler) calls :meth:`sync` once per decision; the
    groups are then current for that context's ``now``.
    """

    def __init__(self) -> None:
        self.groups: List[WorkerGroup] = []
        self._by_key: Dict[Tuple[int, str], WorkerGroup] = {}
        self._where: Dict[PartitionWorker, Placement] = {}
        self._workers: Optional[Sequence[PartitionWorker]] = None
        self._feed: Optional[Sequence[PartitionWorker]] = None
        self._oracle_for: Optional[Callable[[PartitionWorker], LatencyFn]] = None
        self._by_arch = False
        self._next_seq = 0
        self._regrouped = False

    def sync(
        self,
        context: SchedulingContext,
        oracle_for: Callable[[PartitionWorker], LatencyFn],
        by_arch: bool,
    ) -> bool:
        """Bring the index up to date with ``context``.

        Args:
            context: the scheduling context of the current decision.
            oracle_for: resolves a worker's latency oracle (used when a
                group is created).
            by_arch: group by ``(architecture, size)`` rather than by size.

        Returns:
            True when the set of groups changed (a rebuild, or a worker
            joining a group that did not exist), so cached per-group data
            must be dropped.
        """
        workers, feed = context.workers, context.changed
        if feed is None or workers is not self._workers or feed is not self._feed:
            self.clear()
            self._workers, self._feed = workers, feed
            self._oracle_for, self._by_arch = oracle_for, by_arch
            for seq, worker in enumerate(workers):
                self._place(worker, seq)
            self._next_seq = len(workers)
            self._regrouped = False
            return True
        where = self._where
        for worker in feed:
            found = where.get(worker)
            if found is None:
                # new to the index: restored after the last rebuild
                if worker.retired_at is None:
                    self._place(worker, self._next_seq)
                    self._next_seq += 1
                continue
            group, bucket, entry = found
            if worker.retired_at is not None:
                # crashed (or retired by a reconfiguration): out of the pool
                del bucket[bisect_left(bucket, entry)]
                del where[worker]
                continue
            target, key = group.locate(worker)
            if target is bucket and key == entry[0]:
                # Unchanged, so left in place: the feed may list a worker
                # twice, and a start from the local queue often keeps the
                # drain time.
                continue
            del bucket[bisect_left(bucket, entry)]
            entry = (key, entry[1], entry[2], worker)
            insort(target, entry)
            where[worker] = group, target, entry
        regrouped, self._regrouped = self._regrouped, False
        return regrouped

    def clear(self) -> None:
        """Forget every worker (the index then rebuilds on the next sync)."""
        self.groups = []
        self._by_key = {}
        self._where = {}
        self._workers = self._feed = None
        self._oracle_for = None

    def _place(self, worker: PartitionWorker, seq: int) -> None:
        """Add ``worker`` to its group, creating the group if needed."""
        group_key = (worker.gpcs, worker.arch_name if self._by_arch else "")
        group = self._by_key.get(group_key)
        if group is None:
            assert self._oracle_for is not None
            group = WorkerGroup(group_key[1], worker.gpcs, self._oracle_for(worker))
            self._by_key[group_key] = group
            self.groups.append(group)
            self._regrouped = True
        self._where[worker] = group.add(worker, seq)
