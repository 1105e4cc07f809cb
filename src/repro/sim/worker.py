"""GPU partition worker.

A :class:`PartitionWorker` represents one MIG partition instance inside the
inference server.  As in Figure 9 of the paper, every partition has its own
local scheduling queue holding queries yet to be executed, plus (at most) one
query currently executing.  The worker also tracks its cumulative busy time
so the metrics module can report per-partition and server-wide utilization.

Execution times come from the model's :class:`~repro.perf.lookup.ProfileTable`
— the same table ELSA's estimator reads — with an optional multiplicative
noise term to model run-to-run variance of real hardware.

The worker holds *rows* of the run's columnar store
(:class:`~repro.sim.columnar.QueryColumns`), never query objects: its queue
and in-flight slot are row numbers, its timestamps go into the store's
array slots, and the requests are read through ``columns.queries``.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Iterable, List, Optional

import numpy as np

from repro.gpu.partition import PartitionInstance
from repro.sim.columnar import QueryColumns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workload.query import Query

#: Signature of the execution-latency oracle: (model, batch, gpcs) -> seconds.
LatencyFn = Callable[[str, int, int], float]


def _left_fold(estimates: Iterable[float]) -> float:
    """``((0.0 + e0) + e1) + ...``: the one summation order of queued work.

    Not :func:`sum`: from Python 3.12 it compensates float rounding, so it
    would disagree in the last ulp with the ``+=`` that extends a cached
    total, and it returns the int ``0`` for an empty queue.
    """
    total = 0.0
    for estimate in estimates:
        total += estimate
    return total


class PartitionWorker:
    """One schedulable GPU partition instance inside the server.

    Args:
        instance: the partition instance (size + placement) this worker runs.
        latency_fn: oracle returning the execution latency in seconds of a
            query of a given model/batch on a partition of a given size.
        noise_std: relative standard deviation of multiplicative log-normal
            noise applied to execution times (0 = deterministic, the default;
            DNN inference latency is close to deterministic, Section IV-C).
        seed: RNG seed for the noise term.
        created_at: simulation time this worker came online (0 for the
            initial partition set; the reconfiguration completion time for
            workers added by a live repartition).
        columns: the run's columnar store, whose rows the worker's queue
            and in-flight slot address and whose dispatch/start/finish
            slots it writes.
    """

    def __init__(
        self,
        instance: PartitionInstance,
        latency_fn: LatencyFn,
        noise_std: float = 0.0,
        seed: Optional[int] = None,
        created_at: float = 0.0,
        *,
        columns: QueryColumns,
    ) -> None:
        if not 0 <= noise_std < math.inf:
            raise ValueError(f"noise_std must be non-negative and finite, got {noise_std}")
        self.instance = instance
        #: Partition size / id / architecture cached as plain attributes:
        #: the scheduling hot paths read them per arrival, and a chain of
        #: two properties is measurable there.
        self.gpcs: int = instance.gpcs
        self.instance_id: int = instance.instance_id
        self.arch_name: str = instance.partition.architecture.name
        self.latency_fn = latency_fn
        self.noise_std = noise_std
        #: The noise generator is created on the first noisy draw: seeding
        #: one costs tens of microseconds, and noise-free runs never draw.
        self._seed = seed
        self._rng: Optional[np.random.Generator] = None

        #: Rows of the queued (dispatched, not started) queries, in order.
        self.queue: Deque[int] = deque()
        #: Row of the executing query (``None`` when nothing executes).
        self.current_row: Optional[int] = None
        self.current_finish_time: Optional[float] = None
        self.busy_time = 0.0
        #: Number of queries this worker finished.
        self.completed = 0

        #: Active-span bookkeeping for utilization accounting: a worker is
        #: only accountable for the window it actually existed in.
        self.created_at = created_at
        self.retired_at: Optional[float] = None

        #: Straggler multiplier (fault injection): service times and queued
        #: work estimates scale by this factor while it is > 1.0, so
        #: wait-aware schedulers (ELSA, least-loaded) route around the slow
        #: partition.  Exactly 1.0 leaves every code path untouched.
        self.slow_factor: float = 1.0

        self._columns = columns
        self._queries = columns.queries
        self._current_start = 0.0

        #: The queued-work estimate is cached between queue mutations, so
        #: schedulers that poll workers per arrival (ELSA, least-loaded) pay
        #: O(1) instead of re-walking the queue.  Every total is one left
        #: fold from ``0.0`` over the queue (:func:`_left_fold`, extended in
        #: place by ``+=``), so a cached total equals a fresh scan bit for
        #: bit on every Python version.
        self._qw_estimator: Optional[LatencyFn] = None
        #: Per-query estimates (same order as ``queue``) under the current
        #: estimator, so a recompute is a pure float sum with no lookups.
        self._qw_estimates: Deque[float] = deque()
        self._qw_total = 0.0
        self._qw_dirty = True

    # ------------------------------------------------------------------ #
    # identity / state
    # ------------------------------------------------------------------ #
    @property
    def is_idle(self) -> bool:
        """True when nothing is executing and the local queue is empty."""
        return self.current_row is None and not self.queue

    @property
    def is_executing(self) -> bool:
        """True when a query is currently executing."""
        return self.current_row is not None

    @property
    def queue_depth(self) -> int:
        """Number of queries waiting in the local queue (excluding executing)."""
        return len(self.queue)

    # ------------------------------------------------------------------ #
    # execution model
    # ------------------------------------------------------------------ #
    def service_time(self, query: Query) -> float:
        """Execution latency of ``query`` on this partition (with noise, if any)."""
        base = self.latency_fn(query.model, query.batch, self.gpcs)
        if base <= 0:
            raise ValueError(
                f"latency oracle returned non-positive time {base} for "
                f"{query.model} batch {query.batch} on GPU({self.gpcs})"
            )
        if self.slow_factor != 1.0:
            base *= self.slow_factor
        if self.noise_std == 0.0:
            return base
        rng = self._rng
        if rng is None:
            rng = self._rng = np.random.default_rng(self._seed)
        factor = float(rng.lognormal(mean=0.0, sigma=self.noise_std))
        return base * factor

    # ------------------------------------------------------------------ #
    # queue operations (driven by the cluster simulator)
    # ------------------------------------------------------------------ #
    def assign(self, row: int, now: float) -> None:
        """Record that the query of ``row`` was dispatched here at ``now``."""
        columns = self._columns
        columns.dispatch[row] = now
        columns.instance[row] = self.instance_id

    def enqueue(self, row: int, now: float) -> None:
        """Dispatch the query of ``row`` at ``now`` into the local queue."""
        self.assign(row, now)
        if self._qw_estimator is not None:
            # Estimate before mutating, so an estimator error cannot leave
            # the queue and its estimate cache out of sync.
            query = self._queries[row]
            estimate = self._qw_estimator(query.model, query.batch, self.gpcs)
            self.queue.append(row)
            self._qw_estimates.append(estimate)
            if not self._qw_dirty:
                # Appending on the right extends the cached left-to-right
                # sum exactly (same fold order as a fresh scan).
                self._qw_total += estimate
        else:
            self.queue.append(row)

    def start(self, row: int, now: float) -> float:
        """Begin executing the query of ``row`` at ``now``; returns its
        completion time.

        The worker must have nothing executing.  A query dispatched to a
        worker with nothing executing and nothing queued starts here at
        once (after :meth:`assign`), without passing through the queue.
        """
        self._columns.start[row] = now
        self._current_start = now
        duration = self.service_time(self._queries[row])
        self.current_row = row
        finish = self.current_finish_time = now + duration
        return finish

    def start_next(self, now: float) -> Optional[float]:
        """Begin executing the head of the local queue, if idle and non-empty.

        Returns:
            The completion timestamp of the started query, or ``None`` when
            nothing was started (already busy, or queue empty).
        """
        if self.current_row is not None or not self.queue:
            return None
        row = self.queue.popleft()
        if self._qw_estimates:
            self._qw_estimates.popleft()
        self._qw_dirty = True
        return self.start(row, now)

    def complete_current(self, now: float) -> int:
        """Finish the currently executing query at time ``now``; returns
        its row.

        Raises:
            RuntimeError: if no query is executing.
        """
        row = self.current_row
        if row is None or self.current_finish_time is None:
            raise RuntimeError(
                f"worker {self.instance_id} has no executing query to complete"
            )
        self._columns.finish[row] = now
        self.busy_time += now - self._current_start
        self.completed += 1
        self.current_row = None
        self.current_finish_time = None
        return row

    # ------------------------------------------------------------------ #
    # introspection used by schedulers (ELSA's T_wait, Equation 1)
    # ------------------------------------------------------------------ #
    def remaining_execution_time(self, now: float) -> float:
        """Remaining execution time of the in-flight query (0 when idle).

        This mirrors the paper's timestamp mechanism: the scheduler knows the
        estimated end-to-end time of the executing query and how long it has
        been running, and derives the remainder.
        """
        if self.current_finish_time is None:
            return 0.0
        return max(0.0, self.current_finish_time - now)

    def queued_work(self, estimator: LatencyFn) -> float:
        """Summed estimated execution time of every queued (not started) query.

        The sum is recomputed only after the queue changed or when queried
        with a different estimator object; schedulers that poll every worker
        per arrival with one persistent estimator therefore pay O(1) here.
        """
        if estimator is not self._qw_estimator:
            gpcs = self.gpcs
            self._qw_estimates = deque(
                estimator(query.model, query.batch, gpcs)
                for query in map(self._queries.__getitem__, self.queue)
            )
            self._qw_estimator = estimator
            self._qw_total = _left_fold(self._qw_estimates)
            self._qw_dirty = False
        elif self._qw_dirty:
            # A fresh fold over the cached per-query estimates: bit-identical
            # to scanning the queue through the estimator.
            self._qw_total = _left_fold(self._qw_estimates)
            self._qw_dirty = False
        if self.slow_factor != 1.0:
            return self._qw_total * self.slow_factor
        return self._qw_total

    def estimated_wait(self, now: float, estimator: LatencyFn) -> float:
        """ELSA's ``T_wait``: queued work plus remainder of the running query.

        Called for every visited candidate of every scheduling decision, so
        the clean-cache case is answered inline instead of through two
        further method calls; the arithmetic is identical either way.
        """
        if estimator is self._qw_estimator and not self._qw_dirty:
            queued = self._qw_total
            if self.slow_factor != 1.0:
                queued *= self.slow_factor
        else:
            queued = self.queued_work(estimator)
        finish = self.current_finish_time
        if finish is None:
            return queued
        remaining = finish - now
        return queued + (remaining if remaining > 0.0 else 0.0)

    def abort_current(self, now: float) -> Optional[int]:
        """Abort the in-flight query at ``now`` (the worker crashed).

        The partial execution still counts as busy time — the partition
        really was occupied until the crash — but the query's completion
        never happens; the caller requeues or fails it and discards the
        already-scheduled completion event.

        Returns:
            The aborted query's row, or ``None`` when nothing was executing.
        """
        row = self.current_row
        if row is None:
            return None
        self.busy_time += now - self._current_start
        self.current_row = None
        self.current_finish_time = None
        return row

    def drain_queue(self) -> List[int]:
        """Remove and return the rows of every queued (not started) query,
        in order.

        Used by live reconfiguration to pull un-started work back off a
        retiring partition; keeps the queued-work cache consistent.
        """
        drained = list(self.queue)
        self.queue.clear()
        self._qw_estimates.clear()
        self._qw_dirty = True
        return drained

    def utilization(self, horizon: float) -> float:
        """Fraction of ``[0, horizon]`` this partition spent executing queries."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / horizon)

    def active_span(self, makespan: float) -> float:
        """Wall-clock span this worker existed within ``[0, makespan]``.

        Workers retired by a live repartition stop accruing (and stop being
        accountable for) time at ``retired_at``; workers added by one only
        start at ``created_at``.  Utilization statistics normalise busy time
        by this span rather than the whole-run makespan, so a fully busy
        worker that was retired halfway through a run still reports ~1.0.
        """
        end = makespan if self.retired_at is None else min(self.retired_at, makespan)
        return max(0.0, end - self.created_at)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "busy" if self.is_executing else "idle"
        return (
            f"PartitionWorker(id={self.instance_id}, GPU({self.gpcs}), {state}, "
            f"queued={self.queue_depth})"
        )
