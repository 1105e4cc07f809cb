"""ELSA: the ELastic Scheduling Algorithm (Algorithm 2 of the paper).

ELSA is heterogeneity-aware: it knows, from the profiled lookup table, how
long a query would take on each partition size, and it tracks how much work
is already queued on every partition.  Scheduling a new query proceeds in two
steps:

* **Step A** — iterate the partitions from *smallest to largest*; the first
  partition whose predicted SLA slack is positive receives the query.
  Preferring the smallest feasible partition maximises GPU utilization
  (running a small batch on a big partition wastes its compute).
* **Step B** — if no partition can meet the SLA, send the query to the
  partition that will finish it soonest (minimum ``T_wait +
  T_estimated,new``), minimising the lingering damage the late query causes
  to subsequent ones.

Queries without an SLA target are treated as "SLA never violated"; they are
still placed with Step A's smallest-feasible-partition preference using the
slack of an infinite SLA, which degenerates to the smallest partition.  To
avoid pathological pile-up on the smallest instance, such queries instead use
Step B (fastest completion), which is also what a latency-optimising operator
would want when no SLA is defined.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.slack import SlackEstimator
from repro.perf.lookup import ProfileTable
from repro.sim.drain_index import DrainIndex, WorkerGroup
from repro.sim.scheduler_api import Scheduler, SchedulingContext
from repro.sim.worker import PartitionWorker
from repro.workload.query import Query


class ElsaScheduler(Scheduler):
    """Heterogeneity-aware elastic scheduler (Algorithm 2).

    Args:
        profile: profiled lookup table of the primary served model (the
            ``T_estimated`` source).
        alpha: slack-predictor safety coefficient (Equation 2).
        beta: slack-predictor weight on the new query's execution time.
        prefer_smallest: iterate candidate partitions smallest-first in
            Step A (the paper's design).  Setting this to ``False`` iterates
            largest-first — exposed for the ablation study.
        profiles: per-model lookup tables for multi-model servers; queries of
            models absent from the mapping fall back to ``profile``.
        arch_profiles: per-architecture per-model lookup tables for
            mixed-architecture fleets (``architecture name -> model name ->
            table``).  With two or more architectures ELSA schedules
            heterogeneity-aware *across generations*: partitions group by
            ``(architecture, size)``, each group's ``T_estimated`` comes
            from its own architecture's table, and Step A's
            smallest-partition-first preference generalises to
            least-capable-first (slowest estimated execution first) so the
            cheapest slice that still meets the SLA wins.  ``None`` (or a
            single architecture) keeps the classic single-architecture
            behaviour bit-for-bit.
    """

    name = "elsa"

    def __init__(
        self,
        profile: ProfileTable,
        alpha: float = 1.0,
        beta: float = 1.0,
        prefer_smallest: bool = True,
        profiles: Optional[Mapping[str, ProfileTable]] = None,
        arch_profiles: Optional[Mapping[str, Mapping[str, ProfileTable]]] = None,
    ) -> None:
        self.estimator = SlackEstimator(
            profile, alpha=alpha, beta=beta, profiles=profiles,
            arch_profiles=arch_profiles,
        )
        self.prefer_smallest = prefer_smallest
        #: Plain bool read once per arrival (cheaper than the property);
        #: mixed fleets group workers by (architecture, size), others by size.
        self._hetero = self.estimator.heterogeneous
        #: Per-run state, released by :meth:`reset`.
        self._index = DrainIndex()
        self._orders: Dict[Tuple[str, int], List[Tuple[WorkerGroup, float]]] = {}

    # ------------------------------------------------------------------ #
    # Algorithm 2
    # ------------------------------------------------------------------ #
    def on_arrival(
        self, query: Query, context: SchedulingContext
    ) -> Optional[PartitionWorker]:
        # Decisions run over the drain-time index: within one group
        # execution time is constant, so Step A only ever accepts a group's
        # least-loaded member (smallest (T_wait, id)) — if it misses the SLA
        # slack, every sibling does — and Step B's winner, the minimum of
        # (T_wait + T_estimated, gpcs, id), is the minimum over the groups'
        # own winners.  Each group answers from its few front members, so
        # an arrival costs O(groups), not O(workers), with the same float
        # operations and the same decisions as walking predictions().
        estimator = self.estimator
        if self._index.sync(context, estimator.oracle_for, self._hetero):
            self._orders.clear()
        now = context.now
        order = self._orders.get((query.model, query.batch))
        if order is None:
            order = self._step_a_order(query.model, query.batch)

        sla = query.sla_target
        if sla is not None:
            # Step A: the first group (smallest / least capable first) whose
            # least-loaded member still satisfies the SLA.
            alpha, beta = estimator.alpha, estimator.beta
            for group, execution in order:
                head = group.best(now, 0.0)
                if head is not None and sla - alpha * (head[0] + beta * execution) > 0.0:
                    return head[3]

        # Step B: no partition satisfies the SLA (or the query carries no
        # SLA): pick the partition that completes the query the fastest.
        best: Optional[Tuple[float, int, int, int]] = None
        best_worker: Optional[PartitionWorker] = None
        for group, execution in order:
            winner = group.best(now, execution)
            if winner is not None:
                rank = (winner[0], group.gpcs, winner[1], winner[2])
                if best is None or rank < best:
                    best, best_worker = rank, winner[3]
        return best_worker

    def _step_a_order(self, model: str, batch: int) -> List[Tuple[WorkerGroup, float]]:
        """The index's groups in Step-A order, each with ``T_estimated`` of a
        ``(model, batch)`` query there (memoized in ``_orders`` until the
        groups change).

        Smallest partition first on one architecture.  On a mixed fleet the
        preference generalises to *least capable first*: descending
        estimated execution time of this very query (slowest slice first),
        ties by size then architecture name.  ``prefer_smallest=False``
        reverses either order.
        """
        order = [
            (group, group.oracle(model, batch, group.gpcs)) for group in self._index.groups
        ]
        if self._hetero:
            order.sort(key=lambda pair: (-pair[1], pair[0].gpcs, pair[0].arch))
        else:
            order.sort(key=lambda pair: pair[0].gpcs)
        if not self.prefer_smallest:
            order.reverse()
        self._orders[(model, batch)] = order
        return order

    def reset(self) -> None:
        """Release the drain-time index and its memoized group orders."""
        self._index.clear()
        self._orders.clear()

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def predictions(
        self, query: Query, context: SchedulingContext
    ) -> List[tuple]:
        """Slack predictions for ``query`` on every partition, in Step-A order.

        Partitions are visited from the smallest size upwards (Algorithm 2,
        line 3); among instances of the same size, the least-loaded instance
        (smallest ``T_wait``) is considered first so that equal-sized
        partitions share load instead of piling queries onto one queue.
        """
        scored = [
            (
                self.estimator.predict(
                    worker, query.batch, query.sla_target, context.now,
                    model=query.model,
                ),
                worker,
            )
            for worker in context.workers
        ]
        scored.sort(
            key=lambda pw: (
                -pw[1].gpcs if not self.prefer_smallest else pw[1].gpcs,
                pw[0].wait_time,
                pw[1].instance_id,
            )
        )
        return scored

    @property
    def profile(self) -> ProfileTable:
        """The profiled lookup table backing the slack estimator."""
        return self.estimator.profile
