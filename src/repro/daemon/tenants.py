"""Multi-tenant serving over one shared GPU fleet.

The daemon multiplexes N concurrent tenants over a single reconfigurable
pool.  Two pieces make that safe:

* :class:`FleetPool` is the **accounting** layer: the fleet's per-server GPC
  budgets are the shared resource, and every tenant admission carves a
  :class:`QuotaGrant` out of the free budget (first-fit in fleet order, via
  :func:`repro.gpu.fleet.carve_budgets`).  A grant materialises as a
  reduced-budget sub-fleet (:func:`repro.gpu.fleet.sliced_specs`), i.e. a
  perfectly ordinary :class:`~repro.serving.config.ServerConfig` the tenant's
  session deploys against.  Releasing the grant returns the GPCs to the pool.

* :class:`TenantSession` is the **isolation** layer: each tenant drives its
  own :class:`~repro.serving.session.ServingSession` (its own simulator, its
  own windowed metrics, its own triggers) over its quota slice.  Tenants
  share *capacity accounting* but no mutable simulation state, which is why
  a tenant's results are bit-identical to running its scenario alone on the
  same quota slice — the property the daemon's end-to-end test pins.

Quotas are fixed for a grant's lifetime: elasticity *within* a slice comes
from the tenant's own drift triggers (live repartitioning of its sub-fleet),
and fairness *across* tenants comes from admission — when tenants leave,
their GPCs free up for the next queued job, and :meth:`FleetPool.fair_share`
tells an admission policy what an equal split currently looks like.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.gpu.fleet import FleetServerSpec, carve_budgets, sliced_specs
from repro.serving.config import ServerConfig, config_with_fleet
from repro.serving.session import ServingSession, SessionResult, SessionWorkload
from repro.sim.hooks import WindowStats


class QuotaExceededError(RuntimeError):
    """A quota acquisition the pool's free budget cannot satisfy."""

    def __init__(self, message: str, *, requested: int = 0, free: int = 0):
        super().__init__(message)
        self.requested = requested
        self.free = free


@dataclass(frozen=True)
class QuotaGrant:
    """One tenant's carved share of the shared pool.

    Attributes:
        tenant: the owning tenant's name.
        quota_gpcs: total GPCs granted.
        allocation: per-server GPC shares, in fleet order (zeros included).
        specs: the reduced-budget sub-fleet the allocation describes.
    """

    tenant: str
    quota_gpcs: int
    allocation: Tuple[int, ...]
    specs: Tuple[FleetServerSpec, ...]


class FleetPool:
    """GPC accounting for one fleet shared by many tenants.

    Args:
        servers: the fleet's member servers — anything
            :meth:`~repro.gpu.fleet.FleetServerSpec.coerce` accepts.

    Acquisition is deterministic: grants are carved first-fit in fleet order
    against the *current* free budgets, so replaying the same sequence of
    ``acquire``/``release`` calls always yields the same sub-fleets — the
    anchor for reproducing a tenant's run standalone.
    """

    def __init__(
        self, servers: Sequence[Union[FleetServerSpec, tuple]],
    ) -> None:
        specs = tuple(FleetServerSpec.coerce(server) for server in servers)
        if not specs:
            raise ValueError("a FleetPool requires at least one server")
        self.specs: Tuple[FleetServerSpec, ...] = specs
        self._free: List[int] = [spec.effective_gpc_budget for spec in specs]
        self._grants: Dict[str, QuotaGrant] = {}

    # ------------------------------------------------------------------ #
    # capacity introspection
    # ------------------------------------------------------------------ #
    @property
    def total_gpcs(self) -> int:
        """The pool's total GPC budget."""
        return sum(spec.effective_gpc_budget for spec in self.specs)

    @property
    def free_gpcs(self) -> int:
        """GPCs not held by any grant."""
        return sum(self._free)

    @property
    def free_by_server(self) -> Tuple[int, ...]:
        """Free GPCs per server, in fleet order."""
        return tuple(self._free)

    @property
    def grants(self) -> Dict[str, QuotaGrant]:
        """Live grants keyed by tenant name."""
        return dict(self._grants)

    @property
    def tenants(self) -> Tuple[str, ...]:
        """Names of tenants currently holding a grant, in admission order."""
        return tuple(self._grants)

    def fair_share(self, num_tenants: int) -> int:
        """An equal split of the *total* pool across ``num_tenants``."""
        if num_tenants < 1:
            raise ValueError("num_tenants must be >= 1")
        share = self.total_gpcs // num_tenants
        if share < 1:
            raise ValueError(
                f"{self.total_gpcs} GPCs cannot give {num_tenants} tenants "
                "a positive share"
            )
        return share

    def describe(self) -> str:
        """Readable pool state, e.g. ``2xA100(12) + 2xA100(12): 9/24 free``."""
        shape = " + ".join(spec.describe() for spec in self.specs)
        return f"{shape}: {self.free_gpcs}/{self.total_gpcs} GPCs free"

    # ------------------------------------------------------------------ #
    # acquisition / release
    # ------------------------------------------------------------------ #
    def acquire(self, tenant: str, quota_gpcs: int) -> QuotaGrant:
        """Carve ``quota_gpcs`` out of the free budget for ``tenant``.

        Raises:
            ValueError: for an empty tenant name, a non-positive quota, or a
                tenant that already holds a grant.
            QuotaExceededError: when the free budget cannot cover the quota
                (the pool is left untouched; retry after a release).
        """
        if not tenant:
            raise ValueError("tenant must be a non-empty name")
        if tenant in self._grants:
            raise ValueError(f"tenant {tenant!r} already holds a grant")
        if quota_gpcs <= 0:
            raise ValueError("quota_gpcs must be positive")
        try:
            allocation = carve_budgets(self.specs, quota_gpcs, free=self._free)
        except ValueError as error:
            raise QuotaExceededError(
                f"cannot grant {quota_gpcs} GPCs to {tenant!r}: {error}",
                requested=quota_gpcs,
                free=self.free_gpcs,
            ) from error
        grant = QuotaGrant(
            tenant=tenant,
            quota_gpcs=quota_gpcs,
            allocation=allocation,
            specs=sliced_specs(self.specs, allocation),
        )
        for index, share in enumerate(allocation):
            self._free[index] -= share
        self._grants[tenant] = grant
        return grant

    def release(self, tenant: str) -> None:
        """Return a tenant's GPCs to the pool.

        Raises:
            KeyError: when the tenant holds no grant.
        """
        grant = self._grants.pop(tenant, None)
        if grant is None:
            raise KeyError(f"tenant {tenant!r} holds no grant")
        for index, share in enumerate(grant.allocation):
            self._free[index] += share

    # ------------------------------------------------------------------ #
    # per-tenant configs
    # ------------------------------------------------------------------ #
    def config_for(self, grant: QuotaGrant, template: ServerConfig) -> ServerConfig:
        """The :class:`ServerConfig` a grant's tenant deploys against.

        The template carries the design point (model, partitioner, scheduler,
        SLA knobs); the grant supplies the fleet slice.  The derivation is a
        pure function of ``(grant, template)``, so re-acquiring the same
        grant in a fresh pool reproduces the exact same config — the basis
        of the standalone-equivalence guarantee.
        """
        return config_with_fleet(template, grant.specs)


class TenantSession:
    """One tenant's streaming run, advanced in fixed simulated-time steps.

    Wraps a :class:`~repro.serving.session.ServingSession` with the driving
    discipline the daemon's job loop needs: an internal monotonic cursor
    (``run_until`` alone would stall when event gaps exceed the step, since
    the simulation clock only advances to the last processed event) and
    incremental delivery of *closed* metric windows for live streaming.

    Args:
        name: tenant name (job id, typically).
        session: the tenant's own session — never shared with other tenants.
        workload: what to run (scenario, trace or workload config).
        seed: optional seed override forwarded to ``begin``.
    """

    def __init__(
        self,
        name: str,
        session: ServingSession,
        workload: SessionWorkload,
        seed: Optional[int] = None,
    ) -> None:
        self.name = name
        self.session = session
        self.workload = workload
        self.seed = seed
        self._cursor = 0.0
        self._started = False
        self._emitted = 0
        self._emitted_events = 0
        self._emitted_faults = 0

    @property
    def started(self) -> bool:
        """True once :meth:`start` opened the run."""
        return self._started

    @property
    def done(self) -> bool:
        """True when the run has drained (or was never started)."""
        return self._started and self.session.pending_events == 0

    @property
    def now(self) -> float:
        """Current simulation time of the tenant's run."""
        return self.session.now

    def start(self) -> None:
        """Open the streaming run (idempotent once started)."""
        if self._started:
            return
        self.session.begin(self.workload, seed=self.seed)
        self._started = True

    def advance(self, step: float) -> float:
        """Advance the run by ``step`` simulated seconds of wall-clock budget.

        The cursor grows monotonically by ``step`` per call regardless of
        how far the event clock actually moved, so a sparse tail (event gaps
        longer than the step) still drains in finitely many calls.

        Returns:
            The simulation time after processing.
        """
        if not 0 < step < math.inf:
            raise ValueError(f"step must be positive and finite, got {step}")
        if not self._started:
            raise RuntimeError("advance() before start()")
        self._cursor = max(self._cursor, self.session.now) + step
        return self.session.run_until(self._cursor)

    def new_windows(self) -> List[WindowStats]:
        """Windows that closed since the last call (for incremental streams).

        A window is *closed* once the simulation clock has passed its end —
        its statistics can no longer change, so it is safe to publish.
        """
        if not self._started:
            return []
        series = self.session.windows()
        now = self.session.now
        draining = self.session.pending_events == 0
        fresh: List[WindowStats] = []
        for window in series[self._emitted:]:
            if window.end <= now or draining:
                fresh.append(window)
            else:
                break
        self._emitted += len(fresh)
        return fresh

    def new_fleet_events(self) -> List:
        """Fleet control-plane events recorded since the last call.

        Empty for sessions without an autoscaler/preemption schedule (and
        with no manual fleet mutations).  Delivered in record order so the
        daemon can interleave them with the window stream.
        """
        if not self._started:
            return []
        events = self.session.fleet_events()
        fresh = list(events[self._emitted_events:])
        self._emitted_events += len(fresh)
        return fresh

    def new_fault_events(self) -> List:
        """Fault-injection records logged since the last call.

        Empty for sessions without a fault schedule.  Delivered in record
        order so the daemon can stream them alongside windows and fleet
        events.
        """
        if not self._started:
            return []
        records = self.session.fault_events()
        fresh = list(records[self._emitted_faults:])
        self._emitted_faults += len(fresh)
        return fresh

    def finish(self) -> SessionResult:
        """Drain and seal the run (idempotent via the session)."""
        if not self._started:
            raise RuntimeError("finish() before start()")
        return self.session.finish()

    def abort(self) -> SessionResult:
        """Seal the run *now* without draining — the cancellation path."""
        if not self._started:
            raise RuntimeError("abort() before start()")
        return self.session.abort()


__all__ = [
    "FleetPool",
    "QuotaExceededError",
    "QuotaGrant",
    "TenantSession",
]
