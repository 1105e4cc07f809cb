"""Asyncio job manager: typed lifecycle, quota-gated admission, artifacts.

A *job* is one tenant workload — a registered scenario name plus options —
run to completion (or cancellation) on a quota slice of the shared fleet.
:class:`JobManager` owns the full lifecycle:

``PENDING`` → admission (class-priority: ``gold`` jobs go to the head of
the queue before ``standard`` before ``best-effort``, FIFO within a class;
the head job waits until its quota fits the pool's free budget) →
``RUNNING`` (the tenant session advances in fixed
simulated-time chunks, yielding to the event loop between chunks and
publishing closed metric windows) → ``COMPLETED`` / ``CANCELLED`` /
``FAILED``.  Cancellation is honoured at chunk granularity: a running job
seals a *partial* result via :meth:`ServingSession.abort` and its quota is
released immediately.

Every job gets its own artifact directory under the manager's root —
mubench-style one-directory-per-run::

    artifacts/
      job-0001/
        job.json        # the submitted spec + identity + timestamps
        windows.ndjson  # closed metric windows, one JSON object per line
        result.json     # terminal state + final summary

which :mod:`repro.analysis.artifacts` digests back into run tables.

Determinism: jobs interleave only on the event loop, never inside a
simulator — each tenant session is fully isolated (see
:mod:`repro.daemon.tenants`), so concurrency affects wall-clock scheduling
but not a single simulated outcome.
"""

from __future__ import annotations

import asyncio
import dataclasses
import enum
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, AsyncIterator, Dict, List, Optional

from repro.daemon.tenants import (
    FleetPool,
    QuotaExceededError,
    QuotaGrant,
    TenantSession,
)
from repro.serving.config import ServerConfig
from repro.serving.session import ServingSession, SessionResult
from repro.sim.hooks import WindowStats
from repro.workload.scenario import build_scenario

#: Default simulated seconds a job advances per event-loop turn.  Small
#: enough that cancellation and window streaming stay responsive, large
#: enough that the per-chunk bookkeeping stays negligible.
DEFAULT_CHUNK = 5.0

#: Tenant SLA classes and their admission priority (lower admits first).
#: ``best-effort`` is the default, which keeps a single-class queue exactly
#: FIFO — the pre-SLA-class behavior.
SLA_CLASSES: Dict[str, int] = {"gold": 0, "standard": 1, "best-effort": 2}


class JobState(str, enum.Enum):
    """Typed lifecycle states of a daemon job."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    CANCELLED = "cancelled"
    FAILED = "failed"

    @property
    def terminal(self) -> bool:
        """True for states a job can never leave."""
        return self in (JobState.COMPLETED, JobState.CANCELLED, JobState.FAILED)


@dataclass(frozen=True)
class JobSpec:
    """What a tenant submits: a scenario by registry name, plus knobs.

    Attributes:
        tenant: tenant label (informational; jobs are keyed by job id).
        scenario: registered scenario name (``"diurnal"``, ``"burst"``, ...).
        options: keyword options forwarded to the scenario factory.
        quota_gpcs: GPCs to reserve; ``None`` asks for the manager's default
            (a fair share of the pool).
        seed: optional trace-generation / noise seed override.
        sla_class: admission class — one of :data:`SLA_CLASSES`
            (``"gold"`` jumps the queue, ``"best-effort"`` is the default).
    """

    tenant: str
    scenario: str
    options: Dict[str, Any] = field(default_factory=dict)
    quota_gpcs: Optional[int] = None
    seed: Optional[int] = None
    sla_class: str = "best-effort"

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ValueError("tenant must be non-empty")
        if not self.scenario:
            raise ValueError("scenario must be non-empty")
        if self.quota_gpcs is not None and self.quota_gpcs <= 0:
            raise ValueError("quota_gpcs must be positive when set")
        if self.sla_class not in SLA_CLASSES:
            raise ValueError(
                f"unknown sla_class {self.sla_class!r}; "
                f"accepted: {sorted(SLA_CLASSES)}"
            )
        object.__setattr__(self, "options", dict(self.options))

    @classmethod
    def from_payload(cls, payload: Any) -> "JobSpec":
        """Validate and build a spec from a decoded JSON payload.

        Raises:
            ValueError: for a non-object payload, unknown keys, or invalid
                field values — with messages suitable for a 400 response.
        """
        if not isinstance(payload, dict):
            raise ValueError("job payload must be a JSON object")
        known = {"tenant", "scenario", "options", "quota_gpcs", "seed", "sla_class"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown job field(s) {unknown}; accepted: {sorted(known)}"
            )
        missing = sorted(k for k in ("tenant", "scenario") if not payload.get(k))
        if missing:
            raise ValueError(f"job payload requires non-empty {missing}")
        options = payload.get("options") or {}
        if not isinstance(options, dict):
            raise ValueError("options must be a JSON object")
        return cls(
            tenant=str(payload["tenant"]),
            scenario=str(payload["scenario"]),
            options=options,
            quota_gpcs=payload.get("quota_gpcs"),
            seed=payload.get("seed"),
            sla_class=str(payload.get("sla_class", "best-effort")),
        )

    def to_payload(self) -> Dict[str, Any]:
        """The JSON-serialisable form (round-trips via :meth:`from_payload`)."""
        return {
            "tenant": self.tenant,
            "scenario": self.scenario,
            "options": dict(self.options),
            "quota_gpcs": self.quota_gpcs,
            "seed": self.seed,
            "sla_class": self.sla_class,
        }


def window_to_dict(window: WindowStats) -> Dict[str, Any]:
    """One metric window as a JSON-serialisable dict (the NDJSON row)."""
    return dataclasses.asdict(window)


def _append_ndjson(path: Path, rows: List[Dict[str, Any]]) -> None:
    """Append ``rows`` to an NDJSON file (sync; run via ``asyncio.to_thread``)."""
    with open(path, "a") as stream:
        for row in rows:
            stream.write(json.dumps(row) + "\n")


def _write_json_file(path: Path, payload: Dict[str, Any]) -> None:
    """Write ``payload`` as JSON (sync; run via ``asyncio.to_thread``)."""
    path.write_text(json.dumps(payload, indent=2, default=str) + "\n")


@dataclass
class Job:
    """One submitted job and everything observed about it so far."""

    job_id: str
    spec: JobSpec
    state: JobState = JobState.PENDING
    grant: Optional[QuotaGrant] = None
    error: Optional[str] = None
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    artifact_dir: Optional[Path] = None
    windows: List[Dict[str, Any]] = field(default_factory=list)
    fleet_events: List[Dict[str, Any]] = field(default_factory=list)
    fault_events: List[Dict[str, Any]] = field(default_factory=list)
    summary: Optional[Dict[str, Any]] = None
    result: Optional[SessionResult] = None
    cancel_requested: bool = False

    def describe(self) -> Dict[str, Any]:
        """The status document served by ``GET /jobs/{id}``."""
        return {
            "job_id": self.job_id,
            "state": self.state.value,
            "tenant": self.spec.tenant,
            "scenario": self.spec.scenario,
            "sla_class": self.spec.sla_class,
            "quota_gpcs": self.grant.quota_gpcs if self.grant else self.spec.quota_gpcs,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "windows": len(self.windows),
            "fleet_events": len(self.fleet_events),
            "fault_events": len(self.fault_events),
            "error": self.error,
            "summary": self.summary,
        }


class JobManager:
    """Submit/status/cancel/list over one shared :class:`FleetPool`.

    Args:
        pool: the shared fleet's quota accounting.
        template: the design-point config every tenant session derives its
            slice config from (model, partitioner, scheduler, SLA knobs).
        artifact_root: directory receiving one subdirectory per job.
        chunk: simulated seconds advanced per event-loop turn.
        default_quota: GPCs granted when a spec names none; defaults to a
            fair share of the pool across ``expected_tenants``.
        expected_tenants: divisor for the default fair-share quota.
        session_kwargs: extra :class:`ServingSession` keyword arguments
            applied to every job (``window``, ``triggers``,
            ``reconfig_cost``, ...) — also what a standalone reproduction of
            a job must pass to match it bit-for-bit.
    """

    def __init__(
        self,
        pool: FleetPool,
        template: ServerConfig,
        artifact_root: Path,
        *,
        chunk: float = DEFAULT_CHUNK,
        default_quota: Optional[int] = None,
        expected_tenants: int = 4,
        session_kwargs: Optional[Dict[str, Any]] = None,
    ) -> None:
        if not 0 < chunk < math.inf:
            raise ValueError(f"chunk must be positive and finite, got {chunk}")
        self.pool = pool
        self.template = template
        self.artifact_root = Path(artifact_root)
        self.chunk = chunk
        self.default_quota = (
            default_quota
            if default_quota is not None
            else pool.fair_share(expected_tenants)
        )
        self.session_kwargs: Dict[str, Any] = dict(session_kwargs or {})
        self._jobs: Dict[str, Job] = {}
        self._tasks: Dict[str, asyncio.Task] = {}
        self._queue: List[tuple] = []
        self._admit_seq = 0
        self._capacity: Optional[asyncio.Condition] = None
        self._events: Dict[str, asyncio.Condition] = {}
        self._counter = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # loop-bound primitives (created lazily inside the running loop)
    # ------------------------------------------------------------------ #
    def _condition(self) -> asyncio.Condition:
        if self._capacity is None:
            self._capacity = asyncio.Condition()
        return self._capacity

    def _job_event(self, job_id: str) -> asyncio.Condition:
        if job_id not in self._events:
            self._events[job_id] = asyncio.Condition()
        return self._events[job_id]

    async def _publish(self, job: Job) -> None:
        """Wake every stream/watcher blocked on this job."""
        condition = self._job_event(job.job_id)
        async with condition:
            condition.notify_all()

    # ------------------------------------------------------------------ #
    # the public API surface
    # ------------------------------------------------------------------ #
    def get(self, job_id: str) -> Job:
        """The job record, or raise ``KeyError`` with the known ids."""
        job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(
                f"unknown job {job_id!r}; known jobs: {sorted(self._jobs)}"
            )
        return job

    def list_jobs(self) -> List[Dict[str, Any]]:
        """Status documents of every job, in submission order."""
        return [job.describe() for job in self._jobs.values()]

    def fleet_status(self) -> Dict[str, Any]:
        """The pool's capacity document served by ``GET /fleet``."""
        return {
            "shape": " + ".join(spec.describe() for spec in self.pool.specs),
            "total_gpcs": self.pool.total_gpcs,
            "free_gpcs": self.pool.free_gpcs,
            "free_by_server": list(self.pool.free_by_server),
            "grants": {
                name: grant.quota_gpcs
                for name, grant in self.pool.grants.items()
            },
            "default_quota_gpcs": self.default_quota,
        }

    def submit(self, spec: JobSpec) -> Job:
        """Accept a job and schedule its run on the current event loop.

        Raises:
            RuntimeError: after :meth:`shutdown` (the daemon is draining).
            ValueError: when the requested quota can never fit the pool.
        """
        if self._closed:
            raise RuntimeError("the job manager is shut down")
        quota = spec.quota_gpcs if spec.quota_gpcs is not None else self.default_quota
        if quota > self.pool.total_gpcs:
            raise ValueError(
                f"quota of {quota} GPCs exceeds the pool's total of "
                f"{self.pool.total_gpcs} — this job could never be admitted"
            )
        self._counter += 1
        job = Job(job_id=f"job-{self._counter:04d}", spec=spec)
        job.artifact_dir = self.artifact_root / job.job_id
        job.artifact_dir.mkdir(parents=True, exist_ok=True)
        self._write_json(
            job.artifact_dir / "job.json",
            {**spec.to_payload(), "job_id": job.job_id,
             "submitted_at": job.submitted_at, "quota_gpcs": quota},
        )
        self._jobs[job.job_id] = job
        self._tasks[job.job_id] = asyncio.get_running_loop().create_task(
            self._run(job, quota), name=job.job_id
        )
        return job

    async def cancel(self, job_id: str) -> Job:
        """Request cancellation; returns the (possibly already terminal) job.

        A pending job cancels immediately; a running job aborts at the next
        chunk boundary with a partial result.  Cancelling a terminal job is
        a no-op.
        """
        job = self.get(job_id)
        if job.state.terminal:
            return job
        job.cancel_requested = True
        condition = self._condition()
        async with condition:
            condition.notify_all()
        return job

    async def wait(self, job_id: str) -> Job:
        """Block until the job reaches a terminal state."""
        job = self.get(job_id)
        task = self._tasks.get(job_id)
        if task is not None:
            await asyncio.shield(task)
        return job

    async def stream_windows(self, job_id: str) -> AsyncIterator[Dict[str, Any]]:
        """Yield window rows as they close, then one terminal status row.

        The stream starts from the job's first window (late subscribers see
        the full history) and ends — whatever the outcome — with a
        ``{"type": "status", ...}`` row carrying the terminal state.
        """
        job = self.get(job_id)
        condition = self._job_event(job_id)
        sent = 0
        while True:
            while sent < len(job.windows):
                row = job.windows[sent]
                sent += 1
                yield {"type": "window", "job_id": job_id, **row}
            if job.state.terminal:
                break
            async with condition:
                if sent >= len(job.windows) and not job.state.terminal:
                    await condition.wait()
        yield {"type": "status", **job.describe()}

    async def drain(self) -> None:
        """Wait for every submitted job to reach a terminal state."""
        tasks = [t for t in self._tasks.values() if not t.done()]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    async def shutdown(self, *, abort: bool = False) -> None:
        """Stop accepting jobs, then drain (or abort) the active ones.

        Graceful shutdown (the default) lets running jobs finish and flushes
        their artifacts; ``abort=True`` cancels everything still live first
        (each job still seals and flushes its partial result).
        """
        self._closed = True
        if abort:
            for job_id, job in self._jobs.items():
                if not job.state.terminal:
                    await self.cancel(job_id)
        await self.drain()

    # ------------------------------------------------------------------ #
    # the per-job task
    # ------------------------------------------------------------------ #
    async def _admit(self, job: Job, quota: int) -> Optional[QuotaGrant]:
        """Class-priority admission: the best ``(class, arrival)`` entry is
        the queue head and waits until its quota fits.  Within one SLA class
        this is exactly FIFO (a single-class queue behaves like the old
        strict-FIFO daemon); a ``gold`` job submitted late still admits
        before queued ``best-effort`` work."""
        condition = self._condition()
        async with condition:
            self._admit_seq += 1
            entry = (SLA_CLASSES[job.spec.sla_class], self._admit_seq, job.job_id)
            self._queue.append(entry)
            try:
                while True:
                    if job.cancel_requested:
                        return None
                    if min(self._queue) == entry:
                        try:
                            return self.pool.acquire(job.job_id, quota)
                        except QuotaExceededError:
                            pass  # capacity busy: wait for a release
                    await condition.wait()
            finally:
                self._queue.remove(entry)
                condition.notify_all()

    async def _release(self, job: Job) -> None:
        self.pool.release(job.job_id)
        condition = self._condition()
        async with condition:
            condition.notify_all()

    async def _run(self, job: Job, quota: int) -> None:
        try:
            grant = await self._admit(job, quota)
            if grant is None:
                await self._finalise(job, JobState.CANCELLED)
                await self._publish(job)
                return
            job.grant = grant
            try:
                scenario = build_scenario(job.spec.scenario, **job.spec.options)
                config = self.pool.config_for(grant, self.template)
                tenant = TenantSession(
                    name=job.job_id,
                    session=ServingSession(config, **self.session_kwargs),
                    workload=scenario,
                    seed=job.spec.seed,
                )
                job.state = JobState.RUNNING
                job.started_at = time.time()
                tenant.start()
                await self._publish(job)
                while not tenant.done and not job.cancel_requested:
                    tenant.advance(self.chunk)
                    await self._append_windows(job, tenant.new_windows())
                    await self._append_fleet_events(job, tenant.new_fleet_events())
                    await self._append_fault_events(job, tenant.new_fault_events())
                    await self._publish(job)
                    # hand the loop to the other tenants between chunks
                    await asyncio.sleep(0)
                if job.cancel_requested and not tenant.done:
                    job.result = tenant.abort()
                    state = JobState.CANCELLED
                else:
                    job.result = tenant.finish()
                    state = JobState.COMPLETED
                await self._append_windows(job, tenant.new_windows())
                await self._append_fleet_events(job, tenant.new_fleet_events())
                await self._append_fault_events(job, tenant.new_fault_events())
            finally:
                # The grant goes back (and admission wakes) before any
                # terminal state is visible: whoever sees the job finished
                # must also see its GPCs free.
                await self._release(job)
            await self._finalise(job, state)
        except Exception as error:  # a job failure must not kill the daemon
            job.error = f"{type(error).__name__}: {error}"
            await self._finalise(job, JobState.FAILED)
        await self._publish(job)

    # ------------------------------------------------------------------ #
    # artifacts
    # ------------------------------------------------------------------ #
    async def _append_windows(self, job: Job, windows: List[WindowStats]) -> None:
        if not windows:
            return
        rows = [window_to_dict(w) for w in windows]
        job.windows.extend(rows)
        if job.artifact_dir is not None:
            # file appends run off-loop: a slow disk must not stall the
            # other tenants sharing this event loop
            await asyncio.to_thread(
                _append_ndjson, job.artifact_dir / "windows.ndjson", rows
            )

    async def _append_fleet_events(self, job: Job, events: List[Any]) -> None:
        """Interleave fleet control-plane rows into the window stream file.

        Each row carries ``"type": "fleet-event"`` so artifact digestion can
        partition them from the metric windows.
        """
        if not events:
            return
        rows = [event.to_dict() for event in events]
        job.fleet_events.extend(rows)
        if job.artifact_dir is not None:
            await asyncio.to_thread(
                _append_ndjson, job.artifact_dir / "windows.ndjson", rows
            )

    async def _append_fault_events(self, job: Job, records: List[Any]) -> None:
        """Interleave fault-injection rows into the window stream file.

        Each row carries ``"type": "fault-event"`` so artifact digestion can
        partition them from the metric windows and fleet events.
        """
        if not records:
            return
        rows = [record.to_dict() for record in records]
        job.fault_events.extend(rows)
        if job.artifact_dir is not None:
            await asyncio.to_thread(
                _append_ndjson, job.artifact_dir / "windows.ndjson", rows
            )

    async def _finalise(self, job: Job, state: JobState) -> None:
        job.state = state
        job.finished_at = time.time()
        if job.result is not None:
            job.summary = job.result.summary()
            job.summary["simulated_seconds"] = (
                job.result.simulation.statistics.makespan
            )
            job.summary["completed_queries"] = (
                job.result.simulation.statistics.latency.count
            )
        if job.artifact_dir is not None:
            await asyncio.to_thread(
                _write_json_file, job.artifact_dir / "result.json", job.describe()
            )

    @staticmethod
    def _write_json(path: Path, payload: Dict[str, Any]) -> None:
        path.write_text(json.dumps(payload, indent=2, default=str) + "\n")


__all__ = [
    "DEFAULT_CHUNK",
    "SLA_CLASSES",
    "Job",
    "JobManager",
    "JobSpec",
    "JobState",
    "window_to_dict",
]
