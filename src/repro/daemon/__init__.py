"""The async serving daemon: a multi-tenant job API over one shared fleet.

This package promotes :class:`~repro.serving.session.ServingSession` from a
library object into a long-lived service:

* :mod:`repro.daemon.tenants` — quota accounting over one shared
  :class:`~repro.gpu.fleet.Fleet` (:class:`FleetPool` / :class:`QuotaGrant`)
  and per-tenant streaming sessions (:class:`TenantSession`);
* :mod:`repro.daemon.jobs` — the asyncio :class:`JobManager`: typed job
  lifecycle, FIFO quota-gated admission, chunked concurrent execution,
  mubench-style per-job artifact directories;
* :mod:`repro.daemon.api` — the stdlib HTTP/JSON surface
  (:class:`DaemonServer`), including live NDJSON metric streaming;
* :mod:`repro.daemon.client` — the blocking :class:`DaemonClient`;
* ``python -m repro.daemon`` — serve/submit/watch/cancel CLI.

See ``docs/daemon.md`` for the job lifecycle, endpoint reference, stream
format and the tenancy/quota model.
"""

from repro.daemon.api import DaemonServer, DaemonThread
from repro.daemon.client import DaemonClient, DaemonError
from repro.daemon.jobs import (
    DEFAULT_CHUNK,
    Job,
    JobManager,
    JobSpec,
    JobState,
    window_to_dict,
)
from repro.daemon.tenants import (
    FleetPool,
    QuotaExceededError,
    QuotaGrant,
    TenantSession,
)

__all__ = [
    "DEFAULT_CHUNK",
    "DaemonClient",
    "DaemonError",
    "DaemonServer",
    "DaemonThread",
    "FleetPool",
    "Job",
    "JobManager",
    "JobSpec",
    "JobState",
    "QuotaExceededError",
    "QuotaGrant",
    "TenantSession",
    "window_to_dict",
]
