"""The availability-vs-fault-rate experiment: graceful degradation, pinned.

The robustness claim for the fault-injection subsystem is behavioral, not
economic: under injected worker crashes the server keeps serving — displaced
queries are retried (bounded by the :class:`~repro.faults.retry.RetryPolicy`),
queries that exhaust the budget surface as first-class *failures* rather
than vanishing, and delivered capacity degrades in proportion to the
injected fault rate.  This experiment pins that with one deterministic,
seeded sweep:

1. a pinned mobilenet workload replays against the same 4-GPU server at
   every point of the sweep;
2. fault schedules of increasing Poisson crash rate (each with the same
   seed and mean-time-to-repair) are injected into otherwise identical
   sessions, with a fault-free baseline at rate 0;
3. per point, the payload records mean availability, failed/retried query
   counts, crash counts and MTTR.

The claims checked by CI (``python -m repro.pipeline check fault`` against
the committed ``BENCH_faults.json``): the baseline is fully available with zero failures,
every point conserves queries (completed + failed == submitted), and the
highest fault rate measurably degrades availability below the baseline.

:func:`fault_sweep_results` runs the sweep at either scale of its knob
table: ``full`` (this artifact and the ``figures`` suite) or ``reduced``
(the ``smoke`` suite's two-worker, three-point sweep).

Everything is seeded; re-running the experiment reproduces the artifact
bit-for-bit, which is what lets CI diff it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Tuple

from repro.faults import FaultSchedule, RetryPolicy
from repro.serving.config import ServerConfig
from repro.serving.session import ServingSession, SessionResult, resolve_workload
from repro.workload.generator import WorkloadConfig

#: The sweep's knobs per scale.  Each workload is heavy enough that every
#: partition usually holds in-flight and queued work, so injected crashes
#: displace queries (exercising the retry and failure paths) instead of
#: hitting idle workers.
_KNOBS: Dict[str, Dict[str, Any]] = {
    "full": {
        "rates": (0.0, 1.0, 2.0, 4.0),
        "workers": 4,
        "gpc_budget": 24,
        "horizon": 2.0,
        "workload": {
            "model": "mobilenet",
            "rate_qps": 6000.0,
            "num_queries": 12000,
            "seed": 9,
        },
    },
    "reduced": {
        "rates": (0.0, 2.0, 4.0),
        "workers": 2,
        "gpc_budget": 12,
        "horizon": 1.0,
        "workload": {
            "model": "mobilenet",
            "rate_qps": 3000.0,
            "num_queries": 3000,
            "seed": 9,
        },
    },
}

#: Poisson crash rates (faults per simulated second) the sweep injects;
#: 0.0 is the fault-free baseline (no schedule at all).
FAULT_RATES = _KNOBS["full"]["rates"]

#: Mean time to repair handed to :meth:`FaultSchedule.sample` (seconds).
MTTR = 0.3

#: Seed for every sampled schedule — one seed, rates vary, runs reproduce.
FAULT_SEED = 7

#: Degradation bar CI checks: the highest-rate point must sit at least
#: this far below the baseline's availability.
MIN_DEGRADATION = 0.005

_WINDOW = 0.25
_RECONFIG_COST = 0.05


def _config(scale: str) -> ServerConfig:
    knobs = _KNOBS[scale]
    return ServerConfig(
        model=str(knobs["workload"]["model"]),
        gpc_budget=knobs["gpc_budget"],
        num_gpus=knobs["workers"],
    )


def fault_retry_policy() -> RetryPolicy:
    """The pinned retry budget (one retry, 50 ms deterministic backoff)."""
    return RetryPolicy(max_retries=1, backoff=0.05)


def fault_sweep_results(
    scale: str = "full", *, log: Any = None
) -> Iterator[Tuple[float, WorkloadConfig, FaultSchedule, SessionResult]]:
    """Run the sweep at ``scale`` (``"full"`` or ``"reduced"``).

    Yields:
        Per fault rate, as its replay finishes (so a caller holds one
        point's result at a time): the rate, the replayed workload, the
        injected schedule and the session's result.
    """
    knobs = _KNOBS[scale]
    workload = WorkloadConfig(**knobs["workload"])
    # one trace for every point; the explicit PDF keeps each deployment
    # planned from the workload's PDF, not the trace's empirical one
    trace, pdf = resolve_workload(workload)
    config = _config(scale)
    for rate in knobs["rates"]:
        if log is not None:
            log(f"fault sweep: rate={rate:g}/s ...")
        if rate > 0:
            schedule = FaultSchedule.sample(
                knobs["workers"], knobs["horizon"], rate=rate, mttr=MTTR,
                seed=FAULT_SEED,
            )
        else:
            schedule = FaultSchedule([])
        session = ServingSession(
            config,
            batch_pdf=pdf,
            window=_WINDOW,
            reconfig_cost=_RECONFIG_COST,
            faults=schedule,
            retry_policy=fault_retry_policy(),
        )
        yield rate, workload, schedule, session.run(trace)


def _round(value: float, digits: int = 6) -> float:
    return round(float(value), digits)


def _point_payload(
    rate: float, schedule: FaultSchedule, result: SessionResult
) -> Dict[str, Any]:
    stats = result.simulation.statistics
    records = result.fault_events
    return {
        "rate": _round(rate),
        "scheduled_events": len(schedule),
        "availability": _round(result.fault_availability),
        "mttr_s": _round(result.fault_mttr),
        "crashes": sum(1 for r in records if r.kind == "crash"),
        "restarts": sum(1 for r in records if r.kind == "restart"),
        "skipped": sum(1 for r in records if r.kind.endswith("-skipped")),
        "retries": sum(r.requeued for r in records),
        "failed_queries": stats.failed_queries,
        "completed_queries": stats.completed_queries,
        "total_queries": stats.total_queries,
        "p95_latency_ms": _round(stats.latency.p95 * 1e3),
        "sla_violation_rate": _round(stats.latency.sla_violation_rate),
    }


def run_fault_experiment(*, log: Any = None) -> Dict[str, Any]:
    """Run the full-scale availability sweep and return the artifact payload.

    Returns:
        A JSON-friendly dict: the pinned workload/policy knobs plus one
        sweep row per fault rate (availability, failure/retry counts,
        MTTR, tail latency).
    """
    sweep = [
        _point_payload(rate, schedule, result)
        for rate, _, schedule, result in fault_sweep_results(log=log)
    ]
    policy = fault_retry_policy()
    return {
        "experiment": "availability_vs_fault_rate",
        "workload": dict(_KNOBS["full"]["workload"]),
        "window": _WINDOW,
        "mttr": MTTR,
        "fault_seed": FAULT_SEED,
        "retry_policy": {
            "max_retries": policy.max_retries,
            "backoff": policy.backoff,
            "growth": policy.growth,
        },
        "sweep": sweep,
    }


def check_fault_payload(payload: Dict[str, Any]) -> List[str]:
    """Validate the experiment's degradation claims; returns failure messages."""
    failures: List[str] = []
    sweep = payload.get("sweep") or []
    if len(sweep) < 2:
        failures.append(f"sweep has {len(sweep)} points; need the baseline + 1")
        return failures
    baseline = sweep[0]
    if baseline.get("rate") != 0.0:
        failures.append(f"first sweep point is rate {baseline.get('rate')}, not 0")
    if baseline.get("availability") != 1.0:
        failures.append(
            f"fault-free baseline availability is {baseline.get('availability')}, "
            "expected exactly 1.0"
        )
    if baseline.get("failed_queries") or baseline.get("retries"):
        failures.append("fault-free baseline reports failures or retries")
    for point in sweep:
        total = point.get("total_queries", 0)
        accounted = point.get("completed_queries", 0) + point.get(
            "failed_queries", 0
        )
        if accounted != total:
            failures.append(
                f"rate {point.get('rate')}: {accounted} queries accounted "
                f"(completed+failed) of {total} submitted — conservation broken"
            )
    worst = sweep[-1]
    if not any(point.get("crashes", 0) > 0 for point in sweep[1:]):
        failures.append("no sweep point landed a single crash")
    if worst.get("retries", 0) < 1:
        failures.append(
            "the highest fault rate displaced no query — the retry path "
            "went unexercised"
        )
    if worst.get("availability", 1.0) > 1.0 - MIN_DEGRADATION:
        failures.append(
            f"highest fault rate leaves availability at "
            f"{worst.get('availability')}; expected <= {1.0 - MIN_DEGRADATION}"
        )
    return failures


__all__ = [
    "FAULT_RATES",
    "FAULT_SEED",
    "MIN_DEGRADATION",
    "MTTR",
    "check_fault_payload",
    "fault_retry_policy",
    "fault_sweep_results",
    "run_fault_experiment",
]
