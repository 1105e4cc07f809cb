"""The replay corpus: committed reference outputs of small seeded replays.

Every case below replays a small, fully seeded input through the simulator
(directly, through a deployment, or through a :class:`ServingSession`) and
reduces the outcome to a record:

* ``sha256`` over the per-query rows ``(query_id, dispatch_time,
  start_time, finish_time, instance_id, retries, fail_time)``;
* the :class:`~repro.sim.metrics.ServerStatistics` fields;
* ``per_instance_queries`` and the live ``reconfigurations``;
* ``fault_events`` for the fault-injected session cases;
* ``fleet_events`` and ``trigger_firings`` for the ``mixed-control`` case,
  whose every control source acts, so the order the session fires them in
  is pinned too.

``baselines/replay_corpus.json`` holds the expected records.  It was first
recorded from the original object-per-event replay loop and is reproduced
exactly by the columnar replay core; the ``frontend-overload/*`` cases were
recorded from the per-arrival retry frontend and are reproduced exactly by
the FIFO frontend queue; the ``fleet-burst/*`` and
``same-instant-siblings/*`` cases were recorded from ELSA's per-worker scan
and are reproduced exactly by the drain-time index; the ``mixed-control``
case was recorded from the session's per-source cursors and is reproduced
exactly by its one control timeline.  So any change to simulated outcomes —
scheduling decisions, tie-breaking, float arithmetic, the order control
sources fire in — fails here, naming the case and the first field that
differs.

Regenerate the file (only when a change of simulated outcomes is intended)
from the repository root with::

    PYTHONPATH=src python -m tests.sim.test_replay_corpus
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import numpy as np
import pytest

from repro.analysis.experiments import ExperimentSettings
from repro.autoscale import Autoscaler, PreemptionEvent, PreemptionSchedule
from repro.core.elsa import ElsaScheduler
from repro.core.schedulers import FifsScheduler, LeastLoadedScheduler
from repro.faults import (
    FailedReconfigure,
    FaultSchedule,
    RetryPolicy,
    StragglerEnd,
    StragglerStart,
    WorkerCrash,
    WorkerRestart,
)
from repro.gpu.architecture import A30, A100, H100
from repro.gpu.partition import GPUPartition, PartitionInstance
from repro.perf.lookup import ProfileEntry, ProfileTable
from repro.perf.profiler import Profiler
from repro.serving.config import ServerConfig
from repro.serving.deployment import build_deployment
from repro.serving.session import ServingSession
from repro.sim.cluster import InferenceServerSimulator
from repro.workload.generator import QueryGenerator, WorkloadConfig
from repro.workload.query import Query
from repro.workload.scenario import build_scenario
from repro.workload.trace import QueryTrace
from tests.sim.helpers import MODEL, constant_profile, make_instances, make_trace

CORPUS_PATH = Path(__file__).resolve().parents[2] / "baselines" / "replay_corpus.json"

#: Record fields in check order: the first one that differs is reported.
FIELDS = (
    "queries",
    "sha256",
    "statistics",
    "per_instance_queries",
    "reconfigurations",
    "fault_events",
    "fleet_events",
    "trigger_firings",
)


# --------------------------------------------------------------------------- #
# records
# --------------------------------------------------------------------------- #
def _plain(value: Any) -> Any:
    """JSON-ready copy of a result value (dataclasses, numpy scalars, ...)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def query_rows(queries) -> List[Tuple[Any, ...]]:
    return [
        (
            q.query_id,
            q.dispatch_time,
            q.start_time,
            q.finish_time,
            q.instance_id,
            q.retries,
            q.fail_time,
        )
        for q in queries
    ]


def record(result, fault_events=None) -> Dict[str, Any]:
    """The corpus record of one :class:`SimulationResult`."""
    rows = _plain(query_rows(result.queries))
    entry = {
        "queries": len(rows),
        "sha256": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
        "statistics": _plain(result.statistics),
        "per_instance_queries": _plain(result.per_instance_queries),
        "reconfigurations": _plain(result.reconfigurations),
    }
    if fault_events is not None:
        entry["fault_events"] = [event.to_dict() for event in fault_events]
    return entry


def session_record(result, control: bool = False) -> Dict[str, Any]:
    """A session's record; ``control`` adds its fleet events and trigger
    firings."""
    entry = record(result.simulation, fault_events=result.fault_events)
    if control:
        entry["fleet_events"] = [event.to_dict() for event in result.fleet_events]
        entry["trigger_firings"] = _plain(result.trigger_firings)
    return entry


# --------------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------------- #
LATENCIES = {1: 0.9, 3: 0.5, 7: 0.2}
SEEDS = (0, 1, 2)

SCHEDULER_FACTORIES: Dict[str, Callable[[], Any]] = {
    "fifs-round-robin": lambda: FifsScheduler("round_robin"),
    "fifs-random": lambda: FifsScheduler("random", seed=7),
    "fifs-smallest": lambda: FifsScheduler("smallest"),
    "least-loaded": LeastLoadedScheduler,
    "elsa": lambda: ElsaScheduler(profile=constant_profile(LATENCIES)),
}


def _random_spec(seed: int, max_queries: int = 40, horizon: float = 2.0, max_batch: int = 32):
    """Seeded ``(arrival_time, batch)`` pairs, sorted by arrival."""
    rng = np.random.default_rng(seed)
    count = int(rng.integers(max_queries // 2, max_queries + 1))
    arrivals = sorted(float(t) for t in rng.uniform(0.0, horizon, count))
    batches = [int(b) for b in rng.integers(1, max_batch + 1, count)]
    return list(zip(arrivals, batches))


def _simulator(scheduler, sizes=(1, 3, 7, 7), **kwargs) -> InferenceServerSimulator:
    return InferenceServerSimulator(
        instances=make_instances(sizes),
        profiles={MODEL: constant_profile(LATENCIES)},
        scheduler=scheduler,
        **kwargs,
    )


def random_trace_case(policy: str, seed: int, with_sla: bool):
    def build():
        sla = float(np.random.default_rng(100 + seed).uniform(0.3, 1.2)) if with_sla else None
        trace = make_trace(_random_spec(seed), sla=sla)
        return record(_simulator(SCHEDULER_FACTORIES[policy]()).run(trace))

    return build


def frontend_limit_case(policy: str):
    def build():
        trace = make_trace([(0.05 * i, 1 + i % 8) for i in range(60)], sla=1.5)
        simulator = _simulator(SCHEDULER_FACTORIES[policy](), frontend_capacity_qps=30.0)
        return record(simulator.run(trace))

    return build


#: The overload cases' frontend cap (queries/s) and its dispatch gap.
OVERLOAD_QPS = 30.0
OVERLOAD_GAP = 1.0 / OVERLOAD_QPS


def _slot_chain(count: int) -> List[float]:
    """The frontend's slot instants after an admission at 0: each is the
    previous one plus the gap, rounded exactly as the simulator rounds."""
    chain = [0.0]
    for _ in range(count):
        chain.append(chain[-1] + OVERLOAD_GAP)
    return chain


def frontend_overload_case(policy: str):
    """Bursts of simultaneous arrivals, some landing exactly on the slot
    instants of a backlogged frontend, plus arrivals on plain multiples of
    the gap: same-instant ties between fresh arrivals and the slot."""

    def build():
        chain = _slot_chain(40)
        times = [0.0] * 6
        for k in range(1, 40, 3):
            times += [chain[k]] * (2 + k % 2)
        times += [k * OVERLOAD_GAP for k in range(2, 40, 5)]
        trace = make_trace([(t, 1 + i % 8) for i, t in enumerate(sorted(times))], sla=1.5)
        simulator = _simulator(
            SCHEDULER_FACTORIES[policy](), frontend_capacity_qps=OVERLOAD_QPS
        )
        return record(simulator.run(trace))

    return build


def frontend_reconfigure_case():
    """A live reconfiguration (cost 0) behind a 7-qps frontend with queries
    waiting: the drain ends at 1.934 s, before the pending slot at 1.963 s,
    and query 14 arrives at 1.948 s, in between.  The seed was searched for
    exactly that order of events."""
    rng = np.random.default_rng(2980)
    trace = make_trace(_random_spec(2480, horizon=4.0, max_batch=16), sla=1.0)
    simulator = _simulator(FifsScheduler(), sizes=(1, 3, 7), frontend_capacity_qps=7.0)
    simulator.begin()
    simulator.submit_trace(trace)
    simulator.run_until(float(rng.uniform(0.5, 3.5)))
    simulator.reconfigure(make_instances((3, 7)), reconfig_cost=0.0)
    return record(simulator.finish())


def frontend_crash_retry_case():
    """A crash retry re-entering a backlogged 20-qps frontend at exactly its
    pending slot: the crash at the 0.25 s slot pushes the aborted query back
    after the 50 ms backoff, onto the 0.3 s slot, and arrivals at 0.27-0.29 s
    queue behind it."""
    times = [0.0] * 10 + [0.27, 0.28, 0.29] + [0.4 + 0.1 * i for i in range(5)]
    simulator = _simulator(FifsScheduler(), sizes=(1, 7), frontend_capacity_qps=20.0)
    simulator.begin()
    simulator.submit_trace(make_trace([(t, 2) for t in times]))
    simulator.run_until(0.25)
    busy = next(w for w in simulator.workers if w.current_finish_time is not None)
    simulator.crash_worker(busy.instance_id, RetryPolicy(max_retries=1, backoff=0.05))
    return record(simulator.finish())


def paper_server_overload_case():
    """The paper's 8xA100 server (PARIS + ELSA) at 3x its 12k-qps frontend cap."""
    deployment = ExperimentSettings().build("mobilenet", "paris", "elsa")
    trace = QueryGenerator(
        WorkloadConfig(
            model="mobilenet",
            rate_qps=3.0 * deployment.config.frontend_capacity_qps,
            num_queries=1500,
            seed=5,
            sla_target=deployment.sla_target,
        )
    ).generate()
    return record(deployment.simulator().run(trace))


def _profile_named(name: str, latencies: Dict[int, float]) -> ProfileTable:
    entries = [
        ProfileEntry(
            gpcs=gpcs,
            batch=batch,
            latency_s=latency,
            utilization=0.9,
            throughput_qps=1.0 / latency,
        )
        for gpcs, latency in latencies.items()
        for batch in (1, 2, 4, 8, 16, 32)
    ]
    return ProfileTable(name, entries)


MULTI_PROFILES = {
    "small-model": _profile_named("small-model", {1: 0.3, 3: 0.15, 7: 0.05}),
    "large-model": _profile_named("large-model", {1: 1.4, 3: 0.8, 7: 0.3}),
}


def multi_model_case(seed: int):
    def build():
        models = sorted(MULTI_PROFILES)
        picks = np.random.default_rng(200 + seed).integers(0, len(models), 40)
        queries = tuple(
            Query(
                query_id=idx,
                model=models[int(picks[idx])],
                batch=batch,
                arrival_time=arrival,
                sla_target=1.5,
            )
            for idx, (arrival, batch) in enumerate(_random_spec(seed))
        )
        simulator = InferenceServerSimulator(
            instances=make_instances((1, 3, 7)),
            profiles=dict(MULTI_PROFILES),
            scheduler=ElsaScheduler(
                profile=MULTI_PROFILES["small-model"], profiles=MULTI_PROFILES
            ),
        )
        return record(simulator.run(QueryTrace(queries)))

    return build


def _reconfigured_run(trace, checkpoint, new_sizes, cost):
    simulator = _simulator(FifsScheduler(), sizes=(1, 7))
    simulator.begin()
    simulator.submit_trace(trace)
    simulator.run_until(checkpoint)
    simulator.reconfigure(make_instances(new_sizes), reconfig_cost=cost)
    return record(simulator.finish())


def live_reconfigure_fixed():
    trace = make_trace([(0.1 * i, 2) for i in range(30)])
    return _reconfigured_run(trace, 1.0, (3, 3), 0.5)


def live_reconfigure_case(seed: int):
    def build():
        rng = np.random.default_rng(300 + seed)
        trace = make_trace(_random_spec(seed, max_queries=30, horizon=4.0, max_batch=16), sla=1.0)
        checkpoint = float(rng.uniform(0.2, 3.0))
        new_sizes = tuple(int(s) for s in rng.choice([1, 3, 7], size=int(rng.integers(1, 4))))
        cost = float(rng.uniform(0.0, 1.0))
        return _reconfigured_run(trace, checkpoint, new_sizes, cost)

    return build


FAULT_CONFIG = ServerConfig(model="mobilenet", gpc_budget=24, num_gpus=4)
#: The fault server behind a frontend slower than the 6000-qps workload.
FRONTEND_FAULT_CONFIG = dataclasses.replace(FAULT_CONFIG, frontend_capacity_qps=4500.0)


def session_faults_fixed():
    session = ServingSession(
        FAULT_CONFIG,
        profiler=Profiler(batch_sizes=(1, 2, 4, 8, 16, 32)),
        window=0.25,
        faults=FaultSchedule(
            [
                WorkerCrash(time=0.1, worker=0),
                StragglerStart(time=0.2, worker=1, multiplier=3.0),
                WorkerRestart(time=0.35, worker=0),
            ]
        ),
    )
    workload = WorkloadConfig(model="mobilenet", rate_qps=6000.0, num_queries=3000, seed=9)
    return session_record(session.run(workload))


def session_faults_case(
    seed: int, max_retries: int, config: ServerConfig = FAULT_CONFIG, num_queries: int = 3000
):
    def build():
        rng = np.random.default_rng(400 + seed)

        def at(low, high):
            return float(rng.uniform(low, high))

        first, second, slow = (int(w) for w in rng.integers(0, 6, 3))
        events = [
            WorkerCrash(time=at(0.02, 0.15), worker=first),
            StragglerStart(time=at(0.02, 0.3), worker=slow, multiplier=at(2.0, 8.0)),
            WorkerCrash(time=at(0.15, 0.3), worker=second),
            WorkerRestart(time=at(0.3, 0.4), worker=first),
            StragglerEnd(time=at(0.3, 0.4), worker=slow),
        ]
        session = ServingSession(
            config,
            window=0.25,
            faults=FaultSchedule(events),
            retry_policy=RetryPolicy(max_retries=max_retries, backoff=0.02),
        )
        workload = WorkloadConfig(
            model="mobilenet", rate_qps=6000.0, num_queries=num_queries, seed=seed
        )
        return session_record(session.run(workload))

    return build


def _fleet_config(**overrides) -> ServerConfig:
    return ServerConfig(model="resnet", fleet=((8, "a100", 48),), **overrides)


def fleet_replay_case(scheduler: str):
    def build():
        deployment = build_deployment(
            _fleet_config(scheduler=scheduler), {1: 0.4, 4: 0.3, 8: 0.2, 32: 0.1}
        )
        trace = QueryGenerator(
            WorkloadConfig(
                model="resnet",
                rate_qps=3000.0,
                num_queries=400,
                seed=11,
                sla_target=deployment.sla_target,
            )
        ).generate()
        return record(deployment.simulator().run(trace))

    return build


def fleet_session_repartition():
    session = ServingSession(
        _fleet_config(),
        batch_pdf={1: 0.8, 2: 0.2},  # deliberately stale prior
        window=0.05,
        triggers=[("pdf-drift", {"threshold": 0.1, "min_queries": 50})],
        reconfig_cost=0.02,
    )
    workload = WorkloadConfig(
        model="resnet", rate_qps=2500.0, num_queries=1200, seed=3, sigma=1.4
    )
    return session_record(session.run(workload))


#: Same model, same partition sizes, radically different per-architecture
#: speeds: GPU(1) on A30 here beats GPU(2) on A100.
HETERO_TABLES = {
    A100.name: constant_profile({1: 1.0, 2: 0.6}),
    A30.name: constant_profile({1: 0.2, 2: 0.1}),
}


def hetero_elsa_case(sla):
    def build():
        arch_profiles = {name: {MODEL: table} for name, table in HETERO_TABLES.items()}
        simulator = InferenceServerSimulator(
            instances=[
                PartitionInstance(
                    instance_id=0, partition=GPUPartition(1, A100), physical_gpu=0
                ),
                PartitionInstance(
                    instance_id=1, partition=GPUPartition(1, A30), physical_gpu=1
                ),
            ],
            profiles={MODEL: HETERO_TABLES[A100.name]},
            scheduler=ElsaScheduler(
                profile=HETERO_TABLES[A100.name], arch_profiles=arch_profiles
            ),
            arch_profiles=arch_profiles,
        )
        trace = make_trace([(0.05 * i, 1 + (i % 2)) for i in range(40)], sla=sla)
        return record(simulator.run(trace))

    return build


#: The fleet-burst fleet: four 8xA100 servers, 93 workers in 5 size groups.
FLEET_SERVERS = ((8, A100),) * 4
#: A mixed fleet: 63 workers in 8 (architecture, size) groups.
MIXED_SERVERS = ((8, A100), (8, H100))


@lru_cache(maxsize=None)
def _fleet_design(servers, scheduler: str = "elsa"):
    return ExperimentSettings().build_fleet_design("mobilenet", list(servers), scheduler=scheduler)


def _burst_trace(deployment, seed: int, sla: bool = True) -> QueryTrace:
    """A short ``burst`` scenario: base traffic at 0.75x the frontend cap
    between two spikes at 2x the cap, carrying the deployment's SLA (as a
    session would stamp it) unless ``sla`` is false."""
    cap = deployment.config.frontend_capacity_qps
    trace = build_scenario(
        "burst",
        model="mobilenet",
        base_qps=0.75 * cap,
        burst_qps=2.0 * cap,
        base_duration=0.03,
        burst_duration=0.01,
        repeats=2,
        seed=seed,
    ).generate()
    if not sla:
        return trace
    target = deployment.sla_target
    return QueryTrace(tuple(dataclasses.replace(q, sla_target=target) for q in trace))


def _with_elsa(deployment, **options):
    """``deployment`` served by a fresh ELSA built with ``options``."""
    scheduler = ElsaScheduler(
        deployment.profile,
        profiles=deployment.profiles,
        arch_profiles=deployment.arch_profiles,
        **options,
    )
    return dataclasses.replace(deployment, scheduler=scheduler)


def fleet_burst_case(servers, scheduler: str = "elsa", sla: bool = True, **options):
    def build():
        deployment = _fleet_design(servers, scheduler)
        if options:
            deployment = _with_elsa(deployment, **options)
        trace = _burst_trace(deployment, seed=21, sla=sla)
        return record(deployment.simulator().run(trace))

    return build


def fleet_burst_session_case():
    """The fleet-burst fleet through a session with a crash, a straggler, a
    restore and a drift-triggered live repartition (stale planning PDF)."""
    deployment = _fleet_design(FLEET_SERVERS)
    session = ServingSession(
        deployment.config,
        batch_pdf={1: 0.8, 2: 0.2},
        window=0.01,
        triggers=[("pdf-drift", {"threshold": 0.1, "min_queries": 50})],
        reconfig_cost=0.002,
        faults=FaultSchedule(
            [
                WorkerCrash(time=0.012, worker=40),
                StragglerStart(time=0.015, worker=7, multiplier=4.0),
                StragglerEnd(time=0.025, worker=7),
                WorkerRestart(time=0.03, worker=40),
            ]
        ),
        retry_policy=RetryPolicy(max_retries=2, backoff=0.001),
    )
    return session_record(session.run(_burst_trace(deployment, seed=22)))


MIXED_UNIT = (2, "a100", 12)
MIXED_WORKLOAD = WorkloadConfig(
    model="mobilenet", rate_qps=9000.0, num_queries=9000, seed=4, sigma=1.2
)


def mixed_control_session() -> ServingSession:
    """Every control source acting in one run over three 2xA100 servers.

    The stale prior makes the drift trigger fire at 0.1 s (online 0.2525 s);
    the removal due at 0.25 s waits for it and starts a second swap, online
    at 0.4043 s.  Behind that swap wait three faults (the armed failure, a
    crash and a straggler, due 0.31-0.35 s), two removals (one skipped: its
    server is already gone) and the commission the autoscaler requested at
    0.05 s.  All of them land at 0.4043 s in source order: faults first, so
    the crash hits the old partitions before the roster swap heals it.  The
    drift trigger's second firing consumes the armed failure; a later
    crash, straggler, restart and three more commissions follow.
    """
    return ServingSession(
        ServerConfig(model="mobilenet", fleet=(MIXED_UNIT,) * 3),
        batch_pdf={1: 0.8, 2: 0.2},
        window=0.05,
        reconfig_cost=0.15,
        triggers=[("pdf-drift", {"threshold": 0.1, "min_queries": 50, "lookback_windows": 2})],
        autoscaler=Autoscaler(
            MIXED_UNIT,
            triggers=[("scale-out-backlog", {"max_backlog": 12, "lookback_windows": 1})],
            max_servers=5,
            lead_time=0.25,
        ),
        preemptions=PreemptionSchedule(
            [
                PreemptionEvent(time=0.20, server_index=1, notice=0.05),
                PreemptionEvent(time=0.28, server_index=1, notice=0.0),
                PreemptionEvent(time=0.29, server_index=2, notice=0.02),
            ]
        ),
        faults=FaultSchedule(
            [
                FailedReconfigure(time=0.31, downtime=0.05),
                WorkerCrash(time=0.33, worker=1),
                StragglerStart(time=0.35, worker=2, multiplier=3.0),
                WorkerCrash(time=0.58, worker=3),
                StragglerStart(time=0.59, worker=0, multiplier=2.5),
                WorkerRestart(time=0.62, worker=0),
                StragglerEnd(time=0.66, worker=0),
            ]
        ),
        retry_policy=RetryPolicy(max_retries=2, backoff=0.01),
    )


def mixed_control_case():
    return session_record(mixed_control_session().run(MIXED_WORKLOAD), control=True)


def same_instant_siblings_case(scheduler: str):
    """Bursts of identical queries arriving at one instant onto two identical
    idle servers with no frontend cap: idle siblings tie at wait 0, and the
    siblings they load tie again on identical drain times."""

    def build():
        deployment = _fleet_design(((8, A100),) * 2, scheduler)
        simulator = InferenceServerSimulator(
            instances=deployment.instances,
            profiles=dict(deployment.profiles),
            scheduler=deployment.scheduler,
        )
        specs = [
            (0.002 * burst, batch)
            for burst, batch in enumerate((1, 32, 4, 16, 8, 32, 2, 16, 32, 1, 32, 32))
            for _ in range(4 + 3 * (burst % 3))
        ]
        trace = make_trace(specs, sla=deployment.sla_target)
        trace = QueryTrace(tuple(dataclasses.replace(q, model="mobilenet") for q in trace))
        return record(simulator.run(trace))

    return build


def _cases() -> Dict[str, Callable[[], Dict[str, Any]]]:
    cases: Dict[str, Callable[[], Dict[str, Any]]] = {}
    for policy in SCHEDULER_FACTORIES:
        for seed in SEEDS:
            for with_sla in (False, True):
                label = "sla" if with_sla else "no-sla"
                cases[f"random/{policy}/seed{seed}/{label}"] = random_trace_case(
                    policy, seed, with_sla
                )
        cases[f"frontend-limit/{policy}"] = frontend_limit_case(policy)
    for seed in SEEDS:
        cases[f"multi-model-elsa/seed{seed}"] = multi_model_case(seed)
    cases["live-reconfigure/fixed"] = live_reconfigure_fixed
    for seed in (1, 2):
        cases[f"live-reconfigure/seed{seed}"] = live_reconfigure_case(seed)
    cases["session-faults/fixed"] = session_faults_fixed
    for seed, max_retries in ((1, 0), (2, 2)):
        cases[f"session-faults/seed{seed}-retries{max_retries}"] = session_faults_case(
            seed, max_retries
        )
    for scheduler in ("elsa", "fifs", "least-loaded"):
        cases[f"fleet-replay/{scheduler}"] = fleet_replay_case(scheduler)
    cases["fleet-session/live-repartition"] = fleet_session_repartition
    for sla in (None, 0.5, 1.5, 10.0):
        cases[f"hetero-elsa/sla-{sla}"] = hetero_elsa_case(sla)
    # Overload: queries wait at the frontend, with same-instant ties against
    # its slot events.
    for policy in SCHEDULER_FACTORIES:
        cases[f"frontend-overload/{policy}"] = frontend_overload_case(policy)
    cases["frontend-overload/live-reconfigure"] = frontend_reconfigure_case
    cases["frontend-overload/crash-retry-on-slot"] = frontend_crash_retry_case
    for seed, max_retries in ((1, 0), (2, 2)):
        cases[f"frontend-overload/session-faults-retries{max_retries}"] = session_faults_case(
            seed, max_retries, config=FRONTEND_FAULT_CONFIG, num_queries=1500
        )
    cases["frontend-overload/paper-server-3x"] = paper_server_overload_case
    # Fleet scale: ELSA's per-group decisions over tens of same-size siblings.
    cases["fleet-burst/elsa"] = fleet_burst_case(FLEET_SERVERS)
    cases["fleet-burst/elsa-largest-first"] = fleet_burst_case(
        FLEET_SERVERS, prefer_smallest=False
    )
    cases["fleet-burst/elsa-no-sla"] = fleet_burst_case(FLEET_SERVERS, sla=False)
    cases["fleet-burst/least-loaded"] = fleet_burst_case(FLEET_SERVERS, "least-loaded")
    cases["fleet-burst/session-faults-repartition"] = fleet_burst_session_case
    cases["fleet-burst/mixed-a100-h100"] = fleet_burst_case(MIXED_SERVERS)
    cases["fleet-burst/mixed-a100-h100-largest-first"] = fleet_burst_case(
        MIXED_SERVERS, prefer_smallest=False
    )
    cases["fleet-burst/mixed-a100-h100-no-sla"] = fleet_burst_case(MIXED_SERVERS, sla=False)
    for scheduler in ("elsa", "least-loaded"):
        cases[f"same-instant-siblings/{scheduler}"] = same_instant_siblings_case(scheduler)
    cases["mixed-control"] = mixed_control_case
    return cases


CASES = _cases()


# --------------------------------------------------------------------------- #
# the check
# --------------------------------------------------------------------------- #
def _flatten(value: Any, prefix: str) -> List[Tuple[str, str]]:
    """Dotted leaf paths with their canonical JSON text, keys sorted."""
    if isinstance(value, dict) and value:
        return [
            leaf
            for key, item in sorted(value.items())
            for leaf in _flatten(item, f"{prefix}.{key}")
        ]
    if isinstance(value, list) and value:
        return [
            leaf for idx, item in enumerate(value) for leaf in _flatten(item, f"{prefix}[{idx}]")
        ]
    return [(prefix, json.dumps(value, sort_keys=True))]


def first_difference(expected: Dict[str, Any], actual: Dict[str, Any]):
    """The first differing field path of two records, or ``None``."""
    for name in FIELDS:
        if name not in expected and name not in actual:
            continue
        if name not in expected or name not in actual:
            return name
        left = _flatten(expected[name], name)
        right = _flatten(actual[name], name)
        for (path, a), other in zip(left, right):
            if (path, a) != other:
                return path
        if len(left) != len(right):
            return name
    return None


def build_corpus() -> Dict[str, Any]:
    return {
        "regenerate": "PYTHONPATH=src python -m tests.sim.test_replay_corpus",
        "cases": {name: build() for name, build in CASES.items()},
    }


def write_corpus(path: Path = CORPUS_PATH) -> None:
    path.write_text(json.dumps(build_corpus(), indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS_PATH.read_text())["cases"]


def test_corpus_names_exactly_the_defined_cases(corpus):
    assert sorted(corpus) == sorted(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_replay_matches_corpus(case, corpus):
    expected = corpus[case]
    actual = CASES[case]()
    differing = first_difference(expected, actual)
    assert differing is None, f"replay corpus case {case!r}: field {differing!r} differs"


@pytest.mark.parametrize("step", [0.013, 0.05, 0.137])
def test_mixed_control_chunked_matches_one_shot(step, corpus):
    """Driven in ``run_until`` steps, the mixed-control run reproduces the
    one-shot record: every source fires at the same instants."""
    session = mixed_control_session()
    session.begin(MIXED_WORKLOAD)
    until = 0.0
    while session.pending_events:
        until += step
        session.run_until(until)
    chunked = session_record(session.finish(), control=True)
    assert first_difference(corpus["mixed-control"], chunked) is None


def test_first_difference_names_the_field():
    base = {"queries": 1, "sha256": "x", "statistics": {"latency": {"p95": 1.0}}}
    changed = {"queries": 1, "sha256": "x", "statistics": {"latency": {"p95": 2.0}}}
    assert first_difference(base, base) is None
    assert first_difference(base, changed) == "statistics.latency.p95"


if __name__ == "__main__":
    write_corpus()
