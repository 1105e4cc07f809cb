"""Gate: one ELSA decision costs O(groups) wait polls, not O(workers).

ELSA answers each arrival from its drain-time index (workers grouped by
partition size): the feed re-keys the few workers that changed since the
previous arrival, and Step A reads each visited group's front members.  So
the number of ``PartitionWorker.estimated_wait`` + ``queued_work`` calls
per arrival stays flat as the fleet grows from 1 to 16 A100 servers
(24 / 93 / 366 workers, always 5 size groups), where a scan over every
worker makes W + 1 calls.  One seeded ``burst`` trace (base traffic at
0.75x the 12k-qps frontend cap, two spikes at 2x) drives every size, with
the deployment's SLA stamped on every query (Step A exits at the first
group that satisfies it) and without one (Step B visits every group).
"""

import dataclasses
from functools import lru_cache

import pytest

from repro.analysis.experiments import ExperimentSettings
from repro.gpu.architecture import A100
from repro.sim.worker import PartitionWorker
from repro.workload.scenario import build_scenario
from repro.workload.trace import QueryTrace

WORKERS = {1: 24, 4: 93, 16: 366}
GROUPS = 5


@lru_cache(maxsize=None)
def _deployment(servers):
    return ExperimentSettings().build_fleet_design("mobilenet", [(8, A100)] * servers)


def _burst(deployment, sla):
    cap = deployment.config.frontend_capacity_qps
    trace = build_scenario(
        "burst",
        model="mobilenet",
        base_qps=0.75 * cap,
        burst_qps=2.0 * cap,
        base_duration=0.04,
        burst_duration=0.01,
        repeats=2,
        seed=5,
    ).generate()
    if not sla:
        return trace
    target = deployment.sla_target
    return QueryTrace(tuple(dataclasses.replace(q, sla_target=target) for q in trace))


@pytest.mark.parametrize("sla", [True, False], ids=["sla", "no-sla"])
@pytest.mark.parametrize("servers", sorted(WORKERS))
def test_wait_polls_per_arrival_stay_within_twice_the_groups(servers, sla, monkeypatch):
    deployment = _deployment(servers)
    trace = _burst(deployment, sla)
    simulator = deployment.simulator()
    assert len(simulator.workers) == WORKERS[servers]
    assert len({(w.arch_name, w.gpcs) for w in simulator.workers}) == GROUPS

    calls = [0]

    def counted(method):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return method(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        PartitionWorker, "estimated_wait", counted(PartitionWorker.estimated_wait)
    )
    monkeypatch.setattr(PartitionWorker, "queued_work", counted(PartitionWorker.queued_work))
    result = simulator.run(trace)

    assert result.statistics.completed_queries == len(trace)
    # no crashes or reconfigurations: one decision per query
    assert calls[0] / len(trace) <= 2 * GROUPS
