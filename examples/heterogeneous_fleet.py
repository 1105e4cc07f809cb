#!/usr/bin/env python
"""Serve one model on mixed-architecture GPU fleets at iso GPC-cost.

Production inference clusters mix GPU generations: yesterday's A100s keep
serving next to cheap A30s and a few expensive H100s.  This example shows the
whole stack running heterogeneous:

1. build three fleets of (approximately) equal GPC-cost — homogeneous A100,
   A100+A30 (more, cheaper GPCs) and A100+H100 (fewer, faster GPCs) — as
   ``ServerConfig(fleet=...)`` design points,
2. let fleet-PARIS divide each architecture's own GPC budget using that
   architecture's profile table (one global knee segmentation across every
   ``(architecture, size)`` device class),
3. replay the same workload on every fleet with architecture-aware ELSA
   (each instance is estimated through its own architecture's profile) and
   measure latency-bounded throughput at the same SLA,
4. sanity-check that the 8xA100 server and its one-server fleet spelling
   deploy and replay identically — a server is a fleet of one, so the fleet
   layer adds capability, not drift.

Run with::

    python examples/heterogeneous_fleet.py
"""

from repro import ServerConfig, build_deployment
from repro.analysis.experiments import ExperimentSettings, heterogeneous_fleet

MODEL = "resnet"

FLEETS = {
    "a100-only": ((8, "a100", 48),),
    "a100+a30": ((4, "a100", 28), (11, "a30", 44)),
    "a100+h100": ((4, "a100", 28), (2, "h100", 8)),
}


def check_homogeneous_identity(settings: ExperimentSettings) -> None:
    """The flat and the fleet spelling of one server must deploy and replay
    exactly alike."""
    pdf = settings.batch_pdf()
    flat = ServerConfig(
        MODEL, num_gpus=8, gpc_budget=48, frontend_capacity_qps=settings.frontend_qps
    )
    fleet = ServerConfig(
        MODEL, fleet=[(8, "a100", 48)], frontend_capacity_qps=settings.frontend_qps
    )
    d_flat = build_deployment(flat, pdf)
    d_fleet = build_deployment(fleet, pdf)
    assert list(d_flat.instances) == list(d_fleet.instances), "instances drifted"
    assert d_flat.plan == d_fleet.plan, "plans drifted"
    workload = settings.workload(MODEL)
    from dataclasses import replace

    from repro.workload.generator import QueryGenerator

    trace = QueryGenerator(
        replace(workload, rate_qps=2000.0, sla_target=d_flat.sla_target)
    ).generate()
    r_flat = d_flat.simulator().run(trace)
    r_fleet = d_fleet.simulator().run(trace)
    assert r_flat.p95_latency == r_fleet.p95_latency, "p95 drifted"
    assert r_flat.per_instance_queries == r_fleet.per_instance_queries
    print("homogeneous fleet bit-identity: OK "
          f"(p95 = {r_flat.p95_latency * 1e3:.2f} ms on both paths)")


def main() -> None:
    settings = ExperimentSettings(num_queries=600, search_iterations=6)

    check_homogeneous_identity(settings)
    print()

    rows = heterogeneous_fleet(model=MODEL, settings=settings, fleets=FLEETS)
    baseline = rows[0]

    header = (f"{'fleet':<12s} {'cost':>6s} {'GPCs':>5s} {'inst':>5s} "
              f"{'qps':>9s} {'p95 ms':>7s} {'qps/cost':>9s}")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['fleet']:<12s} {row['gpc_cost']:>6.1f} "
            f"{row['total_gpcs']:>5d} {row['instances']:>5d} "
            f"{row['throughput_qps']:>9.1f} {row['p95_latency_ms']:>7.2f} "
            f"{row['throughput_per_cost']:>9.1f}"
        )
    print()
    for row in rows:
        print(f"{row['fleet']:<12s} {row['plan']}")
    print()

    winners = [
        row["fleet"]
        for row in rows[1:]
        if row["throughput_per_cost"] >= baseline["throughput_per_cost"]
    ]
    if winners:
        print(f"mixed fleet(s) beating homogeneous at iso-cost: {', '.join(winners)}")
    else:
        print("no mixed fleet beat the homogeneous baseline on this workload")


if __name__ == "__main__":
    main()
