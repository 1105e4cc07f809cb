#!/usr/bin/env python
"""Elastic fleet autoscaling: meet the SLA for fewer dollars.

A diurnal workload swings between a quiet trough and a peak needing three
2-GPU servers.  A static fleet must choose its size up front:

* **trough-sized** (1 server) is cheap but melts down at peak;
* **peak-sized** (3 servers) meets the SLA but burns money all night.

The :class:`repro.autoscale.Autoscaler` refuses the dilemma: the fleet
starts trough-sized, scale-out triggers watch the windowed metrics and
commission servers (after a provisioning lead time) as load climbs, and a
scale-in trigger drains them through the live-repartition machinery when
the rush is over.  The run is asserted to *dominate* the static choices —
far fewer violations than the trough-sized fleet, lower total $-cost than
the peak-sized one, while staying under the experiment's SLA bar.

Run with::

    python examples/autoscaling.py
"""

from repro.analysis.autoscaling import (
    RECONFIG_COST,
    SCALE_UNIT,
    TARGET_VIOLATION_RATE,
    WINDOW,
    iso_sla_autoscaler,
    iso_sla_scenario,
    iso_sla_template,
)
from repro.autoscale import static_fleet_cost
from repro.serving.config import config_with_fleet
from repro.serving.session import ServingSession


def run_static(scenario, pdf, num_servers: int):
    config = config_with_fleet(iso_sla_template(), (SCALE_UNIT,) * num_servers)
    result = ServingSession(config, batch_pdf=pdf, window=WINDOW).run(scenario)
    cost = static_fleet_cost(config.fleet, result.simulation.statistics.makespan)
    return result, cost


def main() -> None:
    scenario = iso_sla_scenario()
    pdf = scenario.average_pdf()
    print(f"scenario: {scenario.name}, {scenario.duration:.0f}s, "
          f"{len(scenario.phases)} phases")

    trough, trough_cost = run_static(scenario, pdf, 1)
    peak, peak_cost = run_static(scenario, pdf, 3)

    autoscaler = iso_sla_autoscaler()
    session = ServingSession(
        iso_sla_template(),
        batch_pdf=pdf,
        window=WINDOW,
        autoscaler=autoscaler,
        reconfig_cost=RECONFIG_COST,
    )
    scaled = session.run(scenario)

    rows = [
        ("static x1 (trough-sized)", trough.sla_violation_rate, trough_cost),
        ("static x3 (peak-sized)", peak.sla_violation_rate, peak_cost),
        ("autoscaled (1..4)", scaled.sla_violation_rate, scaled.fleet_cost),
    ]
    print(f"\n{'fleet':28s} {'SLA violations':>14s} {'total $-cost':>12s}")
    for name, viol, cost in rows:
        print(f"{name:28s} {viol:14.4f} {cost:12.1f}")

    print("\nfleet timeline (servers per second):")
    per_sec = [w.servers for w in scaled.fleet_windows][:: round(1 / WINDOW)]
    print("  " + " ".join(f"{s}" for s in per_sec))
    print(f"scale-outs: {sum(1 for e in scaled.fleet_events if e.kind == 'scale-out')}, "
          f"scale-ins: {sum(1 for e in scaled.fleet_events if e.kind == 'scale-in')}, "
          f"mean availability: {scaled.mean_availability:.4f}")

    # the elastic fleet dominates both static choices
    assert scaled.sla_violation_rate <= TARGET_VIOLATION_RATE, (
        f"autoscaled run missed the SLA bar: {scaled.sla_violation_rate:.4f} "
        f"> {TARGET_VIOLATION_RATE}"
    )
    assert scaled.sla_violation_rate < trough.sla_violation_rate, (
        "autoscaled run should beat the trough-sized static fleet's violations"
    )
    assert scaled.fleet_cost < peak_cost, (
        f"autoscaled cost {scaled.fleet_cost:.1f} should undercut the "
        f"peak-sized static fleet's {peak_cost:.1f}"
    )
    saving = 1.0 - scaled.fleet_cost / peak_cost
    print(f"\nSLA met at {saving:.1%} lower cost than the peak-sized static fleet")


if __name__ == "__main__":
    main()
