"""The iso-SLA cost experiment: elasticity vs. the best static fleet.

The paper's argument for reconfigurable serving is ultimately economic:
meet the SLA with fewer dollars.  This experiment pins that claim for the
fleet control plane with one deterministic, seeded scenario:

1. a diurnal load cycle (trough → ramp → peak → ramp, twice) over resnet;
2. the :class:`~repro.autoscale.planner.CapacityPlanner` scans static
   fleets of 1..N scale units and finds the cheapest one meeting the SLA
   (the *best static* baseline — sized for peak, idle at trough);
3. an autoscaled session starts trough-sized and lets the
   :class:`~repro.autoscale.autoscaler.Autoscaler` grow/shrink the fleet
   through the run, paying only for capacity it holds.

The claim checked by CI (``python -m repro.pipeline check autoscale``
against the committed ``BENCH_autoscale.json``): the autoscaled fleet **meets the same
SLA bar at strictly lower total $-cost** than the best static fleet.

:func:`iso_sla_results` runs the experiment at either scale of its knob
table: ``full`` (this artifact and the ``figures`` suite) or ``reduced``
(the ``smoke`` suite: sub-second replays that still scale out and in).

Everything is seeded; re-running the experiment reproduces the artifact
bit-for-bit, which is what lets CI diff it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.serving.config import ServerConfig
from repro.serving.session import ServingSession, SessionResult
from repro.workload.scenario import Scenario, build_scenario

if TYPE_CHECKING:
    from repro.autoscale import Autoscaler, CandidateResult

#: The experiment's knobs per scale.
_KNOBS: Dict[str, Dict[str, Any]] = {
    "full": {
        "unit": (2, "a100", 14),
        "scenario": {
            "model": "resnet",
            "trough_qps": 2500.0,
            "peak_qps": 19000.0,
            "phase_duration": 2.0,
            "cycles": 2,
        },
        "max_servers": 4,
        "window": 0.05,
    },
    "reduced": {
        "unit": (1, "a100", 7),
        "scenario": {
            "model": "mobilenet",
            "trough_qps": 600.0,
            "peak_qps": 9000.0,
            "phase_duration": 1.0,
            "cycles": 1,
        },
        "max_servers": 3,
        "window": 0.1,
    },
}

#: The scale unit every fleet in the experiment is built from.
SCALE_UNIT = _KNOBS["full"]["unit"]

#: Feasibility bar: measured SLA violation rate a fleet must stay under.
TARGET_VIOLATION_RATE = 0.05

#: Static fleet sizes the capacity scan considers (1..MAX_STATIC_SERVERS).
MAX_STATIC_SERVERS = _KNOBS["full"]["max_servers"]

#: Metrics window of every session and the planner (seconds).
WINDOW = _KNOBS["full"]["window"]

#: Modeled downtime of one live repartition (seconds).
RECONFIG_COST = 0.01

#: Scenario seed of the committed artifact.
_SEED = 42

#: Batch-size shape of the diurnal scenario at every scale.
_BATCH_SHAPE: Dict[str, Any] = {"max_batch": 4, "sigma": 0.8, "median_batch": 1.5}

_SLA_MULTIPLIER = 3.0


def _scenario_options(scale: str, seed: int) -> Dict[str, Any]:
    return {**_KNOBS[scale]["scenario"], **_BATCH_SHAPE, "seed": seed}


def _template(scale: str) -> ServerConfig:
    knobs = _KNOBS[scale]
    return ServerConfig(
        model=str(knobs["scenario"]["model"]),
        fleet=(knobs["unit"],),
        sla_multiplier=_SLA_MULTIPLIER,
    )


def _autoscaler(scale: str) -> "Autoscaler":
    from repro.autoscale import Autoscaler

    knobs = _KNOBS[scale]
    return Autoscaler(
        knobs["unit"],
        triggers=[
            ("scale-out-backlog", {"max_backlog": 24, "lookback_windows": 1}),
            (
                "scale-out-sla",
                {"threshold": 0.02, "min_queries": 30, "lookback_windows": 2},
            ),
            (
                "scale-in-idle",
                {
                    "max_violation_rate": 0.01,
                    "max_backlog": 4,
                    "lookback_windows": 3,
                },
            ),
        ],
        min_servers=1,
        max_servers=knobs["max_servers"],
        lead_time=0.1,
    )


def iso_sla_scenario(**overrides: Any) -> Scenario:
    """The experiment's pinned diurnal scenario (overridable for tests)."""
    return build_scenario("diurnal", **{**_scenario_options("full", _SEED), **overrides})


def iso_sla_template() -> ServerConfig:
    """The server template every candidate fleet inherits."""
    return _template("full")


def iso_sla_autoscaler() -> "Autoscaler":
    """The pinned elasticity policy (a fresh instance per run).

    Backlog reacts first (queue depth leads violation rate), the SLA
    trigger backstops it, and scale-in waits for a genuinely idle lookback.
    The 0.1 s lead time is the scenario-timescale stand-in for multi-minute
    cloud provisioning against a real day.
    """
    return _autoscaler("full")


def iso_sla_results(
    scale: str = "full",
    *,
    seed: int = _SEED,
    n_jobs: Optional[int] = 1,
    log: Optional[Any] = None,
) -> Tuple[List["CandidateResult"], SessionResult]:
    """Run the experiment at ``scale`` (``"full"`` or ``"reduced"``).

    Returns:
        The capacity scan's ranked static frontier (cheapest feasible fleet
        first) and the autoscaled session's result.
    """
    from repro.autoscale import CapacityPlanner

    knobs = _KNOBS[scale]
    scenario = build_scenario("diurnal", **_scenario_options(scale, seed))
    # one trace for the planner and the autoscaled session: both plan from
    # the explicit average PDF, never from the scenario's own
    trace = scenario.generate()
    template = _template(scale)
    pdf = scenario.average_pdf()
    planner = CapacityPlanner(
        template,
        pdf,
        trace,
        target_violation_rate=TARGET_VIOLATION_RATE,
        window=knobs["window"],
        n_jobs=n_jobs,
    )
    ranked = planner.plan([knobs["unit"]], knobs["max_servers"], log=log)
    session = ServingSession(
        template,
        batch_pdf=pdf,
        window=knobs["window"],
        autoscaler=_autoscaler(scale),
        reconfig_cost=RECONFIG_COST,
    )
    return ranked, session.run(trace)


def _round(value: float, digits: int = 6) -> float:
    return round(float(value), digits)


def run_iso_sla_experiment(
    *,
    n_jobs: Optional[int] = 1,
    log: Optional[Any] = None,
) -> Dict[str, Any]:
    """Run the full-scale experiment and return the artifact payload.

    Returns:
        A JSON-friendly dict: the ranked static frontier, the best static
        fleet, the autoscaled run's metrics, and the iso-SLA verdict
        (``autoscaled_meets_sla`` / ``autoscaled_cheaper`` / ``savings_pct``).
    """
    ranked, result = iso_sla_results(n_jobs=n_jobs, log=log)
    frontier: List[Dict[str, Any]] = [
        {
            "servers": len(r.specs),
            "fleet": r.fleet,
            "cost_rate": _round(r.cost_rate),
            "cost": _round(r.cost),
            "violation_rate": _round(r.violation_rate),
            "feasible": r.feasible,
        }
        for r in ranked
    ]
    best_static = frontier[0] if ranked and ranked[0].feasible else None
    servers = [w.servers for w in result.fleet_windows]
    autoscaled = {
        "violation_rate": _round(result.sla_violation_rate),
        "cost": _round(result.fleet_cost),
        "mean_availability": _round(result.mean_availability),
        "mean_servers": _round(sum(servers) / len(servers)) if servers else 0.0,
        "peak_servers": max(servers) if servers else 0,
        "scale_outs": sum(1 for e in result.fleet_events if e.kind == "scale-out"),
        "scale_ins": sum(1 for e in result.fleet_events if e.kind == "scale-in"),
    }

    meets_sla = autoscaled["violation_rate"] <= TARGET_VIOLATION_RATE
    cheaper = best_static is not None and autoscaled["cost"] < best_static["cost"]
    savings = (
        _round(1.0 - autoscaled["cost"] / best_static["cost"], 4)
        if best_static
        else None
    )
    return {
        "experiment": "iso_sla_autoscaling",
        "scenario": _scenario_options("full", _SEED),
        "scale_unit": list(SCALE_UNIT),
        "target_violation_rate": TARGET_VIOLATION_RATE,
        "static_frontier": frontier,
        "best_static": best_static,
        "autoscaled": autoscaled,
        "autoscaled_meets_sla": meets_sla,
        "autoscaled_cheaper": cheaper,
        "savings_pct": savings,
    }


def check_iso_sla_payload(payload: Dict[str, Any]) -> List[str]:
    """Validate the experiment's iso-SLA claims; returns failure messages."""
    failures: List[str] = []
    best = payload.get("best_static")
    auto = payload.get("autoscaled", {})
    if best is None:
        failures.append("no feasible static fleet found by the capacity scan")
        return failures
    target = payload.get("target_violation_rate", TARGET_VIOLATION_RATE)
    if auto.get("violation_rate", 1.0) > target:
        failures.append(
            f"autoscaled violation rate {auto.get('violation_rate')} exceeds "
            f"the {target} target"
        )
    if not auto.get("cost") or auto["cost"] >= best["cost"]:
        failures.append(
            f"autoscaled cost {auto.get('cost')} is not strictly below the "
            f"best static fleet's {best['cost']}"
        )
    return failures


__all__ = [
    "MAX_STATIC_SERVERS",
    "RECONFIG_COST",
    "SCALE_UNIT",
    "TARGET_VIOLATION_RATE",
    "WINDOW",
    "check_iso_sla_payload",
    "iso_sla_autoscaler",
    "iso_sla_results",
    "iso_sla_scenario",
    "iso_sla_template",
    "run_iso_sla_experiment",
]
