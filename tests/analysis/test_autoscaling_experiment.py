"""The committed iso-SLA experiment artifact and its claim checker.

The heavy regeneration path (``run_iso_sla_experiment``) is exercised by
``python -m repro.pipeline check autoscale`` in its own CI step; here we
pin the cheap
invariants: the committed artifact exists, its claims hold, and the
experiment's building blocks construct deterministically.
"""

import json
from pathlib import Path

from repro.analysis.autoscaling import (
    MAX_STATIC_SERVERS,
    SCALE_UNIT,
    TARGET_VIOLATION_RATE,
    check_iso_sla_payload,
    iso_sla_autoscaler,
    iso_sla_scenario,
    iso_sla_template,
)

ARTIFACT = Path(__file__).resolve().parents[2] / "BENCH_autoscale.json"


class TestCommittedArtifact:
    def test_artifact_exists_and_claims_hold(self):
        payload = json.loads(ARTIFACT.read_text())
        assert check_iso_sla_payload(payload) == []
        assert payload["autoscaled_meets_sla"] is True
        assert payload["autoscaled_cheaper"] is True
        assert payload["savings_pct"] > 0

    def test_static_frontier_has_a_feasible_and_an_infeasible_fleet(self):
        payload = json.loads(ARTIFACT.read_text())
        frontier = payload["static_frontier"]
        assert any(row["feasible"] for row in frontier)
        assert any(not row["feasible"] for row in frontier)
        best = payload["best_static"]
        feasible_costs = [r["cost"] for r in frontier if r["feasible"]]
        assert best["cost"] == min(feasible_costs)


class TestClaimChecker:
    def test_flags_missing_static_baseline(self):
        failures = check_iso_sla_payload({"autoscaled": {}})
        assert failures == ["no feasible static fleet found by the capacity scan"]

    def test_flags_sla_miss_and_cost_parity(self):
        payload = {
            "best_static": {"cost": 100.0},
            "autoscaled": {"violation_rate": 0.9, "cost": 100.0},
            "target_violation_rate": 0.05,
        }
        failures = check_iso_sla_payload(payload)
        assert len(failures) == 2
        assert any("violation rate" in f for f in failures)
        assert any("not strictly below" in f for f in failures)

    def test_passes_a_dominating_payload(self):
        payload = {
            "best_static": {"cost": 100.0},
            "autoscaled": {"violation_rate": 0.01, "cost": 90.0},
            "target_violation_rate": 0.05,
        }
        assert check_iso_sla_payload(payload) == []


class TestExperimentBuildingBlocks:
    def test_scenario_and_template_are_consistent(self):
        scenario = iso_sla_scenario()
        template = iso_sla_template()
        assert scenario.model == template.model == "resnet"
        (server,) = template.fleet
        assert (server.num_gpus, server.effective_gpc_budget) == (
            SCALE_UNIT[0],
            SCALE_UNIT[2],
        )
        assert 0 < TARGET_VIOLATION_RATE < 1
        assert MAX_STATIC_SERVERS >= 2

    def test_autoscaler_scales_the_same_unit_the_planner_enumerates(self):
        scaler = iso_sla_autoscaler()
        assert scaler.scale_unit.describe() == "2xA100-SXM4-40GB(14)"
        assert scaler.max_servers == MAX_STATIC_SERVERS

    def test_scenario_overrides_apply(self):
        assert iso_sla_scenario(cycles=1) != iso_sla_scenario()
