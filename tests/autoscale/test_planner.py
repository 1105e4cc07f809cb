"""Capacity planner: mix enumeration and the measured feasible frontier."""

import pytest

from repro.analysis.sweep import ParallelRunner
from repro.autoscale.planner import CapacityPlanner, enumerate_mixes
from repro.gpu.cost import fleet_gpc_cost
from repro.serving.config import ServerConfig, config_with_fleet
from repro.serving.session import ServingSession
from repro.workload.generator import WorkloadConfig
from repro.workload.scenario import build_scenario

SMALL = (2, "a100", 6)
BIG = (2, "a100", 12)

TEMPLATE = ServerConfig(model="mobilenet", fleet=(SMALL,))
PDF = {1: 0.5, 2: 0.3, 4: 0.2}

WORKLOAD = WorkloadConfig(
    model="mobilenet", rate_qps=200.0, num_queries=400, seed=13
)

SCENARIO = build_scenario(
    "diurnal",
    model="mobilenet",
    trough_qps=200.0,
    peak_qps=800.0,
    phase_duration=0.4,
    max_batch=4,
    seed=13,
)


class TestEnumerateMixes:
    def test_orders_cheapest_first(self):
        mixes = enumerate_mixes([SMALL, BIG], max_servers=2)
        costs = [fleet_gpc_cost(mix) for mix in mixes]
        assert costs == sorted(costs)
        assert costs == [6.0, 12.0, 12.0, 18.0, 24.0]

    def test_mix_count_is_multisets_per_size(self):
        # sizes 1..3 over 2 shapes: 2 + 3 + 4 multisets
        assert len(enumerate_mixes([SMALL, BIG], max_servers=3)) == 9

    def test_min_servers_floor(self):
        mixes = enumerate_mixes([SMALL], max_servers=3, min_servers=2)
        assert [len(mix) for mix in mixes] == [2, 3]

    def test_duplicate_shapes_are_deduplicated(self):
        assert enumerate_mixes([SMALL, SMALL], max_servers=2) == enumerate_mixes(
            [SMALL], max_servers=2
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            enumerate_mixes([], max_servers=2)
        with pytest.raises(ValueError, match="min_servers"):
            enumerate_mixes([SMALL], max_servers=2, min_servers=0)
        with pytest.raises(ValueError, match="max_servers"):
            enumerate_mixes([SMALL], max_servers=1, min_servers=2)

    def test_validation_at_construction(self):
        with pytest.raises(ValueError, match="target_violation_rate"):
            CapacityPlanner(TEMPLATE, PDF, WORKLOAD, target_violation_rate=-0.1)
        with pytest.raises(ValueError, match="window"):
            CapacityPlanner(TEMPLATE, PDF, WORKLOAD, window=0.0)


class TestPlanFrontier:
    def test_frontier_is_ranked_feasible_first_cheapest_first(self):
        planner = CapacityPlanner(
            TEMPLATE, PDF, WORKLOAD, target_violation_rate=1.0, window=0.25
        )
        ranked = planner.plan([SMALL], max_servers=2)
        assert len(ranked) == 2
        assert all(r.feasible for r in ranked)  # target 1.0: everything passes
        assert [r.cost_rate for r in ranked] == [6.0, 12.0]
        assert ranked[0].fleet == "2xA100-SXM4-40GB(6)"
        # cost is the rate held for the replayed horizon, so the doubled
        # fleet costs strictly more over a near-identical run
        assert ranked[1].cost > ranked[0].cost > 0.0
        assert all(r.throughput_qps > 0 for r in ranked)

    def test_top_pick_verifies_by_end_to_end_replay(self):
        planner = CapacityPlanner(
            TEMPLATE, PDF, WORKLOAD, target_violation_rate=1.0, window=0.25
        )
        best = planner.cheapest_feasible([SMALL], max_servers=2)
        assert best is not None
        replay = ServingSession(
            config_with_fleet(TEMPLATE, best.specs), batch_pdf=PDF, window=0.25
        ).run(WORKLOAD)
        assert replay.sla_violation_rate == best.violation_rate
        assert replay.p95_latency == best.p95_latency
        assert replay.throughput_qps == best.throughput_qps

    def test_infeasible_candidates_rank_by_violation_rate(self):
        # an impossible bar against a saturating burst: everything is
        # infeasible, so the frontier leads with the least-violating fleet
        # and there is no "cheapest feasible" pick
        overloaded = WorkloadConfig(
            model="mobilenet", rate_qps=20000.0, num_queries=400, seed=13
        )
        planner = CapacityPlanner(
            TEMPLATE, PDF, overloaded, target_violation_rate=0.0, window=0.25
        )
        ranked = planner.plan([SMALL], max_servers=2)
        assert all(not r.feasible for r in ranked)
        rates = [r.violation_rate for r in ranked]
        assert rates == sorted(rates)
        assert planner.cheapest_feasible([SMALL], max_servers=2) is None

    def test_early_stop_skips_strictly_more_expensive_candidates(self):
        planner = CapacityPlanner(
            TEMPLATE, PDF, WORKLOAD, target_violation_rate=1.0, window=0.25
        )
        lines = []
        ranked = planner.plan(
            [SMALL, BIG],
            max_servers=2,
            stop_after_feasible=1,
            log=lines.append,
        )
        # chunked cheapest-first scan: the first chunk (4 candidates)
        # already contains a feasible fleet, so the 5th is skipped
        assert len(ranked) == 4
        assert ranked[0].feasible
        assert any("early stop" in line and "skipped 1" in line for line in lines)


class TestOneTracePerPlan:
    def test_fan_out_hint_is_the_replayed_trace_length(self, spy):
        # a scenario has no num_queries; the hint must still count the
        # queries every candidate replays, or no pool ever pays off
        calls = spy(ParallelRunner, "map_shared")
        planner = CapacityPlanner(TEMPLATE, PDF, SCENARIO, window=0.25)
        planner.plan([SMALL], max_servers=2)
        (call,) = calls
        assert call.kwargs["work_hint"] == len(SCENARIO.generate()) > 0

    def test_forced_two_job_runner_matches_inline(self):
        inline = CapacityPlanner(TEMPLATE, PDF, SCENARIO, window=0.25).plan(
            [SMALL, BIG], max_servers=2
        )
        with ParallelRunner(n_jobs=2, force_spawn=True) as runner:
            planner = CapacityPlanner(
                TEMPLATE, PDF, SCENARIO, window=0.25, runner=runner
            )
            forked = planner.plan([SMALL, BIG], max_servers=2)
            assert runner.warm
        assert forked == inline
