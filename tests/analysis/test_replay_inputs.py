"""Each windowed experiment builds its replay inputs once: one profile
table per (model, sweep) and one trace for every session it replays."""

from repro.analysis.autoscaling import iso_sla_results
from repro.analysis.faults import fault_sweep_results
from repro.perf.profiler import Profiler, cached_profile, clear_profile_cache
from repro.pipeline.suites import make_context, run_experiment
from repro.workload.generator import QueryGenerator
from repro.workload.scenario import Scenario


def test_fault_sweep_profiles_and_generates_once(spy):
    clear_profile_cache()
    profiled = spy(Profiler, "profile")
    generated = spy(QueryGenerator, "generate")
    points = list(fault_sweep_results("reduced"))
    assert len(points) == 3
    assert len(profiled) == 1
    assert len(generated) == 1
    table = cached_profile("mobilenet")
    replayed = len(generated[0].result)
    for _, _, _, result in points:
        assert result.deployment.profiles["mobilenet"] is table
        assert result.simulation.statistics.total_queries == replayed


def test_iso_sla_generates_its_scenario_once(spy):
    generated = spy(Scenario, "generate")
    ranked, result = iso_sla_results("reduced")
    assert len(generated) == 1
    assert len(ranked) == 3
    assert result.simulation.statistics.total_queries == len(generated[0].result)


def test_dynamic_scenario_generates_its_scenario_once(spy):
    generated = spy(Scenario, "generate")
    rows = run_experiment("dynamic_scenario", make_context("smoke", seed=0))
    assert len(generated) == 1
    assert sorted(row.design.split("/")[1] for row in rows) == ["control", "triggered"]
