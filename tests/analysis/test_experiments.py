"""Tests for the per-figure experiment runners.

The full paper-scale experiments run in the benchmark harness; here each
runner is exercised at a reduced scale to validate structure and the headline
qualitative claims.
"""

import dataclasses
import pickle

import pytest

from repro.analysis import experiments
from repro.analysis.experiments import ExperimentSettings
from repro.analysis.sweep import ParallelRunner
from repro.perf.profiler import cached_profile


@pytest.fixture(scope="module")
def settings():
    return ExperimentSettings(num_queries=200, search_iterations=4, seed=0)


class TestFigure3:
    def test_rows_cover_models_and_sizes(self):
        rows = experiments.figure3(models=("mobilenet", "bert"), batch=8)
        assert len(rows) == 2 * 5
        assert {row["model"] for row in rows} == {"mobilenet", "bert"}

    def test_utilization_decreases_with_partition_size(self):
        rows = experiments.figure3(models=("resnet",), batch=8)
        by_size = {row["gpcs"]: row for row in rows}
        assert by_size[1]["utilization"] > by_size[7]["utilization"]
        assert by_size[1]["normalized_latency"] >= by_size[7]["normalized_latency"]


class TestFigure4:
    def test_rows_marked_with_knee(self):
        rows = experiments.figure4(models=("mobilenet",), batch_sizes=(1, 4, 16, 64))
        knees = [row for row in rows if row["is_knee"]]
        assert knees  # at least one knee per partition size
        for row in rows:
            assert 0 < row["utilization"] <= 1.0


class TestFigure8:
    def test_paper_ratios_reproduced(self):
        result = experiments.figure8_example()
        assert result["ratio_small"] == pytest.approx(result["paper_ratio_small"])
        assert result["ratio_large"] == pytest.approx(result["paper_ratio_large"])


class TestTable1:
    def test_contains_homogeneous_and_paris_rows(self, settings):
        rows = experiments.table1(models=("mobilenet",), settings=settings)
        designs = {row["design"] for row in rows}
        assert designs == {"GPU(1)", "GPU(2)", "GPU(3)", "GPU(7)", "PARIS"}
        paris_row = [r for r in rows if r["design"] == "PARIS"][0]
        assert paris_row["gpcs"] <= 24


class TestHeadlineComparison:
    def test_paris_elsa_beats_gpu7_fifs(self, settings):
        """The core Figure 12 claim at reduced scale, for one heavy model."""
        rows = experiments.figure12(models=("bert",), settings=settings,
                                    include_random=False)
        by_design = {row["design"]: row for row in rows}
        assert by_design["paris+elsa"]["normalized_throughput"] >= 1.0
        assert by_design["gpu(7)+fifs"]["normalized_throughput"] == pytest.approx(1.0)

    def test_figure13b_structure(self, settings):
        rows = experiments.figure13b(
            models=("mobilenet",), max_batches=(16,), settings=settings
        )
        assert {row["max_batch"] for row in rows} == {16}
        designs = {row["design"] for row in rows}
        assert "paris+elsa" in designs


class TestBuildPolicyNameNormalisation:
    def test_untrimmed_homogeneous_name_still_gets_gpu7_budget(self, settings):
        tidy = settings.build("mobilenet", "homogeneous", "fifs")
        sloppy = settings.build("mobilenet", "  Homogeneous ", "fifs")
        assert sloppy.plan.total_gpcs == tidy.plan.total_gpcs == 28


class TestSettingsOverrides:
    def test_falsy_overrides_are_not_replaced_by_defaults(self, settings):
        # 0 is an explicit value the config rejects, not "use the default"
        with pytest.raises(ValueError, match="sla_multiplier"):
            settings.build("mobilenet", "paris", "elsa", sla_multiplier=0.0)
        with pytest.raises(ValueError, match="max_batch"):
            settings.build("mobilenet", "paris", "elsa", max_batch=0)
        with pytest.raises(ValueError, match="max_batch"):
            settings.build_fleet_design("mobilenet", ((1, "a100", 7),), max_batch=0)


class TestSettingsProfiles:
    def test_default_settings_share_the_process_cache(self):
        assert ExperimentSettings().profile("mobilenet") is cached_profile("mobilenet")

    def test_replaced_settings_profile_their_own_max_batch(self):
        settings = ExperimentSettings()
        assert settings.profile("mobilenet").max_batch == 64
        wider = dataclasses.replace(settings, max_batch=100)
        assert wider.profile("mobilenet").max_batch == 100
        assert settings.profile("mobilenet").max_batch == 64

    def test_build_profiles_the_designs_max_batch(self):
        overridden = ExperimentSettings().build("mobilenet", "paris", "elsa", max_batch=100)
        wider = ExperimentSettings(max_batch=100).build("mobilenet", "paris", "elsa")
        assert overridden.profiles["mobilenet"] is wider.profiles["mobilenet"]
        assert overridden.sla_target == wider.sla_target


def _count_searches(monkeypatch):
    """Record ``(design label, workload)`` per latency-bounded search."""
    searched = []
    real = experiments.latency_bounded_throughput

    def counting(deployment, workload, **kwargs):
        searched.append((deployment.config.label(), workload))
        return real(deployment, workload, **kwargs)

    monkeypatch.setattr(experiments, "latency_bounded_throughput", counting)
    return searched


class TestSlaSensitivity:
    def test_gpu7_is_searched_once_per_point(self, settings, monkeypatch):
        # GPU(max)'s homogeneous field already measures GPU(7): four
        # homogeneous searches plus PARIS+ELSA per (model, multiplier).  A
        # copy of the settings starts with empty memos, so the count does
        # not depend on what other tests searched first.
        searched = _count_searches(monkeypatch)
        rows = experiments.sla_sensitivity(
            models=("mobilenet",), multipliers=(1.5,), settings=dataclasses.replace(settings)
        )
        assert len(rows) == 1
        assert sorted(label for label, _ in searched) == sorted(
            ["gpu(1)+fifs", "gpu(2)+fifs", "gpu(3)+fifs", "gpu(7)+fifs", "paris+elsa"]
        )


class TestSharedWork:
    """One settings object builds each design and runs each search once."""

    def test_figure12_then_sla_sensitivity_searches_no_design_twice(
        self, settings, monkeypatch
    ):
        fresh = dataclasses.replace(settings)
        searched = _count_searches(monkeypatch)
        experiments.figure12(models=("mobilenet",), settings=fresh, include_random=False)
        figure12_searches = len(searched)
        experiments.sla_sensitivity(models=("mobilenet",), multipliers=(1.5,), settings=fresh)
        assert figure12_searches == 6
        # every design sla_sensitivity needs at x1.5 was searched by figure12
        assert len(searched) == figure12_searches
        assert len(set(searched)) == len(searched)

    @pytest.mark.parametrize(
        ("knob", "value"), [("sla_multiplier", 2.0), ("sigma", 0.3), ("max_batch", 16)]
    )
    def test_a_changed_knob_searches_anew(self, settings, monkeypatch, knob, value):
        fresh = dataclasses.replace(settings)
        searched = _count_searches(monkeypatch)
        override = {knob: value}
        workload_knobs = {} if knob == "sla_multiplier" else override
        base = fresh.build("mobilenet", "paris", "elsa")
        varied = fresh.build("mobilenet", "paris", "elsa", **override)
        assert varied is not base
        assert fresh.build("mobilenet", "paris", "elsa", **override) is varied
        fresh.measure(base)
        first = fresh.measure(varied, **workload_knobs)
        assert len(searched) == 2
        assert fresh.measure(varied, **workload_knobs) is first
        assert len(searched) == 2

    def test_copies_start_with_empty_memos(self, settings):
        fresh = dataclasses.replace(settings)
        deployment = fresh.build("mobilenet", "homogeneous", "fifs")
        fresh.measure(deployment)
        for copy in (dataclasses.replace(fresh), pickle.loads(pickle.dumps(fresh))):
            assert copy == fresh
            assert copy._builds == {} and copy._searches == {}
            assert copy.build("mobilenet", "homogeneous", "fifs") is not deployment
        assert len(fresh._builds) == 1 and len(fresh._searches) == 1

    def test_parallel_measure_designs_dispatches_only_misses(self, monkeypatch):
        serial = ExperimentSettings(num_queries=100, search_iterations=2)
        names = ("gpu(7)+fifs", "gpu(3)+fifs", "paris+fifs", "paris+elsa")
        expected = experiments.measure_designs(
            serial, experiments.named_designs("mobilenet", serial, names)
        )

        with ParallelRunner(n_jobs=2, force_spawn=True) as runner:
            parallel = ExperimentSettings(
                num_queries=100, search_iterations=2, n_jobs=2, _runner=runner
            )
            deployments = experiments.named_designs("mobilenet", parallel, names)
            deployments["alias"] = deployments["paris+elsa"]
            parallel.measure(deployments["gpu(7)+fifs"])
            dispatched = []
            real_map = runner.map_shared

            def recording(fn, shared, items, work_hint=None):
                items = list(items)
                dispatched.append([deployment.config.label() for deployment, _ in items])
                return real_map(fn, shared, items, work_hint=work_hint)

            monkeypatch.setattr(runner, "map_shared", recording)
            results = experiments.measure_designs(parallel, deployments)
            assert runner.warm

        assert dispatched == [["gpu(3)+fifs", "paris+fifs", "paris+elsa"]]
        assert list(results) == [*names, "alias"]
        assert {name: results[name] for name in names} == expected
        assert results["alias"] is results["paris+elsa"]
