"""Tests for the Phase/Scenario workload layer and the scenario registry."""

import math

import pytest

from repro.registry import UnknownPolicyError
from repro.workload.scenario import (
    SCENARIOS,
    Phase,
    Scenario,
    available_scenarios,
    batch_drift_scenario,
    build_scenario,
    burst_scenario,
    diurnal_scenario,
    get_scenario,
    register_scenario,
)


class TestPhaseValidation:
    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            Phase(duration=0.0, rate_qps=10.0)

    def test_negative_and_infinite_durations_rejected(self):
        with pytest.raises(ValueError):
            Phase(duration=-1.0, rate_qps=10.0)
        with pytest.raises(ValueError):
            Phase(duration=math.inf, rate_qps=10.0)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError, match="rate_qps"):
            Phase(duration=1.0, rate_qps=0.0)
        with pytest.raises(ValueError):
            Phase(duration=1.0, rate_qps=math.nan)

    def test_distribution_parameters_validated(self):
        with pytest.raises(ValueError):
            Phase(duration=1.0, rate_qps=1.0, max_batch=0)
        with pytest.raises(ValueError):
            Phase(duration=1.0, rate_qps=1.0, sigma=0.0)
        with pytest.raises(ValueError):
            Phase(duration=1.0, rate_qps=1.0, median_batch=0.0)

    def test_model_mix_validated(self):
        with pytest.raises(ValueError):
            Phase(duration=1.0, rate_qps=1.0, model_mix={"": 1.0})
        with pytest.raises(ValueError):
            Phase(duration=1.0, rate_qps=1.0, model_mix={"bert": 0.0})

    def test_batch_pdf_sums_to_one(self):
        pdf = Phase(duration=1.0, rate_qps=1.0, median_batch=4.0).batch_pdf()
        assert sum(pdf.values()) == pytest.approx(1.0)


class TestScenario:
    def _scenario(self, seed=0):
        return Scenario(
            name="test",
            model="toy",
            phases=(
                Phase(duration=10.0, rate_qps=20.0, median_batch=2.0, name="a"),
                Phase(duration=5.0, rate_qps=40.0, median_batch=8.0, name="b"),
            ),
            seed=seed,
        )

    def test_requires_phases(self):
        with pytest.raises(ValueError):
            Scenario(name="x", model="toy", phases=())
        with pytest.raises(TypeError):
            Scenario(name="x", model="toy", phases=("not-a-phase",))
        with pytest.raises(ValueError):
            Scenario(name="x", model="", phases=(Phase(1.0, 1.0),))

    def test_duration_and_boundaries(self):
        scenario = self._scenario()
        assert scenario.duration == pytest.approx(15.0)
        assert scenario.phase_boundaries() == [0.0, 10.0]

    def test_generated_arrivals_monotone_and_within_bounds(self):
        trace = self._scenario().generate()
        arrivals = [q.arrival_time for q in trace]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] >= 0.0
        assert arrivals[-1] < 15.0
        assert len(trace) > 0
        # query ids are dense and unique
        assert [q.query_id for q in trace] == list(range(len(trace)))

    def test_generation_is_deterministic_per_seed(self):
        a = self._scenario().generate()
        b = self._scenario().generate()
        assert [(q.arrival_time, q.batch) for q in a] == [
            (q.arrival_time, q.batch) for q in b
        ]
        c = self._scenario().generate(seed=99)
        assert [(q.arrival_time, q.batch) for q in a] != [
            (q.arrival_time, q.batch) for q in c
        ]

    def test_phase_query_counts_compose(self):
        scenario = self._scenario()
        trace = scenario.generate()
        boundary = scenario.phase_boundaries()[1]
        first = [q for q in trace if q.arrival_time < boundary]
        second = [q for q in trace if q.arrival_time >= boundary]
        assert len(first) + len(second) == len(trace)
        # ~200 expected in phase a, ~200 in phase b; loose sanity bounds
        assert 100 < len(first) < 320
        assert 100 < len(second) < 320

    def test_model_mix_sampling(self):
        scenario = Scenario(
            name="mix",
            model="toy",
            phases=(
                Phase(
                    duration=20.0,
                    rate_qps=30.0,
                    model_mix={"toy": 1.0, "other": 1.0},
                ),
            ),
        )
        assert scenario.models == ("toy", "other")
        trace = scenario.generate()
        served = {q.model for q in trace}
        assert served == {"toy", "other"}

    def test_initial_and_average_pdfs(self):
        scenario = self._scenario()
        initial = scenario.initial_pdf()
        average = scenario.average_pdf()
        assert sum(initial.values()) == pytest.approx(1.0)
        assert sum(average.values()) == pytest.approx(1.0)
        assert initial == scenario.phases[0].batch_pdf()
        # phase b skews larger, so the average must sit above the initial
        mean = lambda pdf: sum(b * p for b, p in pdf.items())  # noqa: E731
        assert mean(average) > mean(initial)


class TestScenarioRegistry:
    def test_builtins_registered(self):
        names = available_scenarios()
        assert {"diurnal", "burst", "batch-drift"} <= set(names)
        assert "drift" in SCENARIOS  # alias
        assert get_scenario("diurnal") is diurnal_scenario

    def test_build_scenario(self):
        scenario = build_scenario("batch-drift", model="toy", rate_qps=10.0)
        assert isinstance(scenario, Scenario)
        assert scenario.model == "toy"
        with pytest.raises(UnknownPolicyError):
            build_scenario("no-such-scenario")

    def test_register_custom_scenario(self):
        @register_scenario("test-custom-scenario")
        def _custom(model="toy"):
            return Scenario(
                name="custom", model=model, phases=(Phase(1.0, 1.0),)
            )

        try:
            scenario = build_scenario("test-custom-scenario")
            assert scenario.name == "custom"
        finally:
            SCENARIOS.unregister("test-custom-scenario")

    def test_factory_must_return_scenario(self):
        @register_scenario("test-bad-scenario")
        def _bad():
            return "nope"

        try:
            with pytest.raises(TypeError):
                build_scenario("test-bad-scenario")
        finally:
            SCENARIOS.unregister("test-bad-scenario")


class TestBuiltinBuilders:
    def test_diurnal_shape(self):
        scenario = diurnal_scenario(
            model="toy", trough_qps=10.0, peak_qps=90.0, phase_duration=5.0, cycles=2
        )
        assert len(scenario.phases) == 8
        rates = [p.rate_qps for p in scenario.phases[:4]]
        assert rates[0] == 10.0
        assert rates[2] == 90.0
        assert rates[1] == pytest.approx(30.0)  # geometric mid
        with pytest.raises(ValueError):
            diurnal_scenario(cycles=0)

    def test_burst_shape(self):
        scenario = burst_scenario(
            model="toy", base_qps=10.0, burst_qps=100.0, repeats=2
        )
        assert [p.name for p in scenario.phases] == [
            "base#0", "burst#0", "base#1", "burst#1", "cooldown",
        ]
        with pytest.raises(ValueError):
            burst_scenario(repeats=0)

    def test_batch_drift_medians(self):
        scenario = batch_drift_scenario(
            model="toy", start_median=2.0, end_median=16.0, steps=3
        )
        medians = [p.median_batch for p in scenario.phases]
        assert medians[0] == pytest.approx(2.0)
        assert medians[-1] == pytest.approx(16.0)
        assert medians == sorted(medians)
        assert len(medians) == 4
        with pytest.raises(ValueError):
            batch_drift_scenario(steps=0)
