"""End-to-end test of the observe -> repartition -> reconfigure loop.

The acceptance scenario of the streaming session redesign: a batch-drift
scenario fires the PDF-drift trigger, the session repartitions *mid-run*
with a nonzero modeled MIG downtime, the windowed metrics show the
reconfiguration dip, and the post-repartition SLA violation rate lands below
the no-trigger control run over the identical trace.
"""

import pytest

from repro.analysis.experiments import ExperimentSettings, dynamic_scenario
from repro.serving.session import ServingSession
from repro.workload.scenario import build_scenario


@pytest.fixture(scope="module")
def scenario():
    return build_scenario(
        "batch-drift",
        model="mobilenet",
        rate_qps=500.0,
        phase_duration=25.0,
        start_median=2.0,
        end_median=16.0,
        steps=1,
        seed=3,
    )


@pytest.fixture(scope="module")
def deployment(scenario):
    settings = ExperimentSettings(num_queries=300, seed=0)
    return settings.build(
        scenario.model, "paris", "elsa", batch_pdf=scenario.initial_pdf()
    )


TRIGGERS = (("pdf-drift", {"threshold": 0.2, "min_queries": 200, "cooldown": 40.0}),)
RECONFIG_COST = 2.0
WINDOW = 2.0


@pytest.fixture(scope="module")
def triggered(deployment, scenario):
    session = ServingSession.from_deployment(
        deployment, triggers=TRIGGERS, reconfig_cost=RECONFIG_COST, window=WINDOW
    )
    return session.run(scenario, seed=1)


@pytest.fixture(scope="module")
def control(deployment, scenario):
    session = ServingSession.from_deployment(deployment, window=WINDOW)
    return session.run(scenario, seed=1)


class TestDriftTriggeredRepartition:
    def test_trigger_fires_and_repartitions_mid_run(
        self, triggered, control, scenario
    ):
        assert len(triggered.trigger_firings) == 1
        firing = triggered.trigger_firings[0]
        # the drift begins when phase 2 starts
        assert firing.time > scenario.phase_boundaries()[1]
        assert firing.trigger == "pdf-drift"
        (record,) = triggered.reconfigurations
        assert record.started < scenario.duration  # genuinely mid-run
        assert record.downtime >= RECONFIG_COST  # nonzero modeled downtime
        # the plan actually changed shape
        assert (
            triggered.deployment.plan.describe()
            != control.deployment.plan.describe()
        )

    def test_everything_still_completes(self, triggered, control):
        for result in (triggered, control):
            stats = result.simulation.statistics
            assert stats.completed_queries == stats.total_queries

    def test_windowed_metrics_show_the_reconfiguration_dip(self, triggered):
        windows = triggered.windows
        dip = [w for w in windows if w.reconfiguring]
        assert dip, "no window overlapped the reconfiguration downtime"
        steady = [w for w in windows if not w.reconfiguring and w.completions > 0]
        steady_throughput = max(w.throughput_qps for w in steady)
        # during the downtime the server completes (almost) nothing: the
        # deepest dip window must sit far below steady-state throughput
        assert min(w.throughput_qps for w in dip) < 0.2 * steady_throughput

    def test_post_repartition_violation_rate_beats_control(
        self, triggered, control
    ):
        (record,) = triggered.reconfigurations
        online = record.finished
        post = [w for w in triggered.windows if w.start >= online]
        control_post = [w for w in control.windows if w.start >= online]
        assert post
        assert control_post

        def rate(windows):
            sla = sum(w.sla_count for w in windows)
            return sum(w.violations for w in windows) / max(1, sla)

        triggered_rate = rate(post)
        control_rate = rate(control_post)
        assert triggered_rate < control_rate
        # and not marginally: repartitioning must recover most of the SLA
        assert triggered_rate < 0.5 * control_rate

    def test_control_run_never_reconfigures(self, control):
        assert control.reconfigurations == ()
        assert control.trigger_firings == ()
        assert not any(w.reconfiguring for w in control.windows)


class TestDynamicScenarioExperiment:
    def test_experiment_rows_cover_both_modes(self, scenario):
        settings = ExperimentSettings(num_queries=300, seed=0)
        rows = dynamic_scenario(
            scenario,
            settings=settings,
            triggers=TRIGGERS,
            reconfig_cost=RECONFIG_COST,
            window=WINDOW,
            seed=1,
        )
        modes = {row["mode"] for row in rows}
        assert modes == {"triggered", "control"}
        assert any(row["reconfiguring"] for row in rows if row["mode"] == "triggered")
        assert not any(row["reconfiguring"] for row in rows if row["mode"] == "control")
        triggered_plans = {row["plan"] for row in rows if row["mode"] == "triggered"}
        control_plans = {row["plan"] for row in rows if row["mode"] == "control"}
        assert triggered_plans != control_plans
