"""The scale trigger family: action-tagged decisions for the autoscaler."""

import pytest

from repro.core.triggers import (
    PdfDriftTrigger,
    ScaleInIdleTrigger,
    ScaleOutBacklogTrigger,
    ScaleOutSlaTrigger,
    SlaViolationTrigger,
    TriggerContext,
    TriggerDecision,
    build_trigger,
    resolve_triggers,
)
from repro.serving.config import ServerConfig
from repro.serving.session import ServingSession
from repro.workload.generator import WorkloadConfig
from repro.workload.query import Query
from tests.sim.helpers import bound_metrics


def metrics_with(
    *, arrivals=0, completed=0, violated=0, window=1.0, time=0.1
):
    """WindowedMetrics primed with arrivals and (possibly violating)
    completions; ``arrivals - completed`` is the live frontend backlog."""
    queries = [
        Query(query_id=idx, model="toy", batch=4, arrival_time=time, sla_target=1.0)
        for idx in range(arrivals)
    ]
    finish = {
        idx: time + (2.0 if idx < violated else 0.5)
        for idx in range(min(completed, arrivals))
    }
    return bound_metrics(window, queries, finish)


def context(metrics, now=5.0, since_reconfig=100.0):
    return TriggerContext(
        now=now,
        planned_pdf={4: 1.0},
        metrics=metrics,
        time_since_reconfig=since_reconfig,
    )


class TestActionField:
    def test_default_action_is_repartition(self):
        assert TriggerDecision(fire=True).action == "repartition"
        assert TriggerDecision.hold().action == "repartition"

    def test_registry_resolves_the_scale_family(self):
        triggers = resolve_triggers(
            ["scale-out-sla", "scale-out-backlog", "scale-in-idle"]
        )
        assert [t.name for t in triggers] == [
            "scale-out-sla",
            "scale-out-backlog",
            "scale-in-idle",
        ]


class TestScaleOutSla:
    def test_fires_scale_out_above_threshold(self):
        trigger = ScaleOutSlaTrigger(threshold=0.2, min_queries=5, lookback_windows=3)
        metrics = metrics_with(arrivals=10, completed=10, violated=5, window=10.0)
        decision = trigger.evaluate(context(metrics))
        assert decision.fire
        assert decision.action == "scale-out"
        assert "violation rate" in decision.reason

    def test_holds_below_threshold_and_in_warmup(self):
        trigger = ScaleOutSlaTrigger(threshold=0.9, min_queries=5, lookback_windows=3)
        metrics = metrics_with(arrivals=10, completed=10, violated=1, window=10.0)
        assert not trigger.evaluate(context(metrics)).fire
        hot = ScaleOutSlaTrigger(threshold=0.1, min_queries=5, lookback_windows=3)
        warmup = trigger.evaluate(context(metrics, since_reconfig=0.0))
        assert not warmup.fire
        assert "reconfiguration" in warmup.reason
        assert not hot.evaluate(
            context(metrics_with(arrivals=2, completed=2, violated=2, window=10.0))
        ).fire  # below min_queries

    def test_validation(self):
        with pytest.raises(ValueError):
            ScaleOutSlaTrigger(threshold=1.0)
        with pytest.raises(ValueError):
            ScaleOutSlaTrigger(lookback_windows=0)


class TestScaleOutBacklog:
    def test_fires_on_deep_backlog(self):
        trigger = ScaleOutBacklogTrigger(max_backlog=5, lookback_windows=1)
        metrics = metrics_with(arrivals=20, completed=4, window=10.0)
        decision = trigger.evaluate(context(metrics))
        assert decision.fire
        assert decision.action == "scale-out"
        assert "backlog 16" in decision.reason

    def test_holds_at_or_below_the_mark(self):
        trigger = ScaleOutBacklogTrigger(max_backlog=16, lookback_windows=1)
        metrics = metrics_with(arrivals=20, completed=4, window=10.0)
        assert not trigger.evaluate(context(metrics)).fire

    def test_validation(self):
        with pytest.raises(ValueError):
            ScaleOutBacklogTrigger(max_backlog=0)


class TestScaleInIdle:
    def test_fires_when_quiet_and_drained(self):
        trigger = ScaleInIdleTrigger(
            max_violation_rate=0.05, max_backlog=2, min_queries=5, lookback_windows=3
        )
        metrics = metrics_with(arrivals=10, completed=10, violated=0, window=10.0)
        decision = trigger.evaluate(context(metrics))
        assert decision.fire
        assert decision.action == "scale-in"

    def test_holds_on_violations_even_with_empty_queue(self):
        trigger = ScaleInIdleTrigger(
            max_violation_rate=0.05, max_backlog=64, min_queries=5, lookback_windows=3
        )
        metrics = metrics_with(arrivals=10, completed=10, violated=5, window=10.0)
        assert not trigger.evaluate(context(metrics)).fire

    def test_holds_on_backlog_even_when_quiet(self):
        trigger = ScaleInIdleTrigger(
            max_violation_rate=0.5, max_backlog=2, min_queries=5, lookback_windows=3
        )
        metrics = metrics_with(arrivals=20, completed=10, violated=0, window=10.0)
        assert not trigger.evaluate(context(metrics)).fire

    def test_empty_lookback_is_not_overprovisioning_evidence(self):
        trigger = ScaleInIdleTrigger(min_queries=5, lookback_windows=3)
        metrics = metrics_with(arrivals=0, window=10.0)
        decision = trigger.evaluate(context(metrics))
        assert not decision.fire
        assert "recent SLA queries" in decision.reason

    def test_build_trigger_forwards_options(self):
        trigger = build_trigger("scale-in-idle", max_backlog=3, min_queries=7)
        assert trigger.max_backlog == 3
        assert trigger.min_queries == 7


class TestPlainSessionRejectsScaleTriggers:
    CONFIG = ServerConfig(model="mobilenet", gpc_budget=24, num_gpus=4)

    def test_declared_actions(self):
        assert ScaleOutSlaTrigger.action == "scale-out"
        assert ScaleOutBacklogTrigger.action == "scale-out"
        assert ScaleInIdleTrigger.action == "scale-in"
        assert PdfDriftTrigger.action == SlaViolationTrigger.action == "repartition"

    @pytest.mark.parametrize(
        "entry",
        [
            "scale-out-sla",
            ("scale-out-backlog", {"max_backlog": 5, "lookback_windows": 1}),
            ScaleInIdleTrigger(),
        ],
    )
    def test_scale_trigger_without_autoscaler_is_rejected(self, entry):
        with pytest.raises(
            ValueError,
            match=r"^trigger '[a-z-]+' fires 'scale-(out|in)' decisions, which "
            r"only an autoscaler executes; pass it as Autoscaler\(triggers=\.\.\.\) "
            r"and the autoscaler as autoscaler=\.\.\.$",
        ):
            ServingSession(self.CONFIG, window=0.05, triggers=[entry])

    def test_undeclared_scale_decisions_are_skipped_at_run_time(self):
        # a custom trigger that declares no action passes construction; its
        # scale-out firings still never repartition a plain session
        class AlwaysScaleOut:
            name = "always-scale-out"

            def evaluate(self, context):
                return TriggerDecision(fire=True, action="scale-out")

        session = ServingSession(
            self.CONFIG,
            window=0.05,
            reconfig_cost=0.01,
            triggers=[AlwaysScaleOut()],
        )
        result = session.run(
            WorkloadConfig(
                model="mobilenet", rate_qps=20000.0, num_queries=4000, seed=3
            )
        )
        assert result.trigger_firings == ()
        assert result.reconfigurations == ()
