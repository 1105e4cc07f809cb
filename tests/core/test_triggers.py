"""Tests for the pluggable repartition triggers."""

import pytest

from repro.core.triggers import (
    TRIGGERS,
    PdfDriftTrigger,
    SlaViolationTrigger,
    TriggerContext,
    TriggerDecision,
    available_triggers,
    build_trigger,
    register_trigger,
    resolve_triggers,
    total_variation_distance,
)
from repro.registry import UnknownPolicyError
from repro.sim.hooks import WindowedMetrics
from repro.workload.query import Query
from tests.sim.helpers import bound_metrics


def _metrics_with_arrivals(batches, window=1.0, time=0.5):
    """WindowedMetrics primed with arrivals of the given batch sizes."""
    queries = [
        Query(query_id=idx, model="toy", batch=batch, arrival_time=time)
        for idx, batch in enumerate(batches)
    ]
    return bound_metrics(window, queries)


def _context(metrics, planned, now=0.9, since_reconfig=100.0):
    return TriggerContext(
        now=now,
        planned_pdf=planned,
        metrics=metrics,
        time_since_reconfig=since_reconfig,
    )


class TestTotalVariation:
    def test_identical_is_zero(self):
        assert total_variation_distance({1: 0.5, 2: 0.5}, {1: 0.5, 2: 0.5}) == 0.0

    def test_disjoint_is_one(self):
        assert total_variation_distance({1: 1.0}, {2: 1.0}) == pytest.approx(1.0)

    def test_symmetric(self):
        p, q = {1: 0.7, 2: 0.3}, {1: 0.2, 8: 0.8}
        assert total_variation_distance(p, q) == pytest.approx(
            total_variation_distance(q, p)
        )


class TestPdfDriftTrigger:
    def test_fires_on_drift_with_observed_pdf(self):
        trigger = PdfDriftTrigger(threshold=0.3, min_queries=4, lookback_windows=5)
        metrics = _metrics_with_arrivals([16, 16, 16, 16])
        decision = trigger.evaluate(_context(metrics, planned={1: 1.0}))
        assert decision.fire
        assert decision.new_pdf == {16: 1.0}
        assert "drift" in decision.reason

    def test_holds_below_threshold(self):
        trigger = PdfDriftTrigger(threshold=0.9, min_queries=2)
        metrics = _metrics_with_arrivals([1, 2])
        decision = trigger.evaluate(_context(metrics, planned={1: 0.5, 2: 0.5}))
        assert not decision.fire

    def test_holds_without_enough_samples(self):
        trigger = PdfDriftTrigger(threshold=0.1, min_queries=10)
        metrics = _metrics_with_arrivals([16, 16])
        decision = trigger.evaluate(_context(metrics, planned={1: 1.0}))
        assert not decision.fire
        assert "recent queries" in decision.reason

    def test_holds_during_cooldown(self):
        trigger = PdfDriftTrigger(threshold=0.1, min_queries=1, cooldown=50.0)
        metrics = _metrics_with_arrivals([16] * 20)
        decision = trigger.evaluate(
            _context(metrics, planned={1: 1.0}, since_reconfig=10.0)
        )
        assert not decision.fire
        assert decision.reason == "cooldown"

    def test_validation(self):
        with pytest.raises(ValueError):
            PdfDriftTrigger(threshold=0.0)
        with pytest.raises(ValueError):
            PdfDriftTrigger(lookback_windows=0)
        with pytest.raises(ValueError):
            PdfDriftTrigger(min_queries=0)
        with pytest.raises(ValueError):
            PdfDriftTrigger(cooldown=-1.0)


class TestSlaViolationTrigger:
    def _metrics_with_completions(self, violated, total, window=1.0):
        queries = [
            Query(query_id=idx, model="toy", batch=4, arrival_time=0.1, sla_target=1.0)
            for idx in range(total)
        ]
        finish = {idx: 0.1 + (2.0 if idx < violated else 0.5) for idx in range(total)}
        return bound_metrics(window, queries, finish)

    def test_fires_above_threshold(self):
        trigger = SlaViolationTrigger(threshold=0.2, min_queries=5)
        metrics = self._metrics_with_completions(violated=5, total=10, window=10.0)
        decision = trigger.evaluate(_context(metrics, planned={4: 1.0}, now=5.0))
        assert decision.fire
        assert "violation rate" in decision.reason
        assert decision.new_pdf == {4: 1.0}

    def test_holds_below_threshold(self):
        trigger = SlaViolationTrigger(threshold=0.9, min_queries=5)
        metrics = self._metrics_with_completions(violated=1, total=10, window=10.0)
        decision = trigger.evaluate(_context(metrics, planned={4: 1.0}, now=5.0))
        assert not decision.fire

    def test_holds_without_enough_sla_queries(self):
        trigger = SlaViolationTrigger(threshold=0.1, min_queries=50)
        metrics = self._metrics_with_completions(violated=5, total=10, window=10.0)
        decision = trigger.evaluate(_context(metrics, planned={4: 1.0}, now=5.0))
        assert not decision.fire


class TestRegistryAndResolution:
    def test_builtins_registered(self):
        assert {"pdf-drift", "sla-violation-rate"} <= set(available_triggers())
        assert "drift" in TRIGGERS  # alias
        assert "sla" in TRIGGERS  # alias

    def test_build_trigger_with_options(self):
        trigger = build_trigger("pdf-drift", threshold=0.5)
        assert isinstance(trigger, PdfDriftTrigger)
        assert trigger.threshold == 0.5
        with pytest.raises(UnknownPolicyError):
            build_trigger("no-such-trigger")

    def test_resolve_mixed_forms(self):
        explicit = SlaViolationTrigger(threshold=0.3)
        resolved = resolve_triggers(
            ["pdf-drift", ("sla-violation-rate", {"threshold": 0.4}), explicit]
        )
        assert isinstance(resolved[0], PdfDriftTrigger)
        assert isinstance(resolved[1], SlaViolationTrigger)
        assert resolved[1].threshold == 0.4
        assert resolved[2] is explicit

    def test_resolve_rejects_garbage(self):
        with pytest.raises(TypeError):
            resolve_triggers([42])

    def test_register_custom_trigger(self):
        @register_trigger("test-custom-trigger")
        def _factory(**options):
            class Always:
                name = "always"

                def evaluate(self, context):
                    return TriggerDecision(fire=True, reason="always")

            return Always()

        try:
            trigger = build_trigger("test-custom-trigger")
            metrics = WindowedMetrics(1.0)
            assert trigger.evaluate(_context(metrics, planned={1: 1.0})).fire
        finally:
            TRIGGERS.unregister("test-custom-trigger")

    def test_factory_must_return_evaluator(self):
        @register_trigger("test-bad-trigger")
        def _bad(**options):
            return object()

        try:
            with pytest.raises(TypeError):
                build_trigger("test-bad-trigger")
        finally:
            TRIGGERS.unregister("test-bad-trigger")
