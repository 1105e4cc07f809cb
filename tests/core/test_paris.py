"""Tests for the PARIS partitioning algorithm (Algorithm 1)."""

import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.paris import Paris, run_paris
from repro.core.specs import ParisSpec
from repro.perf.lookup import ProfileEntry, ProfileTable
from repro.serving.config import ServerConfig
from repro.workload.distributions import LogNormalBatchDistribution


def synthetic_profile():
    """Two partition sizes with knees at batch 2 (small) and 8 (large)."""
    entries = []
    curves = {
        1: {1: 0.7, 2: 0.85, 4: 0.9, 8: 0.95, 16: 0.95},
        7: {1: 0.2, 2: 0.4, 4: 0.6, 8: 0.85, 16: 0.95},
    }
    latency = {1: 0.004, 7: 0.001}  # per-sample seconds
    for gpcs, curve in curves.items():
        for batch, util in curve.items():
            lat = latency[gpcs] * batch
            entries.append(
                ProfileEntry(
                    gpcs=gpcs,
                    batch=batch,
                    latency_s=lat,
                    utilization=util,
                    throughput_qps=1.0 / lat,
                )
            )
    return ProfileTable("toy", entries)


class TestInputValidation:
    def test_empty_pdf_rejected(self):
        paris = Paris(synthetic_profile())
        with pytest.raises(ValueError):
            paris.plan({}, total_gpcs=14)

    def test_negative_probability_rejected(self):
        paris = Paris(synthetic_profile())
        with pytest.raises(ValueError):
            paris.plan({1: -0.5, 2: 1.5}, total_gpcs=14)

    def test_zero_mass_pdf_rejected(self):
        paris = Paris(synthetic_profile())
        with pytest.raises(ValueError):
            paris.plan({1: 0.0}, total_gpcs=14)

    def test_budget_smaller_than_smallest_partition_rejected(self):
        paris = Paris(synthetic_profile())
        with pytest.raises(ValueError):
            paris.plan({1: 1.0}, total_gpcs=0)

    def test_unprofiled_partition_size_rejected(self):
        with pytest.raises(ValueError):
            Paris(synthetic_profile(), ParisSpec(partition_sizes=(1, 3))).plan(
                {1: 1.0}, total_gpcs=14
            )

    def test_invalid_knee_threshold_rejected(self):
        with pytest.raises(ValueError):
            ParisSpec(knee_threshold=0.0)

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("knee_threshold", 0.0, "knee_threshold must be in (0, 1]"),
            ("knee_threshold", 1.5, "knee_threshold must be in (0, 1]"),
            ("knee_threshold", math.nan, "knee_threshold must be in (0, 1]"),
            ("min_instances_per_active_segment", -1,
             "min_instances_per_active_segment must be >= 0"),
            ("min_instances_per_active_segment", math.nan,
             "min_instances_per_active_segment must be >= 0"),
        ],
    )
    def test_invalid_spec_fails_before_a_config_exists(self, field, value, message):
        # an invalid tunable must fail where the design point is written,
        # not later inside build_deployment
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ServerConfig("mobilenet", partitioner_spec=ParisSpec(**{field: value}))


class TestAlgorithmSteps:
    def test_knees_and_segments_recorded(self):
        plan = run_paris(synthetic_profile(), {b: 1 / 16 for b in range(1, 17)}, 14)
        assert plan.knees == {1: 2, 7: 8}
        segments = {seg.gpcs: seg for seg in plan.segments}
        assert (segments[1].low, segments[1].high) == (1, 2)
        # the largest partition's segment extends to the distribution max
        assert (segments[7].low, segments[7].high) == (3, 16)

    def test_small_batch_heavy_traffic_prefers_small_partitions(self):
        pdf = {1: 0.6, 2: 0.3, 4: 0.05, 8: 0.05}
        plan = run_paris(synthetic_profile(), pdf, 14)
        assert plan.instances_of(1) >= plan.instances_of(7)

    def test_large_batch_heavy_traffic_prefers_large_partitions(self):
        pdf = {1: 0.05, 2: 0.05, 8: 0.45, 16: 0.45}
        plan = run_paris(synthetic_profile(), pdf, 14)
        assert plan.instances_of(7) >= 1
        # GPCs devoted to the large partition dominate
        assert plan.instances_of(7) * 7 > plan.instances_of(1) * 1

    def test_plan_never_exceeds_budget(self):
        pdf = {b: 1 / 16 for b in range(1, 17)}
        for budget in (7, 8, 14, 21, 28):
            plan = run_paris(synthetic_profile(), pdf, budget)
            assert plan.used_gpcs <= budget

    def test_budget_mostly_consumed(self):
        pdf = {b: 1 / 16 for b in range(1, 17)}
        plan = run_paris(synthetic_profile(), pdf, 28)
        # leftover must be smaller than the smallest partition size
        assert plan.total_gpcs - plan.used_gpcs < 1 or plan.used_gpcs >= 28 - 1

    def test_coverage_floor_forces_active_segments(self):
        pdf = {1: 0.98, 16: 0.02}
        config = ParisSpec(min_instances_per_active_segment=1)
        plan = Paris(synthetic_profile(), config).plan(pdf, 28)
        assert plan.instances_of(7) >= 1

    def test_strategy_label(self):
        plan = run_paris(synthetic_profile(), {1: 1.0}, 14)
        assert plan.strategy == "paris"


class TestShrinkToBudget:
    def test_shrink_never_drops_below_segment_floor(self):
        """Regression: the over-budget shrink used to evict instances from a
        floored (low-demand but active) segment first, because its surplus vs
        the ideal count is the largest — silently undoing the
        ``min_instances_per_active_segment`` guarantee."""
        counts = {1: 1, 2: 3}
        ideal = {1: 0.05, 2: 2.9}
        shrunk = Paris._shrink_to_budget(counts, ideal, total_gpcs=6, floors={1: 1})
        assert shrunk[1] >= 1  # the floored size survives
        assert shrunk == {1: 1, 2: 2}
        assert sum(g * c for g, c in shrunk.items()) <= 6

    def test_shrink_falls_back_when_floors_do_not_fit(self):
        # floors demand 1 + 2 = 3 GPCs more than the 2-GPC budget allows;
        # shrinking below a floor is then the only way to fit.
        counts = {1: 1, 2: 1}
        ideal = {1: 0.5, 2: 0.5}
        shrunk = Paris._shrink_to_budget(
            counts, ideal, total_gpcs=2, floors={1: 1, 2: 1}
        )
        assert sum(g * c for g, c in shrunk.items()) <= 2

    def test_plan_with_floor_keeps_active_segments_when_budget_allows(self):
        pdf = {1: 0.9, 2: 0.05, 16: 0.05}
        config = ParisSpec(min_instances_per_active_segment=2)
        plan = Paris(synthetic_profile(), config).plan(pdf, 28)
        for segment in plan.segments:
            if segment.probability > 0:
                assert plan.instances_of(segment.gpcs) >= 2
        assert plan.used_gpcs <= 28


class TestOnRealProfiles:
    def test_lightweight_model_gets_small_partitions(self, mobilenet_profile):
        pdf = LogNormalBatchDistribution(sigma=0.9, median=8, max_batch=32).pdf()
        plan = run_paris(mobilenet_profile, pdf, 24)
        small_gpcs = sum(g * c for g, c in plan.counts.items() if g <= 2)
        assert small_gpcs >= plan.used_gpcs * 0.3
        assert plan.is_heterogeneous

    def test_compute_heavy_model_gets_more_large_partition_gpcs(
        self, mobilenet_profile, bert_profile
    ):
        """The paper's BERT configuration is dominated by large partitions."""
        pdf = LogNormalBatchDistribution(sigma=0.9, median=8, max_batch=32).pdf()
        mobile_plan = run_paris(mobilenet_profile, pdf, 42)
        bert_plan = run_paris(bert_profile, pdf, 42)

        def large_fraction(plan):
            large = sum(g * c for g, c in plan.counts.items() if g >= 4)
            return large / plan.used_gpcs

        assert large_fraction(bert_plan) > large_fraction(mobile_plan)

    def test_paper_budgets_are_respected(self, all_profiles):
        pdf = LogNormalBatchDistribution(sigma=0.9, median=8, max_batch=32).pdf()
        budgets = {"shufflenet": 24, "mobilenet": 24, "resnet": 48, "bert": 42,
                   "conformer": 48}
        for name, profile in all_profiles.items():
            plan = run_paris(profile, pdf, budgets[name])
            assert plan.used_gpcs <= budgets[name]
            assert plan.total_instances >= 1


@settings(max_examples=30, deadline=None)
@given(
    budget=st.integers(7, 56),
    median=st.floats(1.0, 16.0),
    sigma=st.floats(0.3, 1.8),
)
def test_paris_always_produces_a_valid_plan(budget, median, sigma):
    """Property: for any budget and log-normal workload, PARIS stays in budget
    and instantiates at least one partition."""
    profile = synthetic_profile()
    pdf = LogNormalBatchDistribution(sigma=sigma, median=median, max_batch=16).pdf()
    plan = run_paris(profile, pdf, budget)
    assert 0 < plan.used_gpcs <= budget
    assert all(count >= 0 for count in plan.counts.values())
    assert plan.total_instances >= 1
