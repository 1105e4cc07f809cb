"""Ablation of PARIS's MaxBatch_knee utilization threshold (default 0.8)."""

from repro.analysis.reporting import format_table
from repro.core.paris import Paris
from repro.core.specs import ParisSpec


def test_ablation_knee_threshold(benchmark, settings):
    def run():
        profile = settings.profile("resnet")
        pdf = settings.batch_pdf()
        results = []
        for threshold in (0.6, 0.7, 0.8, 0.9):
            plan = Paris(profile, ParisSpec(knee_threshold=threshold)).plan(pdf, 48)
            results.append((threshold, plan))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nAblation — PARIS knee threshold (ResNet, 48 GPCs)")
    print(
        format_table(
            ["threshold", "knees", "plan", "#instances"],
            [
                [threshold, str(plan.knees), plan.describe(), plan.total_instances]
                for threshold, plan in results
            ],
        )
    )

    plans = {threshold: plan for threshold, plan in results}
    # A lower knee threshold moves every knee earlier (or keeps it equal),
    # which shifts batch segments toward larger partitions.
    for gpcs in plans[0.8].knees:
        assert plans[0.6].knees[gpcs] <= plans[0.9].knees[gpcs]
    # All plans remain within budget and non-empty.
    for _, plan in results:
        assert 0 < plan.used_gpcs <= 48
