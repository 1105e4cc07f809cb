"""Reproduction of the worked PARIS example of Figure 8 / Section IV-B.

The paper walks through a two-partition example:

* knees: B1 = 2 (small GPU), B2 = 4 (large GPU);
* batch size distribution: 20% / 20% / 40% / 20% for batch 1 / 2 / 3 / 4;
* profiled throughput: small GPU 40 and 20 queries/s at batch 1 and 2,
  large GPU 30 and 20 queries/s at batch 3 and 4;
* per 100 queries this requires 0.5 + 1.0 = 1.5 small GPUs and
  1.33 + 1.0 = 2.33 large GPUs, i.e. an instance ratio of 1.5 : 2.3.
"""

import pytest

from repro.analysis.experiments import figure8_example
from repro.core.paris import Paris
from repro.perf.lookup import ProfileEntry, ProfileTable


def paper_profile():
    """Profile table encoding exactly the Figure 8 numbers."""
    data = {
        # (gpcs, batch): (throughput qps, utilization)
        (1, 1): (40.0, 0.70),
        (1, 2): (20.0, 0.85),
        (1, 3): (15.0, 0.90),
        (1, 4): (10.0, 0.95),
        (3, 1): (60.0, 0.30),
        (3, 2): (45.0, 0.55),
        (3, 3): (30.0, 0.70),
        (3, 4): (20.0, 0.85),
    }
    entries = [
        ProfileEntry(
            gpcs=gpcs,
            batch=batch,
            latency_s=1.0 / qps,
            utilization=util,
            throughput_qps=qps,
        )
        for (gpcs, batch), (qps, util) in data.items()
    ]
    return ProfileTable("figure8", entries)


PDF = {1: 0.2, 2: 0.2, 3: 0.4, 4: 0.2}


class TestFigure8Example:
    def test_knees_match_paper(self):
        plan = Paris(paper_profile()).plan(PDF, total_gpcs=9)
        assert plan.knees[1] == 2
        assert plan.knees[3] == 4

    def test_segments_cover_paper_ranges(self):
        plan = Paris(paper_profile()).plan(PDF, total_gpcs=9)
        segments = {seg.gpcs: seg for seg in plan.segments}
        assert (segments[1].low, segments[1].high) == (1, 2)
        assert (segments[3].low, segments[3].high) == (3, 4)
        assert segments[1].probability == pytest.approx(0.4)
        assert segments[3].probability == pytest.approx(0.6)

    def test_instance_ratio_matches_paper(self):
        """R_small : R_large must equal the paper's 1.5 : 2.33 (per 100 queries)."""
        plan = Paris(paper_profile()).plan(PDF, total_gpcs=9)
        segments = {seg.gpcs: seg for seg in plan.segments}
        r_small = segments[1].instance_ratio
        r_large = segments[3].instance_ratio
        assert r_small * 100 == pytest.approx(1.5)
        assert r_large * 100 == pytest.approx(0.4 / 30.0 * 100 + 0.2 / 20.0 * 100)
        assert r_large / r_small == pytest.approx(2.333 / 1.5, rel=0.01)

    def test_experiment_runner_reports_same_numbers(self):
        result = figure8_example()
        assert result["ratio_small"] == pytest.approx(result["paper_ratio_small"])
        assert result["ratio_large"] == pytest.approx(result["paper_ratio_large"])
        assert result["knees"][1] == 2

    def test_instance_counts_follow_the_ratio(self):
        """With 9 GPCs the 1.5:2.33 ratio lands on ~2 small and ~2 large GPUs."""
        plan = Paris(paper_profile()).plan(PDF, total_gpcs=9)
        assert plan.instances_of(1) >= 1
        assert plan.instances_of(3) >= 1
        # the large partition must receive more GPCs than the small one
        assert plan.instances_of(3) * 3 > plan.instances_of(1) * 1
