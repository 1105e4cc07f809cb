"""A suite run shares its designs and searches across experiments.

fig11, fig12, fig13a, fig13b and sla_sensitivity sweep around the same
defaults (sigma 0.9, max batch 32, SLA x1.5), so they ask for many of the
same design points.  The suite's one ``ExperimentSettings`` builds each
distinct design once and runs each distinct latency-bounded search once;
this guard fails when an experiment pays for either twice.
"""

from collections import Counter

from repro.analysis import experiments
from repro.pipeline.runner import run_suite


def test_smoke_suite_builds_and_searches_each_design_once(tmp_path, monkeypatch):
    builds, searches, searched = [], [], []
    real_build = experiments.build_deployment
    real_search = experiments.latency_bounded_throughput

    def build(config, batch_pdf, **kwargs):
        builds.append((config, tuple(sorted(batch_pdf.items()))))
        return real_build(config, batch_pdf, **kwargs)

    def search(deployment, workload, **kwargs):
        searched.append(deployment)  # held, so no two deployments share an id
        searches.append((id(deployment), workload))
        return real_search(deployment, workload, **kwargs)

    monkeypatch.setattr(experiments, "build_deployment", build)
    monkeypatch.setattr(experiments, "latency_bounded_throughput", search)
    run_suite("smoke", tmp_path, seed=0, n_jobs=1)

    assert builds and searches
    assert [key for key, count in Counter(builds).items() if count > 1] == []
    assert [key for key, count in Counter(searches).items() if count > 1] == []
