"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation and
prints the resulting rows, so running::

    pytest benchmarks/ --benchmark-only -s

reproduces the full evaluation section.  The ``settings`` fixture controls
the experiment scale; raise ``num_queries`` for smoother tail-latency
estimates at the cost of runtime.
"""

from pathlib import Path

import pytest

from repro.analysis.experiments import ExperimentSettings

#: Where benchmarks write their fresh ``BENCH_*.json`` payloads (git-ignored;
#: the committed copies at the repository root are the baselines).
BENCH_OUT = Path(__file__).resolve().parent.parent / "bench-out"


def pytest_configure(config):
    # The benchmarks print their result tables; -s is convenient but not
    # required (captured output still ends up in the report on failure).
    config.addinivalue_line("markers", "figure: paper figure/table reproduction")
    config.addinivalue_line(
        "markers",
        "perf_smoke: small-trace performance gates run by the CI smoke job",
    )


@pytest.fixture(scope="session")
def settings():
    """Experiment scale used by every figure benchmark."""
    return ExperimentSettings(num_queries=600, search_iterations=7, seed=0)


@pytest.fixture(scope="session")
def bench_out():
    """The directory fresh benchmark payloads are written to."""
    BENCH_OUT.mkdir(exist_ok=True)
    return BENCH_OUT
