"""Ablations of ELSA's design choices (DESIGN.md Section 5).

* Step A ordering: smallest-feasible-partition first (the paper's choice)
  versus largest-first.
* Slack-predictor coefficients alpha/beta: the default (1, 1) versus an
  over-conservative predictor.
"""

from repro.analysis.reporting import format_table
from repro.analysis.sweep import latency_bounded_throughput
from repro.core.specs import ElsaSpec
from repro.serving.config import ServerConfig
from repro.serving.deployment import build_deployment
from repro.workload.generator import WorkloadConfig

MODEL = "mobilenet"
BUDGET = 24


def build(settings, **elsa_kwargs):
    config = ServerConfig(
        MODEL,
        scheduler_spec=ElsaSpec(**elsa_kwargs),
        num_gpus=8,
        gpc_budget=BUDGET,
        frontend_capacity_qps=settings.frontend_qps,
    )
    return build_deployment(
        config, settings.batch_pdf(), profile=settings.profile(MODEL)
    )


def measure(settings, deployment):
    workload = WorkloadConfig(
        model=MODEL, rate_qps=1.0, num_queries=settings.num_queries, seed=settings.seed
    )
    return latency_bounded_throughput(
        deployment, workload, iterations=settings.search_iterations, seed=settings.seed
    )


def test_ablation_step_a_ordering(benchmark, settings):
    def run():
        smallest = measure(settings, build(settings, prefer_smallest=True))
        largest = measure(settings, build(settings, prefer_smallest=False))
        return smallest, largest

    smallest, largest = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nAblation — ELSA Step A ordering (MobileNet, PARIS partitions)")
    print(
        format_table(
            ["ordering", "qps @ SLA", "p95 (ms)", "mean util"],
            [
                ["smallest-first (paper)", round(smallest.throughput_qps, 1),
                 round(smallest.p95_latency * 1e3, 2), round(smallest.mean_utilization, 2)],
                ["largest-first", round(largest.throughput_qps, 1),
                 round(largest.p95_latency * 1e3, 2), round(largest.mean_utilization, 2)],
            ],
        )
    )
    # Smallest-first preserves large partitions for large batches; it must not
    # lose to largest-first.
    assert smallest.throughput_qps >= 0.9 * largest.throughput_qps


def test_ablation_slack_coefficients(benchmark, settings):
    def run():
        default = measure(settings, build(settings, alpha=1.0, beta=1.0))
        conservative = measure(settings, build(settings, alpha=2.0, beta=1.0))
        return default, conservative

    default, conservative = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nAblation — slack predictor coefficients (MobileNet)")
    print(
        format_table(
            ["(alpha, beta)", "qps @ SLA", "p95 (ms)"],
            [
                ["(1.0, 1.0)", round(default.throughput_qps, 1),
                 round(default.p95_latency * 1e3, 2)],
                ["(2.0, 1.0)", round(conservative.throughput_qps, 1),
                 round(conservative.p95_latency * 1e3, 2)],
            ],
        )
    )
    assert default.throughput_qps > 0
    assert conservative.throughput_qps > 0
