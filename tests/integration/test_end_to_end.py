"""End-to-end integration tests: the paper's headline claims at small scale.

These tests run the full stack — model zoo, profiler, PARIS, MIG packing,
workload generation, discrete-event simulation, ELSA/FIFS scheduling — and
assert the qualitative results of the paper's evaluation (Section VI).
"""

import pytest

from repro.analysis.sweep import latency_bounded_throughput
from repro.serving.config import ServerConfig
from repro.serving.deployment import build_deployment
from repro.workload.distributions import LogNormalBatchDistribution
from repro.workload.generator import QueryGenerator, WorkloadConfig


@pytest.fixture(scope="module")
def pdf():
    return LogNormalBatchDistribution(sigma=0.9, median=8, max_batch=32).pdf()


def deploy(profile, model, partitioning, scheduler, budget):
    config = ServerConfig(
        model=model,
        partitioning=partitioning,
        scheduler=scheduler,
        gpc_budget=budget,
        num_gpus=8,
    )
    pdf = LogNormalBatchDistribution(sigma=0.9, median=8, max_batch=32).pdf()
    return build_deployment(config, pdf, profile=profile)


def bounded_throughput(deployment, model, num_queries=300, seed=0):
    workload = WorkloadConfig(model=model, rate_qps=1.0, num_queries=num_queries, seed=seed)
    return latency_bounded_throughput(deployment, workload, iterations=5, seed=seed)


class TestServingPipeline:
    def test_every_query_is_served_exactly_once(self, bert_profile):
        deployment = deploy(
            bert_profile, "bert", "paris", "elsa", 42
        )
        workload = WorkloadConfig(model="bert", rate_qps=500.0, num_queries=400, seed=3)
        trace = QueryGenerator(workload).generate().with_sla(deployment.sla_target)
        result = deployment.simulator().run(trace)
        assert result.statistics.completed_queries == 400
        assert sum(result.per_instance_queries.values()) == 400
        # conservation: every query has monotone timestamps
        for query in result.queries:
            assert query.arrival_time <= query.start_time <= query.finish_time

    def test_deterministic_replay(self, resnet_profile):
        deployment = deploy(
            resnet_profile, "resnet", "paris", "elsa", 48
        )
        workload = WorkloadConfig(model="resnet", rate_qps=800.0, num_queries=300, seed=5)
        trace = QueryGenerator(workload).generate().with_sla(deployment.sla_target)
        first = deployment.simulator().run(trace)
        second = deployment.simulator().run(trace)
        assert first.statistics.latency.p95 == pytest.approx(second.statistics.latency.p95)
        assert first.per_instance_queries == second.per_instance_queries


class TestPaperHeadlines:
    def test_elsa_beats_fifs_on_heterogeneous_server(self, mobilenet_profile):
        """Figure 12: given PARIS partitions, ELSA >= FIFS."""
        paris_fifs = deploy(
            mobilenet_profile, "mobilenet", "paris",
            "fifs", 24
        )
        paris_elsa = deploy(
            mobilenet_profile, "mobilenet", "paris",
            "elsa", 24
        )
        fifs_qps = bounded_throughput(paris_fifs, "mobilenet").throughput_qps
        elsa_qps = bounded_throughput(paris_elsa, "mobilenet").throughput_qps
        assert elsa_qps >= fifs_qps

    def test_paris_elsa_beats_gpu7_baseline(self, resnet_profile):
        """Figure 12: PARIS+ELSA > GPU(7)+FIFS for a medium-weight model."""
        gpu7 = deploy(
            resnet_profile, "resnet", "homogeneous", "fifs", 56
        )
        paris = deploy(
            resnet_profile, "resnet", "paris",
            "elsa", 48
        )
        gpu7_qps = bounded_throughput(gpu7, "resnet").throughput_qps
        paris_qps = bounded_throughput(paris, "resnet").throughput_qps
        assert paris_qps > gpu7_qps

    def test_elsa_reduces_sla_violations_at_equal_load(self, mobilenet_profile):
        """At the same offered load, ELSA violates SLA less often than FIFS."""
        paris_fifs = deploy(
            mobilenet_profile, "mobilenet", "paris",
            "fifs", 24
        )
        paris_elsa = deploy(
            mobilenet_profile, "mobilenet", "paris",
            "elsa", 24
        )
        workload = WorkloadConfig(
            model="mobilenet", rate_qps=1500.0, num_queries=600, seed=9
        )
        trace = QueryGenerator(workload).generate()
        fifs_result = paris_fifs.simulator().run(trace.with_sla(paris_fifs.sla_target))
        elsa_result = paris_elsa.simulator().run(trace.with_sla(paris_elsa.sla_target))
        assert elsa_result.sla_violation_rate <= fifs_result.sla_violation_rate

    def test_bert_plan_uses_larger_partitions_than_mobilenet(
        self, bert_profile, mobilenet_profile, pdf
    ):
        """Section VI-B: PARIS gives BERT big partitions, MobileNet small ones."""
        bert_plan = build_deployment(
            ServerConfig(model="bert", gpc_budget=42), pdf, profile=bert_profile
        ).plan
        mobile_plan = build_deployment(
            ServerConfig(model="mobilenet", gpc_budget=42), pdf, profile=mobilenet_profile
        ).plan
        bert_avg_size = bert_plan.used_gpcs / bert_plan.total_instances
        mobile_avg_size = mobile_plan.used_gpcs / mobile_plan.total_instances
        assert bert_avg_size > mobile_avg_size
