"""One-shot serving: a ``ServingSession`` run with ``window=None``.

A session deploys lazily from the workload's PDF, stamps per-model SLA
targets on queries that carry none, serves mixed-model traces and
repartitions between runs with reused profiles.
"""

import pytest

from repro.serving.config import ServerConfig
from repro.serving.session import ServingSession
from repro.workload.generator import QueryGenerator, WorkloadConfig
from repro.workload.trace import merge_traces

CONFIG = ServerConfig(model="mobilenet", gpc_budget=24, num_gpus=4)


def one_shot(profiler, config=CONFIG, **kwargs) -> ServingSession:
    return ServingSession(config, profiler=profiler, window=None, **kwargs)


@pytest.fixture(scope="module")
def session(profiler):
    return one_shot(profiler)


class TestInferenceService:
    def test_deploy_requires_a_pdf(self, profiler):
        with pytest.raises(ValueError, match="a batch-size PDF is required"):
            one_shot(profiler).deploy()

    def test_serve_end_to_end(self, session):
        workload = WorkloadConfig(
            model="mobilenet", rate_qps=300.0, num_queries=300, seed=1
        )
        result = session.run(workload)
        assert result.simulation.statistics.completed_queries == 300
        assert result.p95_latency > 0
        assert result.throughput_qps > 0
        assert 0.0 <= result.sla_violation_rate <= 1.0
        assert result.windows == ()
        summary = result.summary()
        assert set(summary) >= {
            "p95_latency_ms",
            "throughput_qps",
            "sla_violation_rate",
            "mean_utilization",
            "sla_target_ms",
        }

    def test_workload_model_mismatch_rejected(self, session):
        workload = WorkloadConfig(model="bert", rate_qps=10.0, num_queries=10)
        with pytest.raises(ValueError, match="not served by this deployment"):
            session.run(workload)

    def test_serve_trace_applies_sla(self, session):
        workload = WorkloadConfig(
            model="mobilenet", rate_qps=100.0, num_queries=50, seed=2
        )
        trace = QueryGenerator(workload).generate()
        result = session.run(trace)
        assert all(q.sla_target == pytest.approx(result.sla_target)
                   for q in result.simulation.queries)

    def test_serve_trace_keeps_explicit_per_query_slas(self, session):
        # only queries lacking an SLA get the derived default; explicit
        # per-query SLAs in a partially-tagged trace must survive
        strict = WorkloadConfig(
            model="mobilenet", rate_qps=100.0, num_queries=20, seed=3,
            sla_target=123.0,
        )
        untagged = WorkloadConfig(
            model="mobilenet", rate_qps=100.0, num_queries=20, seed=4
        )
        mixed = merge_traces([
            QueryGenerator(strict).generate(),
            QueryGenerator(untagged).generate(),
        ])
        result = session.run(mixed)
        slas = sorted({q.sla_target for q in result.simulation.queries})
        assert slas == [pytest.approx(result.sla_target), 123.0]

    def test_deployment_cached(self, session):
        assert session.deployment is session.deployment

    def test_empty_pdf_rejected_at_deploy(self, profiler):
        with pytest.raises(ValueError, match="non-empty"):
            one_shot(profiler).deploy(batch_pdf={})

    def test_empty_pdf_rejected_at_construction(self, profiler):
        with pytest.raises(ValueError, match="non-empty"):
            one_shot(profiler, batch_pdf={})

    def test_empty_pdf_does_not_fall_back_to_constructor_pdf(self, profiler):
        # An explicitly-passed empty PDF must raise, never silently reuse
        # the PDF given at construction.
        session = one_shot(profiler, batch_pdf={4: 0.5, 8: 0.5})
        with pytest.raises(ValueError, match="non-empty"):
            session.deploy(batch_pdf={})

    def test_empty_repartition_rejected(self, profiler):
        session = one_shot(profiler, batch_pdf={4: 0.5, 8: 0.5})
        with pytest.raises(ValueError, match="non-empty"):
            session.repartition({})

    def test_fifs_service_also_runs(self, profiler):
        config = ServerConfig(
            model="mobilenet",
            partitioning="homogeneous",
            scheduler="fifs",
            gpc_budget=28,
            num_gpus=4,
        )
        workload = WorkloadConfig(model="mobilenet", rate_qps=200.0, num_queries=200)
        result = one_shot(profiler, config).run(workload)
        assert result.simulation.statistics.completed_queries == 200


class TestMultiModelService:
    @pytest.fixture(scope="class")
    def multi_session(self, profiler):
        config = ServerConfig(
            model="mobilenet",
            extra_models=("resnet",),
            gpc_budget=24,
            num_gpus=4,
        )
        session = one_shot(profiler, config)
        session.deploy(batch_pdf={4: 0.3, 8: 0.5, 16: 0.2})
        return session

    def test_models_lists_primary_first(self, multi_session):
        assert multi_session.config.models == ("mobilenet", "resnet")
        assert multi_session.deployment.models == ("mobilenet", "resnet")

    def test_deployment_profiles_every_served_model(self, multi_session):
        deployment = multi_session.deployment
        assert set(deployment.models) == {"mobilenet", "resnet"}
        assert deployment.profile.model_name == "mobilenet"
        assert deployment.profile_for("resnet").model_name == "resnet"
        with pytest.raises(KeyError, match="not served"):
            deployment.profile_for("bert")

    def test_mixed_trace_served_end_to_end(self, multi_session):
        traces = [
            QueryGenerator(
                WorkloadConfig(model=model, rate_qps=150.0, num_queries=60, seed=s)
            ).generate()
            for s, model in enumerate(multi_session.deployment.models)
        ]
        result = multi_session.run(merge_traces(traces))
        assert result.simulation.statistics.completed_queries == 120
        served_models = {q.model for q in result.simulation.queries}
        assert served_models == {"mobilenet", "resnet"}

    def test_mixed_trace_gets_per_model_sla_targets(self, multi_session):
        # Section V defines the SLA per model: each untagged query gets its
        # own model's derived target, not the primary's
        deployment = multi_session.deployment
        assert deployment.sla_target_for("resnet") > deployment.sla_target_for(
            "mobilenet"
        )
        traces = [
            QueryGenerator(
                WorkloadConfig(model=model, rate_qps=150.0, num_queries=30, seed=s)
            ).generate()
            for s, model in enumerate(deployment.models)
        ]
        result = multi_session.run(merge_traces(traces))
        for query in result.simulation.queries:
            assert query.sla_target == pytest.approx(
                deployment.sla_target_for(query.model)
            )

    def test_secondary_model_workload_accepted(self, multi_session):
        workload = WorkloadConfig(model="resnet", rate_qps=100.0, num_queries=40)
        result = multi_session.run(workload)
        assert result.simulation.statistics.completed_queries == 40

    def test_constructor_profiles_make_models_servable(self, profiler):
        # models provided only via profiles= (no extra_models) are served
        from repro.models.registry import get_model

        profiles = {
            "mobilenet": profiler.profile(get_model("mobilenet")),
            "resnet": profiler.profile(get_model("resnet")),
        }
        session = one_shot(profiler, profiles=profiles)
        result = session.run(
            WorkloadConfig(model="resnet", rate_qps=100.0, num_queries=30)
        )
        assert result.simulation.statistics.completed_queries == 30
        assert session.deployment.models == ("mobilenet", "resnet")
        # describe() reports the actually served models, not just the config
        assert session.deployment.describe().startswith("mobilenet+resnet:")

    def test_unserved_model_trace_rejected(self, multi_session):
        trace = QueryGenerator(
            WorkloadConfig(model="bert", rate_qps=10.0, num_queries=5)
        ).generate()
        with pytest.raises(ValueError, match="bert"):
            multi_session.run(trace)


class TestRepartitionLifecycle:
    def test_repartition_swaps_the_deployment(self, profiler):
        session = one_shot(profiler)
        first = session.deploy(batch_pdf={1: 0.9, 2: 0.1})
        second = session.repartition({16: 0.5, 32: 0.5})
        assert session.deployment is second
        assert session.deployment is not first
        # large-batch traffic shifts the plan toward larger partitions
        def avg_size(plan):
            return plan.used_gpcs / plan.total_instances
        assert avg_size(second.plan) >= avg_size(first.plan)

    def test_repartition_reuses_cached_profiles(self, profiler):
        session = one_shot(profiler)
        first = session.deploy(batch_pdf={4: 1.0})
        second = session.repartition({8: 1.0})
        assert second.profile is first.profile

    def test_repartitioned_service_keeps_serving(self, profiler):
        session = one_shot(profiler, batch_pdf={1: 1.0})
        workload = WorkloadConfig(model="mobilenet", rate_qps=200.0, num_queries=50)
        session.run(workload)
        session.repartition({8: 0.5, 16: 0.5})
        result = session.run(workload)
        assert result.simulation.statistics.completed_queries == 50
