"""Tests for deployment construction."""

import pytest

from repro.core.elsa import ElsaScheduler
from repro.core.schedulers import FifsScheduler, LeastLoadedScheduler
from repro.core.specs import HomogeneousSpec
from repro.serving.config import ServerConfig
from repro.serving.deployment import build_deployment
from repro.workload.distributions import LogNormalBatchDistribution


@pytest.fixture(scope="module")
def pdf():
    return LogNormalBatchDistribution(sigma=0.9, median=8, max_batch=32).pdf()


class TestBuildDeployment:
    def test_paris_elsa_deployment(self, pdf, resnet_profile):
        config = ServerConfig(model="resnet", gpc_budget=48)
        deployment = build_deployment(config, pdf, profile=resnet_profile)
        assert deployment.plan.strategy == "paris"
        assert deployment.plan.used_gpcs <= 48
        assert isinstance(deployment.scheduler, ElsaScheduler)
        assert len(deployment.instances) == deployment.plan.total_instances
        assert deployment.sla_target > 0
        assert "paris+elsa" in deployment.describe()

    def test_homogeneous_fifs_deployment(self, pdf, resnet_profile):
        config = ServerConfig(
            model="resnet",
            partitioning="homogeneous",
            scheduler="fifs",
            partitioner_spec=HomogeneousSpec(gpcs=3),
            gpc_budget=48,
        )
        deployment = build_deployment(config, pdf, profile=resnet_profile)
        assert deployment.plan.counts == {3: 16}
        assert isinstance(deployment.scheduler, FifsScheduler)

    def test_random_deployment_respects_budget(self, pdf, mobilenet_profile):
        config = ServerConfig(
            model="mobilenet",
            partitioning="random",
            scheduler="least-loaded",
            gpc_budget=24,
            num_gpus=4,
        )
        deployment = build_deployment(config, pdf, profile=mobilenet_profile)
        assert deployment.plan.used_gpcs <= 24
        assert isinstance(deployment.scheduler, LeastLoadedScheduler)

    def test_instances_fit_physical_gpus(self, pdf, bert_profile):
        config = ServerConfig(model="bert", gpc_budget=42, num_gpus=8)
        deployment = build_deployment(config, pdf, profile=bert_profile)
        per_gpu = {}
        for instance in deployment.instances:
            per_gpu[instance.physical_gpu] = per_gpu.get(instance.physical_gpu, 0) + instance.gpcs
        assert all(v <= 7 for v in per_gpu.values())

    def test_simulator_factory_uses_frontend_config(self, pdf, resnet_profile):
        config = ServerConfig(model="resnet", gpc_budget=48, frontend_capacity_qps=500.0)
        deployment = build_deployment(config, pdf, profile=resnet_profile)
        simulator = deployment.simulator()
        assert simulator.frontend_capacity_qps == 500.0

    def test_empty_pdf_rejected(self, resnet_profile):
        config = ServerConfig(model="resnet")
        with pytest.raises(ValueError):
            build_deployment(config, {}, profile=resnet_profile)

    def test_profiles_lazily_when_not_given(self, pdf, profiler):
        config = ServerConfig(model="shufflenet", gpc_budget=14, num_gpus=2)
        deployment = build_deployment(config, pdf, profiler=profiler)
        assert deployment.profile.model_name == "shufflenet"

    def test_explicit_profile_wins_over_profiles_mapping(self, pdf, profiler):
        # the single-model `profile` argument is the more specific one; a
        # stale same-model entry in `profiles` must not silently win
        from repro.models.registry import get_model
        from repro.perf.profiler import Profiler

        stale = Profiler(batch_sizes=(1, 2, 4)).profile(get_model("resnet"))
        fresh = profiler.profile(get_model("resnet"))
        config = ServerConfig(model="resnet", gpc_budget=48)
        deployment = build_deployment(
            config, pdf, profile=fresh, profiles={"resnet": stale}
        )
        assert deployment.profile is fresh
