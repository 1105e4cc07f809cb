"""Fleet plumbing through ServerConfig / Deployment / Session."""

import dataclasses

import pytest

from repro.core.specs import HomogeneousSpec
from repro.daemon.tenants import FleetPool
from repro.gpu.architecture import A30, A100, H100
from repro.gpu.fleet import FleetServerSpec
from repro.serving.config import ServerConfig, config_with_fleet
from repro.serving.deployment import build_deployment, replan_deployment
from repro.serving.session import ServingSession
from repro.workload.generator import QueryGenerator, WorkloadConfig

PDF = {1: 0.4, 2: 0.3, 8: 0.2, 32: 0.1}
MIXED = ((2, "a100", 14), (2, "a30"), (1, "h100", 7))


class TestFleetConfig:
    def test_flat_fields_derived_from_fleet(self):
        config = ServerConfig(model="resnet", fleet=MIXED)
        assert config.is_heterogeneous_fleet
        assert config.num_gpus == 5
        assert config.architecture is A100  # the first server's
        assert config.effective_gpc_budget == 14 + 8 + 7
        fleet = config.build_fleet()
        assert [a.name for a in fleet.architectures] == [
            A100.name, A30.name, H100.name,
        ]

    def test_fleet_specs_normalised(self):
        config = ServerConfig(model="resnet", fleet=[(4, "a30")])
        assert all(isinstance(s, FleetServerSpec) for s in config.fleet)
        assert not config.is_heterogeneous_fleet

    def test_explicit_gpc_budget_with_fleet_rejected(self):
        with pytest.raises(ValueError, match="per-server budgets"):
            ServerConfig(model="resnet", fleet=MIXED, gpc_budget=48)

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("num_gpus", 4,
             r"^num_gpus cannot be combined with a fleet; the fleet derives 8, got 4$"),
            ("architecture", A30,
             r"^architecture cannot be combined with a fleet; the fleet derives "
             r"A100-SXM4-40GB, got A30$"),
            ("gpc_budget", 24,
             r"^gpc_budget cannot be combined with a fleet; set per-server budgets on "
             r"the FleetServerSpecs instead; the fleet derives 48, got 24$"),
        ],
        ids=["num_gpus", "architecture", "gpc_budget"],
    )
    def test_explicit_shape_differing_from_the_fleet_rejected(self, field, value, message):
        # a shape field the fleet contradicts is ambiguous: overwriting it
        # silently would deploy another server than the one asked for
        with pytest.raises(ValueError, match=message):
            ServerConfig(model="resnet", fleet=[(8, "a100", 48)], **{field: value})

    def test_shape_equal_to_the_fleet_accepted_and_replace_round_trips(self):
        config = ServerConfig(model="resnet", fleet=[(8, "a100", 48)])
        assert config == ServerConfig(
            model="resnet", num_gpus=8, architecture=A100, gpc_budget=48,
            fleet=[(8, "a100", 48)],
        )
        varied = dataclasses.replace(config, frontend_capacity_qps=5000.0)
        assert varied.fleet == config.fleet
        assert varied.frontend_capacity_qps == 5000.0
        assert (varied.num_gpus, varied.architecture, varied.gpc_budget) == (8, A100, 48)
        # re-targeting at another fleet re-derives every shape field
        moved = config_with_fleet(varied, [(2, "a30")])
        assert (moved.num_gpus, moved.architecture, moved.gpc_budget) == (2, A30, 8)
        assert moved.frontend_capacity_qps == 5000.0
        flat = config_with_fleet(ServerConfig(model="resnet", num_gpus=4), [(2, "a30")])
        assert (flat.num_gpus, flat.architecture) == (2, A30)

    def test_fleet_composes_with_runtime_knobs(self):
        config = ServerConfig(
            model="resnet", fleet=((2, "a100"), (2, "a30")), frontend_capacity_qps=500.0
        )
        assert config.fleet is not None
        assert config.frontend_capacity_qps == 500.0
        assert config.num_gpus == 4

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError, match="^fleet must name at least one server$"):
            ServerConfig(model="resnet", fleet=())

    def test_sla_reference_defaults_to_largest_primary_partition(self):
        # A30-primary fleet: GPU(7) does not exist, the default reference
        # resolves to GPU(4)
        config = ServerConfig(model="resnet", fleet=((4, "a30"), (1, "a100")))
        assert config.sla_reference_gpcs == 4

    def test_explicit_invalid_sla_reference_still_rejected(self):
        with pytest.raises(ValueError, match="sla_reference_gpcs"):
            ServerConfig(
                model="resnet",
                fleet=((4, "a30"),),
                sla_reference_gpcs=3,
            )

    def test_homogeneous_partitioning_size_checked_against_members(self):
        # 3 is valid on A100/H100 but not on A30: the homogeneous
        # partitioner runs per member architecture, so the config must
        # reject sizes any member cannot host
        with pytest.raises(ValueError, match="every fleet architecture"):
            ServerConfig(
                model="resnet",
                partitioning="homogeneous",
                partitioner_spec=HomogeneousSpec(gpcs=3),
                fleet=MIXED,
            )


    def test_single_a30_server_with_defaults_deploys_like_an_a30_fleet(self):
        # the default SLA reference GPU(7) falls back to the largest A30
        # size on a single server exactly as on a fleet
        single = build_deployment(ServerConfig(model="resnet", architecture=A30), PDF)
        fleet = build_deployment(ServerConfig(model="resnet", fleet=[(8, "a30")]), PDF)
        assert single.config.sla_reference_gpcs == 4
        assert single.plan == fleet.plan
        assert list(single.instances) == list(fleet.instances)
        assert single.sla_target == fleet.sla_target == pytest.approx(5.72e-3, abs=5e-6)
        trace = QueryGenerator(
            WorkloadConfig(
                model="resnet", rate_qps=3000.0, num_queries=400, seed=11,
                sla_target=single.sla_target,
            )
        ).generate()
        on_single = single.simulator().run(trace)
        on_fleet = fleet.simulator().run(trace)
        assert on_single.statistics.latency.p95 == on_fleet.statistics.latency.p95
        assert on_single.per_instance_queries == on_fleet.per_instance_queries
        with pytest.raises(ValueError, match=r"^sla_reference_gpcs=3 is not a valid"):
            ServerConfig(model="resnet", architecture=A30, sla_reference_gpcs=3)

    def test_architecture_preset_name_resolves(self):
        # the flat spelling resolves a preset name as the fleet spelling does
        assert ServerConfig("mobilenet", architecture="a30") == ServerConfig(
            "mobilenet", architecture=A30
        )
        assert ServerConfig("mobilenet", architecture="a30").build_fleet().specs == (
            ServerConfig("mobilenet", fleet=[(8, "a30")]).build_fleet().specs
        )
        with pytest.raises(KeyError, match="unknown GPU architecture 'a31'"):
            ServerConfig("mobilenet", architecture="a31")

    def test_resolved_default_reference_follows_the_new_primary(self):
        # the A30-primary template resolves the default GPU(7) reference to
        # GPU(4); a grant that lands on the A100 server alone references
        # GPU(7) again, as the same fleet spelled directly does
        pool = FleetPool([(2, "a30"), (2, "a100")])
        template = ServerConfig("resnet", fleet=pool.specs)
        assert template.sla_reference_gpcs == 4
        pool.acquire("t0", 8)
        grant = pool.acquire("t1", 14)
        carved = pool.config_for(grant, template)
        direct = ServerConfig("resnet", fleet=grant.specs)
        assert carved == direct
        assert carved.sla_reference_gpcs == 7
        assert (
            build_deployment(carved, PDF).sla_target
            == build_deployment(direct, PDF).sla_target
        )
        # an explicitly chosen smaller reference carries over
        kept = ServerConfig("resnet", fleet=[(2, "a30")], sla_reference_gpcs=2)
        assert config_with_fleet(kept, [(2, "a100")]).sla_reference_gpcs == 2
        assert config_with_fleet(
            ServerConfig("resnet", sla_reference_gpcs=4), [(2, "a30")]
        ).sla_reference_gpcs == 4


class TestFleetDeployment:
    def test_mixed_deployment_has_arch_profiles(self):
        deployment = build_deployment(
            ServerConfig(model="resnet", fleet=MIXED), PDF
        )
        assert deployment.arch_profiles is not None
        assert set(deployment.arch_profiles) == {A100.name, A30.name, H100.name}
        # every served model is profiled on every architecture
        for tables in deployment.arch_profiles.values():
            assert set(tables) == {"resnet"}
        # instances span every architecture and the plan is keyed by arch
        archs = {i.partition.architecture.name for i in deployment.instances}
        assert archs == {A100.name, A30.name, H100.name}
        assert deployment.plan.counts_of(A30.name)

    def test_profile_for_architecture_resolution(self):
        deployment = build_deployment(
            ServerConfig(model="resnet", fleet=MIXED), PDF
        )
        a30_table = deployment.profile_for_architecture("resnet", A30.name)
        assert a30_table.partition_sizes == [1, 2, 4]
        # unknown architecture falls back to the primary table
        fallback = deployment.profile_for_architecture("resnet", "unknown")
        assert fallback is deployment.profile

    def test_multi_model_fleet_deployment(self):
        config = ServerConfig(
            model="resnet", extra_models=("mobilenet",), fleet=MIXED
        )
        deployment = build_deployment(config, PDF)
        for tables in deployment.arch_profiles.values():
            assert set(tables) == {"resnet", "mobilenet"}
        assert set(deployment.profiles) == {"resnet", "mobilenet"}

    def test_fleet_replan_respects_budgets(self):
        deployment = build_deployment(
            ServerConfig(model="resnet", fleet=MIXED), PDF
        )
        replanned = replan_deployment(deployment, {16: 0.5, 32: 0.5})
        assert replanned.plan.used_gpcs_of(A100.name) <= 14
        assert replanned.plan.used_gpcs_of(A30.name) <= 8
        assert replanned.plan.used_gpcs_of(H100.name) <= 7
        assert replanned.scheduler is deployment.scheduler  # reused untouched

    def test_per_arch_partitioning_for_non_paris(self):
        config = ServerConfig(
            model="resnet",
            partitioning="homogeneous",
            partitioner_spec=HomogeneousSpec(gpcs=2),
            fleet=((1, "a100", 6), (1, "a30", 4)),
        )
        deployment = build_deployment(config, PDF)
        assert deployment.plan.counts_of(A100.name) == {2: 3}
        assert deployment.plan.counts_of(A30.name) == {2: 2}
        assert deployment.plan.strategy == "fleet-homogeneous"


class TestFleetProfileArguments:
    def test_one_architecture_fleet_takes_an_explicit_profile(self):
        # one architecture: one table per model answers for every server,
        # in either spelling
        from repro.models.registry import get_model
        from repro.perf.profiler import Profiler

        table = Profiler(architecture=A30, batch_sizes=(1, 2, 4, 8, 16, 32)).profile(
            get_model("resnet")
        )
        fleet = build_deployment(
            ServerConfig(model="resnet", fleet=[(4, "a30"), (4, "a30")]), PDF, profile=table
        )
        flat = build_deployment(ServerConfig(model="resnet", architecture=A30), PDF, profile=table)
        assert fleet.profile is flat.profile is table
        assert fleet.arch_profiles is None
        assert fleet.plan == flat.plan
        assert fleet.sla_targets == flat.sla_targets

    def test_session_reuses_tables_only_on_their_architecture(self):
        from repro.perf.profiler import Profiler, cached_profile

        calls = []

        class CountingProfiler(Profiler):
            def profile(self, model):
                calls.append(model.name)
                return super().profile(model)

        config = ServerConfig(model="resnet", num_gpus=8, gpc_budget=48)
        session = ServingSession(config, profiler=CountingProfiler(), window=None)
        first = session.deploy(PDF)
        assert session.deploy({4: 0.5, 32: 0.5}).profile is first.profile
        assert calls == ["resnet"]  # profiled once, reused by the redeploy
        # a design that moved onto another architecture deploys with that
        # architecture's tables, not the ones it deployed before
        session = ServingSession(ServerConfig(model="resnet", num_gpus=2, gpc_budget=14))
        session.deploy(PDF)
        session.scale_out((2, "a30"))
        session.scale_in(0)
        assert session.deploy(PDF).profile is cached_profile("resnet", architecture=A30)

    def test_explicit_profile_rejected_on_fleet_configs(self):
        # a single-architecture table cannot answer for the whole fleet;
        # silently ignoring it would compute results from the wrong model
        from repro.perf.profiler import cached_profile

        config = ServerConfig(model="resnet", fleet=MIXED)
        with pytest.raises(ValueError, match="per-architecture cache"):
            build_deployment(config, PDF, profile=cached_profile("resnet"))
        with pytest.raises(ValueError, match="per-architecture cache"):
            build_deployment(
                config, PDF, profiles={"resnet": cached_profile("resnet")}
            )

    def test_custom_profiler_rejected_on_fleet_sessions(self):
        from repro.perf.profiler import Profiler

        config = ServerConfig(model="resnet", fleet=MIXED)
        with pytest.raises(ValueError, match="per-architecture cache"):
            ServingSession(config, profiler=Profiler())

    def test_from_deployment_roundtrip_on_fleet(self):
        deployment = build_deployment(ServerConfig(model="resnet", fleet=MIXED), PDF)
        session = ServingSession.from_deployment(deployment, window=None)
        assert session.deployment is deployment


class TestFleetSession:
    def test_session_runs_and_repartitions_mixed_fleet(self):
        session = ServingSession(
            ServerConfig(model="resnet", fleet=((2, "a100", 14), (2, "a30"))),
            batch_pdf={1: 0.8, 2: 0.2},  # deliberately stale prior
            window=0.05,
            triggers=[("pdf-drift", {"threshold": 0.1, "min_queries": 50})],
            reconfig_cost=0.1,
        )
        result = session.run(
            WorkloadConfig(
                model="resnet", rate_qps=2500.0, num_queries=1200, seed=2, sigma=1.5
            )
        )
        assert result.simulation.statistics.completed_queries == 1200
        assert result.reconfigurations  # drift fired on the live fleet
        final_plan = result.deployment.plan
        assert final_plan.used_gpcs_of(A100.name) <= 14
        assert final_plan.used_gpcs_of(A30.name) <= 8
