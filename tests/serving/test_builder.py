"""Tests for the composable spec objects and the fluent ServerBuilder."""

import pytest

from repro.core.specs import (
    ClusterSpec,
    ElsaSpec,
    FifsSpec,
    HomogeneousSpec,
    ParisSpec,
    PolicySpec,
    SlaSpec,
)
from repro.serving.builder import ServerBuilder
from repro.serving.config import ServerConfig
from repro.serving.deployment import build_deployment
from repro.workload.distributions import LogNormalBatchDistribution
from repro.workload.generator import WorkloadConfig


@pytest.fixture
def pdf():
    return LogNormalBatchDistribution(sigma=0.9, median=8, max_batch=32).pdf()


class TestFromSpecs:
    def test_specs_select_policies_and_sync_flat_fields(self):
        config = ServerConfig.from_specs(
            "resnet",
            partitioner=ParisSpec(knee_threshold=0.85),
            scheduler=ElsaSpec(alpha=1.2, beta=0.8),
            sla=SlaSpec(multiplier=2.0, max_batch=64),
            cluster=ClusterSpec(num_gpus=8, gpc_budget=48),
        )
        assert config.partitioning == "paris"
        assert config.scheduler == "elsa"
        # the SLA and cluster specs group plain config fields
        assert config.sla_multiplier == 2.0
        assert config.max_batch == 64
        assert config.num_gpus == 8
        assert config.gpc_budget == 48
        # the policy specs are the only home of the policy tunables
        assert config.partitioner_spec == ParisSpec(knee_threshold=0.85)
        assert config.scheduler_spec == ElsaSpec(alpha=1.2, beta=0.8)
        for removed in ("alpha", "beta", "knee_threshold", "homogeneous_gpcs"):
            assert not hasattr(config, removed)

    def test_plain_strings_also_accepted(self):
        config = ServerConfig.from_specs("resnet", "homogeneous", "fifs")
        assert config.label() == "gpu(7)+fifs"
        # a bare name selects the built-in policy's default spec
        assert config.partitioner_spec == HomogeneousSpec()
        assert config.scheduler_spec == FifsSpec()

    def test_overrides_win_over_spec_values(self):
        config = ServerConfig.from_specs(
            "resnet",
            sla=SlaSpec(multiplier=2.0, max_batch=64),
            sla_multiplier=3.0,
        )
        assert config.sla_multiplier == 3.0
        assert config.max_batch == 64
        # a policy tunable is no config field, so it cannot be overridden
        # past its spec
        with pytest.raises(TypeError, match="knee_threshold"):
            ServerConfig.from_specs(
                "resnet",
                partitioner=ParisSpec(knee_threshold=0.85),
                knee_threshold=0.7,
            )

    def test_overrides_preserve_spec_only_fields(self):
        config = ServerConfig.from_specs(
            "resnet",
            partitioner=ParisSpec(knee_threshold=0.85, partition_sizes=(1, 7)),
            gpc_budget=48,
        )
        assert config.partitioner_spec == ParisSpec(
            knee_threshold=0.85, partition_sizes=(1, 7)
        )

    def test_homogeneous_spec_sets_partition_size(self):
        config = ServerConfig.from_specs(
            "resnet", partitioner=HomogeneousSpec(gpcs=3), scheduler="fifs"
        )
        assert config.partitioner_spec.gpcs == 3
        assert config.label() == "gpu(3)+fifs"

    def test_policy_spec_for_custom_names(self):
        spec = PolicySpec("my-policy", {"knob": 3})
        config = ServerConfig.from_specs("resnet", partitioner=spec)
        assert config.partitioning == "my-policy"
        assert config.partitioner_spec.options == {"knob": 3}

    def test_policy_spec_options_reach_builtin_factories(
        self, pdf, mobilenet_profile
    ):
        # a generic PolicySpec naming a built-in policy must not have its
        # options silently dropped in favour of the config defaults
        config = ServerConfig.from_specs(
            "mobilenet",
            partitioner=PolicySpec("paris", {"knee_threshold": 0.5}),
            gpc_budget=24,
            num_gpus=4,
        )
        # the PolicySpec is converted into the typed built-in spec
        assert config.partitioner_spec == ParisSpec(knee_threshold=0.5)
        deployment = build_deployment(config, pdf, profile=mobilenet_profile)
        reference = build_deployment(
            ServerConfig(
                model="mobilenet",
                partitioner_spec=ParisSpec(knee_threshold=0.5),
                gpc_budget=24,
                num_gpus=4,
            ),
            pdf,
            profile=mobilenet_profile,
        )
        assert deployment.plan.knees == reference.plan.knees

    def test_policy_spec_with_unknown_builtin_option_rejected(self):
        with pytest.raises(ValueError, match="knee_treshold"):
            ServerConfig.from_specs(
                "mobilenet",
                partitioner=PolicySpec("paris", {"knee_treshold": 0.5}),  # typo
                gpc_budget=24,
                num_gpus=4,
            )

    def test_spec_without_policy_attribute_rejected(self):
        with pytest.raises(TypeError, match="policy"):
            ServerConfig.from_specs("resnet", partitioner=object())

    def test_reserved_override_keys_rejected_with_a_clear_error(self):
        with pytest.raises(ValueError, match="partitioner"):
            ServerConfig.from_specs("resnet", partitioning="random")
        with pytest.raises(ValueError, match="collide"):
            ServerBuilder("resnet").options(scheduler="fifs").build()

    def test_mismatched_spec_type_rejected_at_construction(self):
        # an ElsaSpec paired with the fifs scheduler must raise, not be
        # silently replaced by defaults
        with pytest.raises(TypeError, match="FifsSpec"):
            ServerConfig(
                model="mobilenet",
                scheduler="fifs",
                scheduler_spec=ElsaSpec(alpha=9.0),
                gpc_budget=24,
                num_gpus=4,
            )
        with pytest.raises(TypeError, match="HomogeneousSpec"):
            ServerConfig(
                model="mobilenet",
                partitioning="homogeneous",
                partitioner_spec=ParisSpec(),
            )


    def test_policy_spec_naming_another_policy_rejected(self):
        # the options of a PolicySpec for fifs must not be applied to elsa
        with pytest.raises(TypeError, match="does not match the selected policy"):
            ServerConfig(
                model="mobilenet",
                scheduler="elsa",
                scheduler_spec=PolicySpec("fifs", {"alpha": 2.0}),
            )
        # an alias of the selected policy still names it
        config = ServerConfig(
            model="mobilenet",
            scheduler="random-dispatch",
            scheduler_spec=PolicySpec("random", {"seed": 3}),
        )
        assert config.scheduler_spec.seed == 3

    def test_non_field_override_lists_the_valid_fields(self):
        with pytest.raises(TypeError, match="valid fields") as info:
            ServerConfig.from_specs("resnet", alpha=1.2)
        message = str(info.value)
        assert "'alpha'" in message
        assert "'sla_multiplier'" in message
        assert "spec" in message


class TestServerBuilder:
    def test_fluent_chain_builds_a_config(self):
        config = (
            ServerBuilder("mobilenet")
            .cluster(num_gpus=4, gpc_budget=24, frontend_capacity_qps=5000.0)
            .partitioner("paris", knee_threshold=0.9)
            .scheduler("fifs", idle_preference="largest")
            .sla(multiplier=2.0, max_batch=16)
            .seed(7)
            .build()
        )
        assert isinstance(config, ServerConfig)
        assert config.label() == "paris+fifs"
        assert config.partitioner_spec == ParisSpec(knee_threshold=0.9)
        # the scheduler seed stays spec-local (None = fall back to
        # config.random_seed at build time)
        assert config.scheduler_spec == FifsSpec(idle_preference="largest")
        assert config.sla_multiplier == 2.0
        assert config.max_batch == 16
        assert config.num_gpus == 4
        assert config.gpc_budget == 24
        assert config.frontend_capacity_qps == 5000.0
        assert config.random_seed == 7

    def test_defaults_are_paris_elsa(self):
        config = ServerBuilder("resnet").build()
        assert config.label() == "paris+elsa"

    def test_serve_models_adds_extra_models(self):
        config = ServerBuilder("resnet").serve_models("bert", "mobilenet").build()
        assert config.models == ("resnet", "bert", "mobilenet")

    def test_unknown_builtin_options_rejected_with_policy_name(self):
        with pytest.raises(ValueError, match="paris"):
            ServerBuilder("resnet").partitioner("paris", no_such_option=1)

    def test_rerun_cluster_and_sla_merge_instead_of_resetting(self):
        config = (
            ServerBuilder("resnet")
            .cluster(num_gpus=4)
            .cluster(gpc_budget=24)
            .sla(multiplier=2.0)
            .sla(max_batch=16)
            .build()
        )
        assert config.num_gpus == 4
        assert config.gpc_budget == 24
        assert config.sla_multiplier == 2.0
        assert config.max_batch == 16

    def test_custom_policy_options_become_policy_spec(self):
        config = ServerBuilder("resnet").scheduler("my-sched", knob=2).build()
        assert config.scheduler == "my-sched"
        assert config.scheduler_spec == PolicySpec("my-sched", {"knob": 2})

    def test_builtin_alias_options_land_on_the_builtin_spec(self):
        # "random" is a registry alias of "random-dispatch"; options passed
        # with the alias must reach the built-in spec instead of being
        # silently dropped inside an ignored PolicySpec
        from repro.core.specs import RandomDispatchSpec

        config = ServerBuilder("resnet").scheduler("random", seed=3).build()
        assert config.scheduler == "random-dispatch"
        assert config.scheduler_spec == RandomDispatchSpec(seed=3)

    def test_spec_object_with_extra_options_rejected(self):
        with pytest.raises(ValueError, match="spec"):
            ServerBuilder("resnet").partitioner(ParisSpec(), knee_threshold=0.9)

    def test_direct_spec_object_fields_cannot_be_silently_overridden(self):
        # a directly-passed spec is the only home of its values: a policy
        # tunable passed as a plain option is no config field and raises
        # at the call that passes it
        builder = ServerBuilder("resnet").partitioner(ParisSpec(knee_threshold=0.95))
        with pytest.raises(TypeError, match="knee_threshold"):
            builder.options(knee_threshold=0.7)
        assert builder.build().partitioner_spec.knee_threshold == 0.95

    def test_options_passthrough(self):
        config = ServerBuilder("resnet").options(sla_reference_gpcs=4).build()
        assert config.sla_reference_gpcs == 4

    def test_cross_step_field_collisions_raise_in_either_order(self):
        # a field EXPLICITLY set by two different steps is ambiguous —
        # no silent winner
        with pytest.raises(ValueError, match="max_batch"):
            (ServerBuilder("resnet")
             .options(max_batch=16)
             .sla(max_batch=8))
        with pytest.raises(ValueError, match="max_batch"):
            (ServerBuilder("resnet")
             .sla(max_batch=8)
             .options(max_batch=16))
        with pytest.raises(ValueError, match="num_gpus"):
            (ServerBuilder("resnet")
             .options(num_gpus=4)
             .cluster(num_gpus=8))

    def test_defaults_do_not_claim_fields(self):
        # sizing the cluster without touching a field leaves that field
        # settable via .options()
        config = (
            ServerBuilder("resnet")
            .options(num_gpus=4)
            .cluster(gpc_budget=24)
            .build()
        )
        assert config.num_gpus == 4
        assert config.gpc_budget == 24

    def test_rejected_rerun_keeps_the_claims_table_intact(self):
        # a re-run step that collides must not release its earlier claims:
        # the collision guarantee has to keep holding afterwards
        builder = ServerBuilder("resnet").sla(multiplier=2.0)
        builder.options(max_batch=16)
        with pytest.raises(ValueError, match="max_batch"):
            builder.sla(max_batch=8)
        with pytest.raises(ValueError, match="sla_multiplier"):
            builder.options(sla_multiplier=9.0)
        assert builder.build().sla_multiplier == 2.0

    def test_rejected_step_leaves_the_builder_unchanged(self):
        # a step that fails validation must not take partial effect
        builder = ServerBuilder("resnet").options(num_gpus=4)
        with pytest.raises(ValueError, match="num_gpus"):
            builder.cluster(num_gpus=8, gpc_budget=24)
        with pytest.raises(ValueError, match="gpcz"):
            builder.partitioner("homogeneous", gpcz=5)
        config = builder.build()
        assert config.partitioning == "paris"  # the default survived
        assert config.num_gpus == 4
        assert config.gpc_budget is None

    def test_rerunning_a_step_replaces_its_own_claims(self):
        config = (
            ServerBuilder("resnet")
            .partitioner("paris", knee_threshold=0.9)
            .partitioner("paris", knee_threshold=0.6)
            .sla(max_batch=16)
            .sla(max_batch=8)
            .build()
        )
        assert config.partitioner_spec == ParisSpec(knee_threshold=0.6)
        assert config.max_batch == 8

    def test_independent_partitioner_and_scheduler_seeds_coexist(self):
        # scheduler seeds are spec-local, so seeding both stochastic
        # policies is neither a builder collision nor a flat-field clash
        from repro.core.specs import RandomDispatchSpec, RandomPartitionSpec

        config = (
            ServerBuilder("resnet")
            .partitioner("random", seed=1)
            .scheduler("random-dispatch", seed=2)
            .build()
        )
        assert config.partitioner_spec == RandomPartitionSpec(seed=1)
        assert config.scheduler_spec == RandomDispatchSpec(seed=2)
        # no spec writes the design's seed: it stays the fallback of every
        # spec that leaves seed=None
        assert config.random_seed == 0

        via_specs = ServerConfig.from_specs(
            "resnet",
            partitioner=RandomPartitionSpec(seed=1),
            scheduler=RandomDispatchSpec(seed=2),
        )
        assert via_specs == config

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            ServerBuilder("")

    def test_built_config_deploys(self, pdf, mobilenet_profile):
        config = (
            ServerBuilder("mobilenet")
            .cluster(num_gpus=4, gpc_budget=24)
            .partitioner("homogeneous", gpcs=3)
            .scheduler("least-loaded")
            .build()
        )
        deployment = build_deployment(config, pdf, profile=mobilenet_profile)
        assert deployment.plan.counts == {3: 8}

    def test_build_service_serves_end_to_end(self, profiler):
        session = (
            ServerBuilder("mobilenet")
            .cluster(num_gpus=4, gpc_budget=24)
            .build_session(profiler=profiler, window=None)
        )
        workload = WorkloadConfig(model="mobilenet", rate_qps=200.0, num_queries=80)
        result = session.run(workload)
        assert result.simulation.statistics.completed_queries == 80
