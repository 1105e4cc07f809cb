"""Tests for the server configuration and SLA target derivation."""

import numpy as np
import pytest

from repro.core.specs import (
    ElsaSpec,
    FifsSpec,
    HomogeneousSpec,
    ParisSpec,
    PolicySpec,
)
from repro.serving.config import ServerConfig
from repro.serving.deployment import build_deployment
from repro.serving.sla import derive_sla_target
from tests.sim.helpers import constant_profile, linear_profile


class TestServerConfig:
    def test_defaults_are_paris_elsa(self):
        config = ServerConfig(model="resnet")
        assert config.partitioning == "paris"
        assert config.scheduler == "elsa"
        assert config.effective_gpc_budget == 56
        assert config.label() == "paris+elsa"

    def test_open_policy_names_accepted(self):
        config = ServerConfig(
            model="resnet", partitioning="My-Policy", scheduler="MY-SCHED"
        )
        # names are open strings, normalised to lowercase; validity is
        # checked against the registry at deployment time, not here
        assert config.partitioning == "my-policy"
        assert config.scheduler == "my-sched"
        assert config.label() == "my-policy+my-sched"

    def test_bare_string_extra_models_rejected(self):
        # tuple("bert") would silently splat into per-character model names
        with pytest.raises(TypeError, match="bare"):
            ServerConfig(model="resnet", extra_models="bert")

    def test_models_puts_primary_first_and_dedupes(self):
        config = ServerConfig(
            model="resnet", extra_models=("bert", "resnet", "mobilenet")
        )
        assert config.models == ("resnet", "bert", "mobilenet")

    def test_homogeneous_label_includes_size(self):
        config = ServerConfig(
            model="bert",
            partitioning="homogeneous",
            scheduler="fifs",
            partitioner_spec=HomogeneousSpec(gpcs=3),
        )
        assert config.label() == "gpu(3)+fifs"

    def test_budget_override(self):
        config = ServerConfig(model="bert", gpc_budget=42)
        assert config.effective_gpc_budget == 42

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"model": ""},
            {"model": "resnet", "num_gpus": 0},
            {"model": "resnet", "gpc_budget": 0},
            {
                "model": "resnet",
                "partitioning": "homogeneous",
                "partitioner_spec": HomogeneousSpec(gpcs=5),
            },
            {"model": "resnet", "sla_multiplier": 0.0},
            {"model": "resnet", "max_batch": 0},
            {"model": "resnet", "frontend_capacity_qps": 0.0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServerConfig(**kwargs)

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("sla_multiplier", float("nan"),
             r"^sla_multiplier must be positive and finite, got nan$"),
            ("sla_multiplier", float("inf"),
             r"^sla_multiplier must be positive and finite, got inf$"),
            ("frontend_capacity_qps", float("nan"),
             r"^frontend_capacity_qps must be positive and finite when set, got nan$"),
            ("frontend_capacity_qps", float("inf"),
             r"^frontend_capacity_qps must be positive and finite when set, got inf$"),
        ],
    )
    def test_non_finite_values_rejected(self, field, value, message):
        # a NaN frontend gap silently switched the frontend model off, and
        # an infinite multiplier made every query meet its SLA
        with pytest.raises(ValueError, match=message):
            ServerConfig(model="resnet", **{field: value})

    def test_homogeneous_size_checked_only_for_the_homogeneous_partitioner(self):
        from repro.gpu.architecture import A30

        # the default GPU(7) spec exists on no A30, but PARIS never reads it
        assert ServerConfig(model="resnet", architecture=A30).label() == "paris+elsa"
        with pytest.raises(
            ValueError,
            match=r"^HomogeneousSpec\(gpcs=7\) is not a valid partition size on A30 ",
        ):
            ServerConfig(model="resnet", partitioning="homogeneous", architecture=A30)

    def test_registry_aliases_canonicalise_to_equal_configs(self):
        # "random" is a registry alias of "random-dispatch": both spellings
        # must produce the same (equal, identically-labelled) design point
        via_alias = ServerConfig(model="resnet", scheduler="random")
        via_name = ServerConfig(model="resnet", scheduler=" Random-Dispatch ")
        assert via_alias == via_name
        assert via_alias.scheduler == "random-dispatch"
        assert via_alias.label() == "paris+random-dispatch"

    def test_policy_tunables_live_only_in_the_specs(self):
        config = ServerConfig(
            "resnet",
            partitioner_spec=ParisSpec(knee_threshold=0.85),
            scheduler_spec=ElsaSpec(alpha=1.2, beta=0.8),
            sla_multiplier=2.0,
            max_batch=64,
            gpc_budget=48,
        )
        assert config.label() == "paris+elsa"
        assert config.partitioner_spec == ParisSpec(knee_threshold=0.85)
        assert config.scheduler_spec == ElsaSpec(alpha=1.2, beta=0.8)
        for removed in ("alpha", "beta", "knee_threshold", "homogeneous_gpcs"):
            assert not hasattr(config, removed)

    def test_bare_policy_names_select_the_default_specs(self):
        config = ServerConfig("resnet", partitioning="homogeneous", scheduler="fifs")
        assert config.label() == "gpu(7)+fifs"
        assert config.partitioner_spec == HomogeneousSpec()
        assert config.scheduler_spec == FifsSpec()

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("num_gpus", 2.5, r"^num_gpus must be positive and integral, got 2.5$"),
            ("num_gpus", 0, r"^num_gpus must be positive and integral, got 0$"),
            ("gpc_budget", 24.5,
             r"^gpc_budget must be positive when set and integral, got 24.5$"),
            ("max_batch", 16.5, r"^max_batch must be >= 1 and integral, got 16.5$"),
        ],
        ids=["num_gpus-fraction", "num_gpus-zero", "gpc_budget-fraction", "max_batch-fraction"],
    )
    def test_non_integral_counts_rejected(self, field, value, message):
        # a fractional GPU count or budget cannot be deployed: it fails here
        # with a pinned message, not later in build_deployment
        with pytest.raises(ValueError, match=message):
            ServerConfig(model="resnet", **{field: value})

    def test_numpy_and_integral_float_counts_accepted(self):
        config = ServerConfig(
            model="resnet", num_gpus=np.int64(4), gpc_budget=24.0, max_batch=np.int32(16)
        )
        assert (config.num_gpus, config.gpc_budget, config.max_batch) == (4, 24, 16)
        assert config.effective_gpc_budget == 24


class TestPolicySpecs:
    def test_policy_spec_options_reach_builtin_factories(self, mobilenet_profile):
        # a generic PolicySpec naming a built-in policy must not have its
        # options silently dropped in favour of the config defaults
        pdf = {1: 0.4, 4: 0.3, 8: 0.2, 32: 0.1}
        config = ServerConfig(
            model="mobilenet",
            partitioner_spec=PolicySpec("paris", {"knee_threshold": 0.5}),
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
        with pytest.raises(
            ValueError,
            match=r"^unknown option\(s\) \['knee_treshold'\] for built-in partitioner 'paris'",
        ):
            ServerConfig(
                model="mobilenet",
                partitioner_spec=PolicySpec("paris", {"knee_treshold": 0.5}),  # typo
            )

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
        # an object that is no spec at all raises the same way
        with pytest.raises(TypeError, match="ParisSpec"):
            ServerConfig(model="mobilenet", partitioner_spec=object())

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


class TestSlaTarget:
    def test_multiplier_times_reference_latency(self):
        profile = linear_profile({7: 0.001, 1: 0.004})
        # GPU(7) at batch 32 takes 32 ms; SLA = 1.5x = 48 ms.
        assert derive_sla_target(profile, max_batch=32) == pytest.approx(0.048)

    def test_custom_multiplier_and_reference(self):
        profile = constant_profile({1: 2.0, 7: 1.0})
        assert derive_sla_target(profile, 8, multiplier=2.0) == pytest.approx(2.0)
        assert derive_sla_target(profile, 8, reference_gpcs=1) == pytest.approx(3.0)

    def test_invalid_inputs_rejected(self):
        profile = constant_profile({7: 1.0})
        with pytest.raises(ValueError):
            derive_sla_target(profile, max_batch=0)
        with pytest.raises(ValueError):
            derive_sla_target(profile, max_batch=8, multiplier=0.0)
        with pytest.raises(KeyError):
            derive_sla_target(profile, max_batch=8, reference_gpcs=3)

    def test_sla_scales_with_model_weight(self, mobilenet_profile, bert_profile):
        """Heavier models get proportionally larger SLA targets."""
        light = derive_sla_target(mobilenet_profile, 32)
        heavy = derive_sla_target(bert_profile, 32)
        assert heavy > light
