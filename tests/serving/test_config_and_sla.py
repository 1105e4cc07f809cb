"""Tests for the server configuration and SLA target derivation."""

import pytest

from repro.core.specs import HomogeneousSpec
from repro.serving.config import ServerConfig
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
        with pytest.raises(TypeError, match="bare"):
            ServerConfig.from_specs("resnet", extra_models="bert")

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

    def test_from_specs_rejects_non_spec_sla_and_cluster(self):
        with pytest.raises(TypeError, match="SlaSpec"):
            ServerConfig.from_specs("resnet", sla=2.0)
        with pytest.raises(TypeError, match="ClusterSpec"):
            ServerConfig.from_specs("resnet", cluster=8)


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
