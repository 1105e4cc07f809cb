"""Tests for the pluggable policy registries.

Covers the satellite acceptance criteria of the registry redesign: built-in
policies are registered, unknown names raise with the list of available
policies, and a custom third-party partitioner + scheduler registered from
user code (no edits inside ``repro/``) round-trips through
``build_deployment`` selected purely by name.
"""

import pytest

from repro.core.plan import PartitionPlan
from repro.core.registry import (
    PARTITIONERS,
    SCHEDULERS,
    PartitionerContext,
    SchedulerContext,
    available_partitioners,
    available_schedulers,
    get_partitioner,
    get_scheduler,
    register_partitioner,
    register_scheduler,
)
from repro.core.schedulers import FifsScheduler
from repro.core.specs import FifsSpec, PolicySpec
from repro.registry import PolicyRegistry, UnknownPolicyError
from repro.serving.config import ServerConfig
from repro.serving.deployment import build_deployment
from repro.sim.scheduler_api import Scheduler
from repro.workload.distributions import LogNormalBatchDistribution


@pytest.fixture
def pdf():
    return LogNormalBatchDistribution(sigma=0.9, median=8, max_batch=32).pdf()


class TestBuiltinRegistrations:
    def test_paper_policies_are_registered(self):
        assert {"paris", "homogeneous", "random"} <= set(available_partitioners())
        assert {"elsa", "fifs", "least-loaded", "random-dispatch"} <= set(
            available_schedulers()
        )

    def test_scheduler_random_alias(self):
        assert get_scheduler("random") is get_scheduler("random-dispatch")

    def test_lookup_is_case_insensitive(self):
        assert get_partitioner("PARIS") is get_partitioner("paris")

    def test_context_explicit_profile_wins_over_mapping_entry(
        self, mobilenet_profile, resnet_profile
    ):
        # the same precedence build_deployment and SlackEstimator enforce:
        # the explicit primary profile beats a same-model profiles entry
        stale = resnet_profile  # stand-in "stale" table under the same key
        context = SchedulerContext(
            profile=mobilenet_profile,
            profiles={mobilenet_profile.model_name: stale},
        )
        assert context.profiles[mobilenet_profile.model_name] is mobilenet_profile

    def test_builtin_factories_honour_specs(self, mobilenet_profile):
        context = SchedulerContext(
            profile=mobilenet_profile, spec=FifsSpec(idle_preference="largest")
        )
        scheduler = get_scheduler("fifs")(context)
        assert isinstance(scheduler, FifsScheduler)
        assert scheduler.idle_preference == "largest"


class TestUnknownNames:
    def test_unknown_partitioner_lists_available(self):
        with pytest.raises(UnknownPolicyError) as excinfo:
            get_partitioner("no-such-policy")
        message = str(excinfo.value)
        assert "no-such-policy" in message
        for name in available_partitioners():
            assert name in message

    def test_unknown_scheduler_lists_available(self):
        with pytest.raises(UnknownPolicyError) as excinfo:
            get_scheduler("no-such-sched")
        message = str(excinfo.value)
        assert "no-such-sched" in message
        for name in available_schedulers():
            assert name in message

    def test_unknown_policy_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            get_partitioner("no-such-policy")

    def test_build_deployment_raises_for_unknown_names(self, pdf, mobilenet_profile):
        config = ServerConfig(model="mobilenet", partitioning="no-such-policy")
        with pytest.raises(UnknownPolicyError, match="available partitioner"):
            build_deployment(config, pdf, profile=mobilenet_profile)


class TestRegistrationRules:
    def test_duplicate_registration_rejected(self):
        registry = PolicyRegistry("thing")
        registry.register("a", lambda ctx: ctx)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("a", lambda ctx: ctx)

    def test_overwrite_replaces(self):
        registry = PolicyRegistry("thing")
        registry.register("a", lambda ctx: 1)
        registry.register("a", lambda ctx: 2, overwrite=True)
        assert registry.get("a")(None) == 2

    def test_non_callable_rejected(self):
        registry = PolicyRegistry("thing")
        with pytest.raises(TypeError):
            registry.register("a", "not-callable")

    def test_overwriting_an_alias_shadows_it(self):
        # registering a factory under a name that is currently an alias
        # must make lookups return the new factory, not the alias target
        registry = PolicyRegistry("thing")
        registry.register("primary", lambda ctx: "old", aliases=("nick",))
        registry.register("nick", lambda ctx: "new", overwrite=True)
        assert registry.get("nick")(None) == "new"
        assert registry.get("primary")(None) == "old"

    def test_overwriting_a_primary_with_an_alias_drops_its_aliases(self):
        # shadowing a primary name leaves no dangling aliases behind
        registry = PolicyRegistry("thing")
        registry.register("a", lambda ctx: "fa", aliases=("a1", "a2"))
        registry.register("b", lambda ctx: "fb", aliases=("a",), overwrite=True)
        assert registry.get("a")(None) == "fb"
        assert "a1" not in registry
        assert "a2" not in registry
        assert registry.names() == ["b"]

    def test_alias_folding_onto_the_name_is_harmless(self):
        # an alias differing only in case from the name must not shadow
        # (and previously silently deleted) the registration itself
        registry = PolicyRegistry("thing")
        registry.register("foo", lambda ctx: "ok", aliases=("FOO", "foo"))
        assert registry.get("foo")(None) == "ok"
        assert registry.names() == ["foo"]

    def test_canonical_resolves_aliases(self):
        assert SCHEDULERS.canonical("random") == "random-dispatch"
        assert SCHEDULERS.canonical("ELSA") == "elsa"
        assert SCHEDULERS.canonical("not-registered") == "not-registered"

    def test_unregister_removes_name_and_aliases(self):
        registry = PolicyRegistry("thing")
        registry.register("a", lambda ctx: 1, aliases=("b",))
        assert "b" in registry
        registry.unregister("a")
        assert "a" not in registry
        assert "b" not in registry

    def test_unregister_by_alias_keeps_the_primary(self):
        # freeing an alias must not delete the factory it points at
        registry = PolicyRegistry("thing")
        registry.register("a", lambda ctx: 1, aliases=("b", "c"))
        registry.unregister("b")
        assert "b" not in registry
        assert registry.get("a")(None) == 1
        assert registry.canonical("c") == "a"

    def test_contains(self):
        assert "paris" in PARTITIONERS
        assert "elsa" in SCHEDULERS
        assert "nope" not in PARTITIONERS


class _EveryOtherScheduler(Scheduler):
    """Toy third-party policy: round-robin across all workers."""

    name = "my-sched"

    def __init__(self, stride: int = 1) -> None:
        self.stride = stride
        self._cursor = 0

    def reset(self) -> None:
        self._cursor = 0

    def on_arrival(self, query, context):
        worker = context.workers[self._cursor % len(context.workers)]
        self._cursor += self.stride
        return worker


class TestCustomPolicyRoundTrip:
    """A partitioner + scheduler registered from user code, selected by name."""

    @pytest.fixture(autouse=True)
    def _register(self):
        @register_partitioner("my-policy")
        def equal_split(context: PartitionerContext) -> PartitionPlan:
            # fill the budget with 2-GPC instances
            return PartitionPlan(
                model=context.model,
                counts={2: context.budget // 2},
                total_gpcs=context.budget,
                strategy="my-policy",
            )

        @register_scheduler("my-sched")
        def every_other(context: SchedulerContext) -> Scheduler:
            options = getattr(context.spec, "options", {}) or {}
            return _EveryOtherScheduler(**options)

        yield
        PARTITIONERS.unregister("my-policy")
        SCHEDULERS.unregister("my-sched")

    def test_selected_by_name_through_build_deployment(self, pdf, mobilenet_profile):
        config = ServerConfig(
            model="mobilenet",
            partitioning="my-policy",
            scheduler="my-sched",
            gpc_budget=24,
            num_gpus=4,
        )
        deployment = build_deployment(config, pdf, profile=mobilenet_profile)
        assert deployment.plan.strategy == "my-policy"
        assert deployment.plan.counts == {2: 12}
        assert isinstance(deployment.scheduler, _EveryOtherScheduler)
        assert config.label() == "my-policy+my-sched"

    def test_custom_policy_serves_a_trace(self, pdf, mobilenet_profile):
        from repro.workload.generator import QueryGenerator, WorkloadConfig

        config = ServerConfig(
            model="mobilenet",
            partitioning="my-policy",
            scheduler="my-sched",
            gpc_budget=24,
            num_gpus=4,
        )
        deployment = build_deployment(config, pdf, profile=mobilenet_profile)
        workload = WorkloadConfig(model="mobilenet", rate_qps=200.0, num_queries=60)
        trace = QueryGenerator(workload).generate().with_sla(deployment.sla_target)
        result = deployment.simulator().run(trace)
        assert result.statistics.completed_queries == 60
        assert result.scheduler_name == "my-sched"

    def test_custom_scheduler_receives_policy_spec_options(
        self, pdf, mobilenet_profile
    ):
        config = ServerConfig(
            model="mobilenet",
            partitioning="my-policy",
            scheduler="my-sched",
            gpc_budget=24,
            num_gpus=4,
            scheduler_spec=PolicySpec("my-sched", {"stride": 3}),
        )
        deployment = build_deployment(config, pdf, profile=mobilenet_profile)
        assert deployment.scheduler.stride == 3


class TestFactoryResultValidation:
    def test_partitioner_returning_wrong_type_is_rejected(self, pdf, mobilenet_profile):
        register_partitioner("bad-plan")(lambda context: {"not": "a plan"})
        try:
            config = ServerConfig(
                model="mobilenet", partitioning="bad-plan", gpc_budget=24, num_gpus=4
            )
            with pytest.raises(TypeError, match="PartitionPlan"):
                build_deployment(config, pdf, profile=mobilenet_profile)
        finally:
            PARTITIONERS.unregister("bad-plan")

    def test_scheduler_factory_returning_wrong_type_is_rejected(
        self, pdf, mobilenet_profile
    ):
        register_scheduler("bad-sched")(lambda context: object())
        try:
            config = ServerConfig(
                model="mobilenet", scheduler="bad-sched", gpc_budget=24, num_gpus=4
            )
            with pytest.raises(TypeError, match="Scheduler"):
                build_deployment(config, pdf, profile=mobilenet_profile)
        finally:
            SCHEDULERS.unregister("bad-sched")
