"""One design point, one config.

``ServerConfig`` is the only way to spell a design point, and every policy
tunable lives in its policy's spec.  So for a built-in partitioner x
scheduler pair, the constructor with typed specs, the constructor with
``PolicySpec`` options and ``dataclasses.replace`` of another design point
must build equal configs with one label, and the deployment must run with
exactly the spec's values.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.core.elsa import ElsaScheduler
from repro.core.knee import derive_knees
from repro.core.specs import (
    ElsaSpec,
    FifsSpec,
    HomogeneousSpec,
    LeastLoadedSpec,
    ParisSpec,
    PolicySpec,
    RandomDispatchSpec,
    RandomPartitionSpec,
)
from repro.serving.config import ServerConfig
from repro.serving.deployment import build_deployment

PDF = {1: 0.4, 4: 0.3, 8: 0.2, 32: 0.1}
#: 24 GPCs on 8 A100s: every homogeneous size packs (e.g. 6xGPU(4))
SHAPE = {"gpc_budget": 24, "num_gpus": 8}
seeds = st.none() | st.integers(0, 99)

partitioner_specs = st.one_of(
    st.builds(ParisSpec, knee_threshold=st.floats(0.5, 1.0)),
    st.builds(HomogeneousSpec, gpcs=st.sampled_from([1, 2, 3, 4, 7])),
    st.builds(RandomPartitionSpec, seed=seeds),
)
scheduler_specs = st.one_of(
    st.builds(
        ElsaSpec,
        alpha=st.floats(0.5, 2.5),
        beta=st.floats(0.5, 2.5),
        prefer_smallest=st.booleans(),
    ),
    st.builds(
        FifsSpec,
        idle_preference=st.sampled_from(["round_robin", "smallest", "largest", "random"]),
        seed=seeds,
    ),
    st.just(LeastLoadedSpec()),
    st.builds(RandomDispatchSpec, seed=seeds),
)


@settings(max_examples=30, deadline=None)
@given(partitioner=partitioner_specs, scheduler=scheduler_specs)
def test_every_spelling_gives_one_config_deployed_with_its_tunables(
    partitioner, scheduler, mobilenet_profile
):
    typed = ServerConfig(
        "mobilenet",
        partitioning=partitioner.policy,
        scheduler=scheduler.policy,
        partitioner_spec=partitioner,
        scheduler_spec=scheduler,
        **SHAPE,
    )
    optioned = ServerConfig(
        "mobilenet",
        partitioning=partitioner.policy,
        scheduler=scheduler.policy,
        partitioner_spec=PolicySpec(partitioner.policy, dataclasses.asdict(partitioner)),
        scheduler_spec=PolicySpec(scheduler.policy, dataclasses.asdict(scheduler)),
        **SHAPE,
    )
    # a variant of the default design point, re-pointed at this one
    replaced = dataclasses.replace(
        ServerConfig("mobilenet", **SHAPE),
        partitioning=partitioner.policy,
        scheduler=scheduler.policy,
        partitioner_spec=partitioner,
        scheduler_spec=scheduler,
    )
    assert typed == optioned == replaced
    assert len({c.label() for c in (typed, optioned, replaced)}) == 1
    assert dataclasses.replace(typed) == typed
    assert typed.partitioner_spec == partitioner
    assert typed.scheduler_spec == scheduler

    deployment = build_deployment(typed, PDF, profile=mobilenet_profile)
    sizes = {size for size, count in deployment.plan.counts.items() if count}
    if isinstance(partitioner, HomogeneousSpec):
        assert sizes == {partitioner.gpcs}
        assert typed.label().startswith(f"gpu({partitioner.gpcs})+")
    if isinstance(partitioner, ParisSpec):
        knees = derive_knees(
            mobilenet_profile, sorted(deployment.plan.knees), partitioner.knee_threshold
        )
        assert deployment.plan.knees == {k: knee.batch for k, knee in knees.items()}
    if isinstance(scheduler, ElsaSpec):
        assert isinstance(deployment.scheduler, ElsaScheduler)
        assert deployment.scheduler.estimator.alpha == scheduler.alpha
        assert deployment.scheduler.estimator.beta == scheduler.beta
        assert deployment.scheduler.prefer_smallest == scheduler.prefer_smallest


def test_replacing_the_spec_changes_label_and_plan_together(mobilenet_profile):
    base = ServerConfig(
        "mobilenet",
        partitioning="homogeneous",
        partitioner_spec=HomogeneousSpec(gpcs=2),
        gpc_budget=24,
        num_gpus=4,
    )
    replaced = dataclasses.replace(base, partitioner_spec=HomogeneousSpec(gpcs=3))
    deployment = build_deployment(replaced, PDF, profile=mobilenet_profile)
    assert replaced.label() == "gpu(3)+elsa"
    assert deployment.describe() == "mobilenet: gpu(3)+elsa = 8xGPU(3)"
