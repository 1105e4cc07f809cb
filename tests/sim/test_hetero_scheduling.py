"""Mixed-architecture scheduling: the right profile table per instance.

Synthetic two-architecture servers with hand-written per-architecture
profile tables, so the tests can reason about exact service times — e.g. "a
query takes 1.0 s on the A-GPU's GPU(1) but only 0.2 s on the B-GPU's
GPU(1)" — and pin both the workers' execution model and ELSA's
architecture-aware decisions.
"""

import pytest

from repro.core.elsa import ElsaScheduler
from repro.core.schedulers import LeastLoadedScheduler
from repro.gpu.architecture import A30, A100
from repro.gpu.partition import GPUPartition, PartitionInstance
from repro.sim.cluster import InferenceServerSimulator
from tests.sim.helpers import MODEL, constant_profile, make_trace

SLOW = A100  # plays the "slow generation" via its table below
FAST = A30

#: Same model, same partition sizes — radically different per-architecture
#: speeds.  GPU(1) on the "fast" architecture beats even GPU(2) on the slow
#: one, which is exactly the situation a gpcs-keyed oracle gets wrong.
SLOW_TABLE = constant_profile({1: 1.0, 2: 0.6})
FAST_TABLE = constant_profile({1: 0.2, 2: 0.1})

ARCH_PROFILES = {
    SLOW.name: {MODEL: SLOW_TABLE},
    FAST.name: {MODEL: FAST_TABLE},
}


def mixed_instances():
    """One GPU(1) of each architecture; slow arch gets the lower id."""
    return [
        PartitionInstance(instance_id=0, partition=GPUPartition(1, SLOW), physical_gpu=0),
        PartitionInstance(instance_id=1, partition=GPUPartition(1, FAST), physical_gpu=1),
    ]


def build_simulator(scheduler, instances=None):
    return InferenceServerSimulator(
        instances=instances or mixed_instances(),
        profiles={MODEL: SLOW_TABLE},
        scheduler=scheduler,
        arch_profiles={k: dict(v) for k, v in ARCH_PROFILES.items()},
    )


def make_elsa(**kwargs):
    return ElsaScheduler(
        profile=SLOW_TABLE,
        arch_profiles=ARCH_PROFILES,
        **kwargs,
    )


class TestPerArchitectureExecution:
    def test_workers_execute_through_their_own_tables(self):
        # one query lands on each instance (ELSA Step A fills the slow one
        # first, the 1.5 s SLA pushes the second onto the fast one); their
        # service times must come from different tables
        simulator = build_simulator(make_elsa())
        trace = make_trace([(0.0, 1), (0.0, 1)], sla=1.5)
        result = simulator.run(trace)
        finish_by_instance = {
            q.instance_id: q.finish_time - q.start_time for q in result.queries
        }
        assert finish_by_instance[0] == 1.0  # slow architecture
        assert finish_by_instance[1] == 0.2  # fast architecture

    def test_unknown_instance_architecture_rejected(self):
        from repro.gpu.architecture import H100

        alien = [
            PartitionInstance(
                instance_id=0, partition=GPUPartition(1, H100), physical_gpu=0
            )
        ]
        with pytest.raises(ValueError, match="absent from"):
            build_simulator(make_elsa(), instances=alien)


class TestHeteroElsa:
    def test_step_b_picks_fastest_completion_across_architectures(self):
        # No SLA pressure handled by Step B (no sla_target): both instances
        # idle, same gpcs — a gpcs-keyed estimator would see a tie and pick
        # instance 0; the architecture-aware one must pick the fast GPU.
        simulator = build_simulator(make_elsa())
        result = simulator.run(make_trace([(0.0, 1)]))
        assert result.queries[0].instance_id == 1

    def test_step_a_prefers_least_capable_slice_meeting_sla(self):
        # With a roomy SLA both groups predict success; Step A must park the
        # query on the *slow* architecture (the generalisation of
        # smallest-partition-first), keeping the fast slice free.
        simulator = build_simulator(make_elsa())
        result = simulator.run(make_trace([(0.0, 1)], sla=10.0))
        assert result.queries[0].instance_id == 0

    def test_step_a_falls_through_to_fast_architecture_under_tight_sla(self):
        # SLA of 0.5 s: the slow GPU(1) (1.0 s) cannot meet it, the fast one
        # (0.2 s) can.
        simulator = build_simulator(make_elsa())
        result = simulator.run(make_trace([(0.0, 1)], sla=0.5))
        assert result.queries[0].instance_id == 1

    def test_wait_estimates_use_per_architecture_tables(self):
        # Two queries, zero gap, tight-ish SLA.  The first fills the slow
        # GPU?  No: SLA 1.5 s lets the slow one serve (1.0 < 1.5).  The
        # second query then sees T_wait=1.0 on the slow instance which
        # breaks its SLA there, so it must go to the fast instance.
        simulator = build_simulator(make_elsa())
        result = simulator.run(make_trace([(0.0, 1), (0.0, 1)], sla=1.5))
        assert [q.instance_id for q in result.queries] == [0, 1]

    def test_prefer_largest_ablation_reverses_step_a(self):
        simulator = build_simulator(make_elsa(prefer_smallest=False))
        result = simulator.run(make_trace([(0.0, 1)], sla=10.0))
        assert result.queries[0].instance_id == 1

    def test_single_arch_mapping_degenerates_to_classic(self):
        scheduler = ElsaScheduler(
            profile=SLOW_TABLE, arch_profiles={SLOW.name: {MODEL: SLOW_TABLE}}
        )
        assert not scheduler.estimator.heterogeneous


class TestHeteroLeastLoaded:
    def test_backlog_judged_through_each_architecture(self):
        # Load the fast instance with one query (0.2 s of work) and the slow
        # one with nothing; the next arrival must still pick the fast
        # instance (0.2 s wait + nothing queued on slow?).  Check the
        # decision sequence: q0 -> fast? least-loaded ties at 0 work; the
        # tie-break is the lower instance id (slow).  q1 then sees 1.0 s of
        # work on slow vs 0 on fast and must pick fast, and q2 sees
        # 1.0 vs 0.2 and must pick fast again — a gpcs-keyed oracle
        # (0.6 @ GPU(1)... same table both) would keep alternating.
        simulator = build_simulator(LeastLoadedScheduler())
        result = simulator.run(make_trace([(0.0, 1), (0.0, 1), (0.0, 1)]))
        assert [q.instance_id for q in result.queries] == [0, 1, 1]
