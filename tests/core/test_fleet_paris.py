"""FleetPlan semantics and the FleetParis heterogeneous generalisation."""

import pytest

from repro.core.paris import (
    FleetParis,
    run_fleet_paris,
    shared_fleet_paris,
    shared_paris,
)
from repro.core.plan import FleetPlan, PartitionPlan
from repro.core.specs import ParisSpec
from repro.gpu.architecture import A30, A100, H100
from repro.perf.profiler import cached_profile

PDF = {1: 0.35, 2: 0.25, 4: 0.2, 8: 0.12, 16: 0.05, 32: 0.03}

A100_NAME = A100.name
A30_NAME = A30.name
H100_NAME = H100.name


@pytest.fixture(scope="module")
def tables():
    return {
        A100_NAME: cached_profile("resnet", architecture=A100),
        A30_NAME: cached_profile("resnet", architecture=A30),
        H100_NAME: cached_profile("resnet", architecture=H100),
    }


# --------------------------------------------------------------------------- #
# FleetPlan validation
# --------------------------------------------------------------------------- #
class TestFleetPlan:
    def test_accounting(self):
        plan = FleetPlan(
            model="m",
            counts={(A100_NAME, 7): 2, (A30_NAME, 2): 3},
            budgets={A100_NAME: 14, A30_NAME: 8},
        )
        assert plan.total_gpcs == 22
        assert plan.used_gpcs == 20
        assert plan.used_gpcs_of(A30_NAME) == 6
        assert plan.total_instances == 5
        assert plan.counts_of(A30_NAME) == {2: 3}
        assert A100_NAME in plan.describe()
        assert "2xGPU(7)" in plan.describe()
        assert plan.to_dict()["counts"][f"{A30_NAME}/GPU(2)"] == 3

    def test_per_architecture_budget_enforced(self):
        with pytest.raises(ValueError, match="exceeding"):
            FleetPlan(
                model="m",
                counts={(A30_NAME, 4): 3},
                budgets={A30_NAME: 8},
            )

    def test_counts_must_reference_budgeted_architectures(self):
        with pytest.raises(ValueError, match="absent from the"):
            FleetPlan(
                model="m",
                counts={(H100_NAME, 1): 1},
                budgets={A100_NAME: 7},
            )


# --------------------------------------------------------------------------- #
# FleetParis
# --------------------------------------------------------------------------- #
class TestFleetParis:
    def test_single_architecture_delegates_to_shared_paris(self, tables):
        """One architecture plans through the memoized ``shared_paris``
        planner and returns its PartitionPlan itself — the same *object*."""
        planner = FleetParis({A100_NAME: tables[A100_NAME]})
        plan = planner.plan(PDF, {A100_NAME: 48})
        assert plan is shared_paris(tables[A100_NAME]).plan(dict(PDF), 48)
        assert isinstance(plan, PartitionPlan)

    def test_hetero_plan_respects_per_architecture_budgets(self, tables):
        plan = run_fleet_paris(tables, PDF, {A100_NAME: 28, A30_NAME: 12, H100_NAME: 7})
        assert isinstance(plan, FleetPlan)
        assert plan.used_gpcs_of(A100_NAME) <= 28
        assert plan.used_gpcs_of(A30_NAME) <= 12
        assert plan.used_gpcs_of(H100_NAME) <= 7
        # every architecture's budget is actually spent on something
        for name in (A100_NAME, A30_NAME, H100_NAME):
            assert plan.counts_of(name), f"{name} got no instances"
        # only sizes valid on each architecture appear
        for size in plan.counts_of(A30_NAME):
            assert size in A30.valid_partition_sizes

    def test_hetero_sub_plans_recorded(self, tables):
        plan = run_fleet_paris(tables, PDF, {A100_NAME: 14, A30_NAME: 8})
        assert set(plan.per_architecture) == {A100_NAME, A30_NAME}
        for sub in plan.per_architecture.values():
            assert isinstance(sub, PartitionPlan)
            assert sub.segments  # Step-B segmentation is retained

    def test_plans_memoized_per_pdf_and_budgets(self, tables):
        planner = shared_fleet_paris(tables)
        budgets = {A100_NAME: 28, A30_NAME: 12, H100_NAME: 7}
        first = planner.plan(PDF, budgets)
        assert planner.plan(dict(PDF), dict(budgets)) is first
        assert shared_fleet_paris(tables).plan(PDF, budgets) is first
        shifted = {b + 1: p for b, p in PDF.items()}
        assert planner.plan(shifted, budgets) is not first

    def test_mixed_model_tables_rejected(self, tables):
        with pytest.raises(ValueError, match="one model"):
            FleetParis(
                {
                    A100_NAME: tables[A100_NAME],
                    A30_NAME: cached_profile("bert", architecture=A30),
                }
            )

    def test_unknown_budget_architecture_rejected(self, tables):
        planner = FleetParis({A100_NAME: tables[A100_NAME]})
        with pytest.raises(ValueError, match="no profile table"):
            planner.plan(PDF, {A30_NAME: 8})

    def test_budget_below_smallest_partition_rejected(self, tables):
        planner = FleetParis(
            {A100_NAME: tables[A100_NAME], A30_NAME: tables[A30_NAME]}
        )
        with pytest.raises(ValueError, match="smaller than"):
            planner.plan(PDF, {A100_NAME: 0, A30_NAME: 8})

    def test_candidate_sizes_intersected_per_architecture(self, tables):
        config = ParisSpec(partition_sizes=(1, 2, 3))
        plan = FleetParis(
            {A100_NAME: tables[A100_NAME], A30_NAME: tables[A30_NAME]},
            config,
        ).plan(PDF, {A100_NAME: 14, A30_NAME: 8})
        # A30 has no GPU(3): its candidates reduce to (1, 2)
        assert set(plan.counts_of(A30_NAME)) <= {1, 2}
        assert set(plan.counts_of(A100_NAME)) <= {1, 2, 3}

    def test_disjoint_candidate_sizes_raise(self, tables):
        config = ParisSpec(partition_sizes=(3,))
        planner = FleetParis(
            {A100_NAME: tables[A100_NAME], A30_NAME: tables[A30_NAME]},
            config,
        )
        with pytest.raises(ValueError, match="none of the candidate sizes"):
            planner.plan(PDF, {A100_NAME: 14, A30_NAME: 8})
