"""Fleet composition, packing, budgets and capacity-error diagnostics."""

import pytest

from repro.gpu.architecture import (
    A30,
    A100,
    A100_80GB,
    H100,
    get_architecture,
)
from repro.gpu.fleet import Fleet, FleetServerSpec, as_fleet
from repro.gpu.server import MultiGPUServer, ServerCapacityError


# --------------------------------------------------------------------------- #
# architecture presets
# --------------------------------------------------------------------------- #
class TestArchitecturePresets:
    def test_presets_resolve_by_name(self):
        assert get_architecture("a100") is A100
        assert get_architecture("A100-80GB") is A100_80GB
        assert get_architecture("a30") is A30
        assert get_architecture("h100") is H100
        # full device names also resolve
        assert get_architecture("A100-SXM4-40GB") is A100
        assert get_architecture("H100-SXM5-80GB") is H100

    def test_architecture_passthrough(self):
        assert get_architecture(A30) is A30

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError, match="unknown GPU architecture"):
            get_architecture("tpu-v5")

    def test_a30_geometry(self):
        assert A30.gpc_count == 4
        assert A30.valid_partition_sizes == (1, 2, 4)
        assert A30.memory_gb == 24.0

    def test_h100_outperforms_a100_per_gpc(self):
        assert H100.gpc.peak_flops > 2 * A100.gpc.peak_flops
        assert H100.gpc.memory_bandwidth > A100.gpc.memory_bandwidth
        assert H100.valid_partition_sizes == A100.valid_partition_sizes

    def test_a100_80gb_matches_40gb_compute(self):
        assert A100_80GB.gpc.fp16_tflops == A100.gpc.fp16_tflops
        assert A100_80GB.gpc.memory_bandwidth > A100.gpc.memory_bandwidth


# --------------------------------------------------------------------------- #
# fleet shape
# --------------------------------------------------------------------------- #
class TestFleetShape:
    def test_spec_resolves_architecture_names(self):
        spec = FleetServerSpec(num_gpus=4, architecture="a30")
        assert spec.architecture is A30
        assert spec.effective_gpc_budget == 16

    def test_spec_budget_validation(self):
        with pytest.raises(ValueError, match="gpc_budget"):
            FleetServerSpec(num_gpus=1, architecture="a30", gpc_budget=5)

    def test_spec_counts_are_whole_numbers(self):
        # a fractional server would pool fractional GPCs (2.5 A100s: 17.5)
        with pytest.raises(ValueError, match=r"^num_gpus must be positive and integral, got 2.5$"):
            FleetServerSpec(2.5, "a100")
        with pytest.raises(ValueError, match=r"^num_gpus must be positive and integral, got 0$"):
            FleetServerSpec(0, "a100")
        with pytest.raises(
            ValueError,
            match=r"^gpc_budget must be in \(0, 14\] and integral for 2xA100-SXM4-40GB, got 10.5$",
        ):
            FleetServerSpec(2, "a100", 10.5)
        with pytest.raises(ValueError, match=r"^gpc_budget must be in \(0, 14\]"):
            FleetServerSpec(2, "a100", 15)
        with pytest.raises(ValueError, match="^num_gpus must be positive"):
            Fleet([(2.5, "a100")])
        assert FleetServerSpec(2.0, "a100", 14.0).effective_gpc_budget == 14

    def test_fleet_accepts_tuples_specs_and_servers(self):
        fleet = Fleet(
            [
                (4, "a100", 28),
                FleetServerSpec(num_gpus=4, architecture=A30),
                MultiGPUServer(num_gpus=1, architecture=H100),
            ]
        )
        assert fleet.num_gpus == 9
        assert [a.name for a in fleet.architectures] == [
            "A100-SXM4-40GB",
            "A30",
            "H100-SXM5-80GB",
        ]
        assert fleet.is_heterogeneous
        assert fleet.total_gpcs == 28 + 16 + 7
        assert fleet.budgets_by_architecture() == {
            "A100-SXM4-40GB": 28,
            "A30": 16,
            "H100-SXM5-80GB": 7,
        }

    def test_empty_fleet_raises(self):
        with pytest.raises(ValueError, match="at least one server"):
            Fleet([])

    def test_as_fleet_passthrough_and_coercion(self):
        fleet = Fleet([(8, "a100")])
        assert as_fleet(fleet) is fleet
        assert as_fleet(FleetServerSpec()).num_gpus == 8
        assert as_fleet([(2, "h100")]).total_gpcs == 14

    def test_homogeneous_fleet_is_not_heterogeneous(self):
        fleet = Fleet([(4, "a100"), (4, "a100-40gb")])
        assert not fleet.is_heterogeneous


# --------------------------------------------------------------------------- #
# fleet configuration / packing
# --------------------------------------------------------------------------- #
class TestFleetConfigure:
    def test_single_server_fleet_delegates_verbatim(self):
        counts = {1: 6, 2: 4, 3: 2, 4: 1}
        fleet = Fleet([(8, "a100", 48)])
        server = MultiGPUServer(num_gpus=8, gpc_budget=48)
        assert fleet.configure(counts) == server.configure(counts)

    def test_single_server_fleet_accepts_arch_keyed_counts(self):
        fleet = Fleet([(8, "a100", 48)])
        server = MultiGPUServer(num_gpus=8, gpc_budget=48)
        keyed = {("A100-SXM4-40GB", 1): 6, ("A100-SXM4-40GB", 7): 2}
        assert fleet.configure(keyed) == server.configure({1: 6, 7: 2})

    def test_mixed_fleet_places_per_architecture(self):
        fleet = Fleet([(2, "a100"), (2, "a30")])
        instances = fleet.configure(
            {("A100-SXM4-40GB", 7): 2, ("A30", 2): 4}
        )
        assert len(instances) == 6
        by_arch = {}
        for inst in instances:
            by_arch.setdefault(inst.partition.architecture.name, []).append(inst)
        assert len(by_arch["A100-SXM4-40GB"]) == 2
        assert len(by_arch["A30"]) == 4
        # globally unique ids, ascending by (size, global gpu)
        ids = [inst.instance_id for inst in instances]
        assert ids == sorted(ids) == list(range(6))
        # A30 GPUs get global indices after the A100 server's
        assert {inst.physical_gpu for inst in by_arch["A30"]} <= {2, 3}
        assert fleet.summary() == {
            ("A100-SXM4-40GB", 7): 2,
            ("A30", 2): 4,
        }

    def test_bare_size_counts_rejected_on_mixed_fleet(self):
        fleet = Fleet([(1, "a100"), (1, "a30")])
        with pytest.raises(ValueError, match="keyed by"):
            fleet.configure({1: 3})

    def test_per_server_budgets_respected(self):
        # two A100 servers with tight budgets: 8 GPCs must split 4+4, so
        # seven 1-GPC instances fit but a GPU(7) cannot land anywhere
        fleet = Fleet([(1, "a100", 4), (1, "a100", 4)])
        instances = fleet.configure({("A100-SXM4-40GB", 1): 8})
        assert len(instances) == 8
        fleet2 = Fleet([(1, "a100", 4), (1, "a100", 4)])
        with pytest.raises(ServerCapacityError) as excinfo:
            fleet2.configure({("A100-SXM4-40GB", 7): 1})
        assert excinfo.value.breakdown["per_server"][0]["budget_gpcs"] == 4

    def test_unknown_architecture_raises_with_breakdown(self):
        fleet = Fleet([(1, "a100"), (1, "a30")])
        with pytest.raises(ServerCapacityError) as excinfo:
            fleet.configure({("H100-SXM5-80GB", 1): 1})
        assert excinfo.value.breakdown == {
            "unknown_architectures": ["H100-SXM5-80GB"]
        }

    def test_unsupported_size_for_member_architecture(self):
        fleet = Fleet([(1, "a100"), (1, "a30")])
        with pytest.raises(ServerCapacityError, match="not supported by A30"):
            fleet.configure({("A30", 3): 1})

    def test_over_budget_error_names_servers(self):
        fleet = Fleet([(1, "a100", 7), (1, "a30", 4)])
        with pytest.raises(ServerCapacityError) as excinfo:
            fleet.configure({("A30", 4): 2})
        message = str(excinfo.value)
        assert "A30" in message
        assert "budget" in message
        assert excinfo.value.breakdown["demand_gpcs"] == 8


# --------------------------------------------------------------------------- #
# MultiGPUServer.configure error diagnostics (the satellite bugfix)
# --------------------------------------------------------------------------- #
class TestServerCapacityDiagnostics:
    def test_over_budget_carries_per_size_breakdown(self):
        server = MultiGPUServer(num_gpus=1, gpc_budget=7)
        with pytest.raises(ServerCapacityError) as excinfo:
            server.configure({7: 1, 1: 3})
        err = excinfo.value
        assert "GPU(7)x1=7" in str(err)
        assert err.breakdown["demand_gpcs"] == 10
        assert err.breakdown["budget_gpcs"] == 7
        assert err.breakdown["per_size"] == {"GPU(7)x1": 7, "GPU(1)x3": 3}

    def test_unsupported_size_validated_against_own_architecture(self):
        # GPU(3) is valid on A100 but not on A30: the server must judge the
        # size by *its* architecture, not the A100 default
        server = MultiGPUServer(num_gpus=2, architecture=A30)
        with pytest.raises(ServerCapacityError) as excinfo:
            server.configure({3: 1})
        err = excinfo.value
        assert "A30" in str(err)
        assert err.breakdown["unsupported_sizes"] == [3]
        assert err.breakdown["valid_sizes"] == [1, 2, 4]

    def test_packing_failure_reports_demand(self):
        # 12 GPCs of demand fit the 2x7=14 budget, but three GPU(4)s cannot
        # pack into two 7-GPC devices (one per device, 4+4 > 7)
        server = MultiGPUServer(num_gpus=2)
        with pytest.raises(ServerCapacityError) as excinfo:
            server.configure({4: 3})
        assert excinfo.value.breakdown["per_size"] == {"GPU(4)x3": 12}

    def test_a30_server_configures_with_own_sizes(self):
        server = MultiGPUServer(num_gpus=2, architecture=A30)
        instances = server.configure({4: 1, 2: 2})
        assert [inst.gpcs for inst in instances] == [2, 2, 4]
        assert all(
            inst.partition.architecture is A30 for inst in instances
        )
