"""Per-architecture profile tables: calibration, caching and sharing."""

import pytest

from repro.gpu.architecture import A30, A100, A100_80GB, H100
from repro.perf.profiler import (
    DEFAULT_BATCH_SIZES,
    Profiler,
    cached_profile,
    clear_profile_cache,
    fleet_profiles,
)
from repro.perf.roofline import ARCH_ROOFLINE_PARAMS, RooflineParameters, params_for


class TestRooflineCalibration:
    def test_a100_params_are_the_historical_defaults(self):
        # the entire pinned evaluation rides on this equality
        assert params_for(A100) == RooflineParameters()
        assert params_for(A100_80GB) == RooflineParameters()
        assert params_for(None) == RooflineParameters()

    def test_unknown_architecture_falls_back_to_defaults(self):
        from repro.gpu.architecture import GPUArchitecture

        exotic = GPUArchitecture(name="B300", gpc_count=8,
                                 valid_partition_sizes=(1, 2, 4, 8))
        assert params_for(exotic) == RooflineParameters()

    def test_h100_calibration_differs(self):
        h100 = params_for(H100)
        assert h100.launch_overhead_s < RooflineParameters().launch_overhead_s
        assert h100.activation_dram_fraction < RooflineParameters().activation_dram_fraction
        assert set(ARCH_ROOFLINE_PARAMS) >= {A100.name, A30.name, H100.name}


class TestCachedProfile:
    def test_repeat_requests_share_one_table_object(self):
        first = cached_profile("mobilenet", architecture=A30)
        second = cached_profile("mobilenet", architecture=A30)
        assert first is second

    def test_cache_keys_on_architecture(self):
        a30 = cached_profile("mobilenet", architecture=A30)
        h100 = cached_profile("mobilenet", architecture=H100)
        assert a30 is not h100
        assert a30.partition_sizes == [1, 2, 4]
        assert h100.partition_sizes == [1, 2, 3, 4, 7]

    def test_cache_keys_on_sweep_parameters(self):
        default = cached_profile("mobilenet", architecture=A30)
        narrow = cached_profile("mobilenet", architecture=A30, batch_sizes=(1, 8))
        assert default is not narrow
        assert narrow.batch_sizes(1) == [1, 8]

    def test_default_params_spelled_out_share_one_key(self):
        assert cached_profile("mobilenet") is cached_profile("mobilenet", params=params_for(A100))
        assert cached_profile("mobilenet", architecture=H100) is cached_profile(
            "mobilenet", architecture=H100, params=params_for(H100)
        )

    def test_sweep_spellings_share_one_key(self):
        default = cached_profile("mobilenet")
        spellings = (
            list(DEFAULT_BATCH_SIZES),
            tuple(reversed(DEFAULT_BATCH_SIZES)),
            (*DEFAULT_BATCH_SIZES, 8, 1, 64),
            DEFAULT_BATCH_SIZES,
        )
        for batches in spellings:
            assert cached_profile("mobilenet", batch_sizes=batches) is default
        assert cached_profile("mobilenet", partition_sizes=[7, 4, 3, 2, 1, 1]) is default
        narrow = cached_profile("mobilenet", batch_sizes=[8, 1])
        assert cached_profile("mobilenet", batch_sizes=(1, 8, 8)) is narrow

    def test_values_match_direct_profiling(self):
        cached = cached_profile("shufflenet", architecture=A30)
        from repro.models.registry import get_model

        direct = Profiler(architecture=A30).profile(get_model("shufflenet"))
        assert cached.rows() == direct.rows()

    def test_faster_architectures_profile_faster(self):
        a100 = cached_profile("resnet", architecture=A100)
        h100 = cached_profile("resnet", architecture=H100)
        a30 = cached_profile("resnet", architecture=A30)
        # at a large batch on a 1-GPC slice, H100 < A100 and A30 ~ slightly
        # slower than A100 (weaker per-GPC compute, less bandwidth)
        assert h100.latency(1, 32) < a100.latency(1, 32)
        assert a30.latency(1, 32) > h100.latency(1, 32)

    def test_clear_profile_cache(self):
        first = cached_profile("mobilenet", architecture=A30)
        clear_profile_cache()
        second = cached_profile("mobilenet", architecture=A30)
        assert first is not second
        assert first.rows() == second.rows()


class TestFleetProfiles:
    def test_nested_mapping_shape(self):
        tables = fleet_profiles(["resnet", "bert"], [A100, A30])
        assert set(tables) == {A100.name, A30.name}
        assert set(tables[A100.name]) == {"resnet", "bert"}
        assert tables[A30.name]["resnet"].model_name == "resnet"

    def test_tables_come_from_the_shared_cache(self):
        tables = fleet_profiles(["resnet"], [A30])
        assert tables[A30.name]["resnet"] is cached_profile(
            "resnet", architecture=A30
        )


class TestProfilerArchitectureDefaults:
    def test_profiler_uses_architecture_calibration(self):
        h100_profiler = Profiler(architecture=H100)
        assert h100_profiler.latency_model.params == params_for(H100)

    def test_explicit_params_still_win(self):
        custom = RooflineParameters(launch_overhead_s=1e-6)
        profiler = Profiler(architecture=H100, params=custom)
        assert profiler.latency_model.params is custom

    def test_profiler_rejects_invalid_sizes_for_architecture(self):
        with pytest.raises(ValueError, match="not valid"):
            Profiler(architecture=A30, partition_sizes=(1, 3))
