"""Tests for the latency-bounded throughput sweep."""

import os
import time

import pytest

from repro.analysis import sweep as sweep_module
from repro.analysis.sweep import (
    ParallelRunner,
    capacity_estimate,
    latency_bounded_throughput,
    measure_design,
    point_seed,
    sweep_rates,
)
from repro.serving.config import ServerConfig
from repro.serving.deployment import build_deployment
from repro.sim.cluster import InferenceServerSimulator
from repro.workload.distributions import LogNormalBatchDistribution
from repro.workload.generator import QueryGenerator, WorkloadConfig


@pytest.fixture(scope="module")
def deployment(mobilenet_profile):
    config = ServerConfig(
        model="mobilenet",
        partitioning="homogeneous",
        scheduler="fifs",
        gpc_budget=28,
        num_gpus=4,
    )
    pdf = LogNormalBatchDistribution(sigma=0.9, median=8, max_batch=32).pdf()
    return build_deployment(config, pdf, profile=mobilenet_profile)


@pytest.fixture(scope="module")
def workload():
    return WorkloadConfig(model="mobilenet", rate_qps=1.0, num_queries=300, seed=0)


class TestMeasureDesign:
    def test_returns_consistent_statistics(self, deployment, workload):
        result = measure_design(deployment, workload, rate_qps=200.0)
        assert result.rate_qps == 200.0
        assert result.throughput_qps > 0
        assert result.p95_latency > 0
        assert 0 <= result.sla_violation_rate <= 1

    def test_replays_its_fresh_trace_without_copying_it(
        self, deployment, workload, spy
    ):
        runs = spy(InferenceServerSimulator, "run")
        generated = spy(QueryGenerator, "generate")
        result = measure_design(deployment, workload, rate_qps=300.0, seed=3)
        (call,) = generated
        (run,) = runs
        assert run.args[1] is call.result
        stats = deployment.simulator(seed=3).run(call.result).statistics
        assert (
            result.throughput_qps,
            result.p95_latency,
            result.mean_latency,
            result.sla_violation_rate,
            result.mean_utilization,
        ) == (
            stats.throughput_qps,
            stats.latency.p95,
            stats.latency.mean,
            stats.latency.sla_violation_rate,
            stats.utilization.mean,
        )

    def test_invalid_rate_rejected(self, deployment, workload):
        with pytest.raises(ValueError):
            measure_design(deployment, workload, rate_qps=0.0)

    def test_higher_load_higher_tail_latency(self, deployment, workload):
        light = measure_design(deployment, workload, rate_qps=100.0)
        capacity = capacity_estimate(deployment, workload)
        heavy = measure_design(deployment, workload, rate_qps=3.0 * capacity)
        assert heavy.p95_latency > light.p95_latency


class TestCapacityEstimate:
    def test_scales_with_instance_count(self, mobilenet_profile, workload):
        pdf = LogNormalBatchDistribution(max_batch=32).pdf()
        small = build_deployment(
            ServerConfig(
                model="mobilenet",
                partitioning="homogeneous",
                gpc_budget=14,
                num_gpus=2,
            ),
            pdf,
            profile=mobilenet_profile,
        )
        large = build_deployment(
            ServerConfig(
                model="mobilenet",
                partitioning="homogeneous",
                gpc_budget=28,
                num_gpus=4,
            ),
            pdf,
            profile=mobilenet_profile,
        )
        assert capacity_estimate(large, workload) > capacity_estimate(small, workload)


class TestSweepAndSearch:
    def test_sweep_returns_one_point_per_rate(self, deployment, workload):
        points = sweep_rates(deployment, workload, rates=[100.0, 500.0])
        assert len(points) == 2
        assert points[0].rate_qps == 100.0

    def test_latency_bounded_throughput_respects_bound(self, deployment, workload):
        result = latency_bounded_throughput(
            deployment, workload, iterations=6
        )
        assert result.p95_latency <= deployment.sla_target * 1.05

    def test_bound_none_uses_sla_target(self, deployment, workload):
        explicit = latency_bounded_throughput(
            deployment, workload, latency_bound=deployment.sla_target, iterations=5
        )
        implicit = latency_bounded_throughput(deployment, workload, iterations=5)
        assert explicit.rate_qps == pytest.approx(implicit.rate_qps)

    def test_infeasible_bound_returns_low_probe(self, deployment, workload):
        result = latency_bounded_throughput(
            deployment, workload, latency_bound=1e-6, iterations=4
        )
        assert result.p95_latency > 1e-6  # signals infeasibility

    def test_invalid_bound_rejected(self, deployment, workload):
        with pytest.raises(ValueError):
            latency_bounded_throughput(deployment, workload, latency_bound=0.0)


class TestMultiModelSweep:
    @pytest.fixture(scope="class")
    def multi_deployment(self, mobilenet_profile, resnet_profile):
        config = ServerConfig(
            model="resnet",
            extra_models=("mobilenet",),
            gpc_budget=48,
            num_gpus=8,
        )
        pdf = LogNormalBatchDistribution(sigma=0.9, median=8, max_batch=32).pdf()
        return build_deployment(
            config,
            pdf,
            profiles={"resnet": resnet_profile, "mobilenet": mobilenet_profile},
        )

    def test_measure_design_uses_workload_models_own_sla(self, multi_deployment):
        # a secondary model is judged against its own derived SLA, not the
        # primary's (which would inflate its latency-bounded throughput)
        secondary = WorkloadConfig(
            model="mobilenet", rate_qps=1.0, num_queries=100, seed=0
        )
        result = measure_design(multi_deployment, secondary, rate_qps=100.0)
        assert result.sla_target == pytest.approx(
            multi_deployment.sla_target_for("mobilenet")
        )
        assert result.sla_target < multi_deployment.sla_target  # resnet's

    def test_bounded_search_bounds_on_the_workloads_model(self, multi_deployment):
        secondary = WorkloadConfig(
            model="mobilenet", rate_qps=1.0, num_queries=100, seed=0
        )
        result = latency_bounded_throughput(
            multi_deployment, secondary, iterations=3
        )
        # the search bound (and the stamped per-query SLA) is the workload
        # model's own target, not the primary's
        assert result.sla_target == pytest.approx(
            multi_deployment.sla_target_for("mobilenet")
        )


def shared_double(shared, value):
    return shared * value


class TestParallelRunner:
    def test_serial_map_preserves_order(self):
        runner = ParallelRunner(n_jobs=1)
        assert runner.map_shared(shared_double, 2, [3, 1, 2]) == [6, 2, 4]

    def test_parallel_map_matches_serial(self):
        work = list(range(8))
        serial = ParallelRunner(n_jobs=1).map_shared(shared_double, 2, work)
        with ParallelRunner(n_jobs=2) as runner:
            parallel = runner.map_shared(shared_double, 2, work)
        assert parallel == serial

    def test_none_and_zero_use_every_core(self):
        import os

        cores = os.cpu_count() or 1
        assert ParallelRunner(n_jobs=None).effective_jobs == cores
        assert ParallelRunner(n_jobs=0).effective_jobs == cores

    def test_single_item_runs_inline(self):
        runner = ParallelRunner(n_jobs=4)
        assert runner.map_shared(shared_double, 2, [21]) == [42]
        assert not runner.warm


class TestPointSeeds:
    def test_default_stride_keeps_points_comparable(self):
        assert [point_seed(7, i) for i in range(4)] == [7, 7, 7, 7]

    def test_stride_decorrelates_points_deterministically(self):
        assert [point_seed(7, i, seed_stride=3) for i in range(4)] == [7, 10, 13, 16]


class TestParallelSweep:
    def test_results_identical_for_any_n_jobs(self, deployment, workload):
        rates = [100.0, 400.0, 800.0]
        serial = sweep_rates(deployment, workload, rates, seed=0, n_jobs=1)
        parallel = sweep_rates(deployment, workload, rates, seed=0, n_jobs=2)
        assert parallel == serial

    def test_shared_runner_accepted(self, deployment, workload):
        runner = ParallelRunner(n_jobs=2)
        points = sweep_rates(deployment, workload, [100.0, 200.0], runner=runner)
        assert [p.rate_qps for p in points] == [100.0, 200.0]


class TestBracketedSearch:
    def test_expands_past_an_undersized_ceiling(self, deployment, workload):
        capacity = capacity_estimate(deployment, workload)
        undersized = capacity / 16.0
        result = latency_bounded_throughput(
            deployment, workload, max_rate=undersized, iterations=5
        )
        # the old search could never answer above max_rate; the bracketed
        # search doubles out of an undersized ceiling before bisecting
        assert result.rate_qps > undersized
        assert result.p95_latency <= deployment.sla_target

    def test_zero_expansions_restores_trusted_ceiling(self, deployment, workload):
        capacity = capacity_estimate(deployment, workload)
        undersized = capacity / 16.0
        result = latency_bounded_throughput(
            deployment, workload, max_rate=undersized, iterations=5, max_expansions=0
        )
        assert result.rate_qps <= undersized


def worker_placement(delay, _index):
    time.sleep(delay)
    return os.getpid(), sorted(os.sched_getaffinity(0))


class TestWarmSharedPool:
    def test_map_shared_serial_matches_inline(self):
        runner = ParallelRunner(n_jobs=1)
        assert runner.map_shared(shared_double, 3, [1, 2, 4]) == [3, 6, 12]
        assert not runner.warm

    def test_map_shared_spawned_pool_matches_serial(self):
        work = list(range(8))
        serial = ParallelRunner(n_jobs=1).map_shared(shared_double, 5, work)
        with ParallelRunner(n_jobs=2, force_spawn=True) as runner:
            parallel = runner.map_shared(shared_double, 5, work)
            assert runner.warm  # the pool stays alive for the next call
            again = runner.map_shared(shared_double, 5, work)
        assert parallel == serial
        assert again == serial
        assert not runner.warm  # context exit closed it

    def test_pool_respawns_when_shared_state_changes(self):
        with ParallelRunner(n_jobs=2, force_spawn=True) as runner:
            assert runner.map_shared(shared_double, 2, [1, 2]) == [2, 4]
            assert runner.map_shared(shared_double, 10, [1, 2]) == [10, 20]

    def test_single_core_or_tiny_work_skips_the_spawn(self, monkeypatch):
        import os as _os

        runner = ParallelRunner(n_jobs=4)
        monkeypatch.setattr(_os, "cpu_count", lambda: 1)
        assert runner.map_shared(shared_double, 2, [1, 2, 3]) == [2, 4, 6]
        assert not runner.warm  # 1 core: no pool, no spawn tax
        monkeypatch.setattr(_os, "cpu_count", lambda: 8)
        assert runner.map_shared(shared_double, 2, [1, 2, 3], work_hint=10.0) == [2, 4, 6]
        assert not runner.warm  # per-point work below min_fork_work
        runner.close()

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform"
    )
    def test_a_pool_that_owns_every_cpu_pins_one_worker_per_cpu(self):
        host = os.sched_getaffinity(0)
        allowed = sorted(host)[:2]
        os.sched_setaffinity(0, allowed)  # a 2-job pool now owns every CPU
        try:
            with ParallelRunner(n_jobs=2, force_spawn=True) as runner:
                # long enough that the second task goes to the other worker
                placements = dict(runner.map_shared(worker_placement, 0.2, [0, 1]))
            assert sorted(os.sched_getaffinity(0)) == allowed  # the parent stays free
        finally:
            os.sched_setaffinity(0, host)
        for cpus in placements.values():
            assert len(cpus) == 1 and cpus[0] in allowed
        if len(placements) == 2 and len(allowed) == 2:
            assert len({cpus[0] for cpus in placements.values()}) == 2

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform"
    )
    def test_a_pool_smaller_than_the_cpu_set_is_left_to_the_kernel(self, monkeypatch):
        allowed = len(os.sched_getaffinity(0))
        assert sweep_module._owns_every_cpu(allowed)
        assert not sweep_module._owns_every_cpu(allowed - 1)
        # on a host with more CPUs than jobs: no worker is pinned
        monkeypatch.setattr(sweep_module, "_owns_every_cpu", lambda jobs: False)
        with ParallelRunner(n_jobs=2, force_spawn=True) as runner:
            placements = runner.map_shared(worker_placement, 0.0, [0, 1])
        assert all(cpus == sorted(os.sched_getaffinity(0)) for _, cpus in placements)

    def test_warm_runner_pickles_without_its_pool(self):
        # regression (CONC002): a runner referenced from shared state must
        # not drag its live ProcessPoolExecutor across the pool boundary —
        # the copy arrives cold and stays fully usable
        import pickle

        with ParallelRunner(n_jobs=2, force_spawn=True) as runner:
            assert runner.map_shared(shared_double, 2, [1, 2]) == [2, 4]
            assert runner.warm
            clone = pickle.loads(pickle.dumps(runner))
            assert not clone.warm  # the pool did not travel
            assert clone.n_jobs == runner.n_jobs
            assert clone.map_shared(shared_double, 2, [3, 4]) == [6, 8]
            clone.close()
            assert runner.warm  # pickling left the original's pool alone

    def test_sweep_with_warm_runner_matches_serial(self, deployment, workload):
        rates = [100.0, 400.0, 800.0]
        serial = sweep_rates(deployment, workload, rates, seed=0, n_jobs=1)
        with ParallelRunner(n_jobs=2, force_spawn=True) as runner:
            first = sweep_rates(deployment, workload, rates, seed=0, runner=runner)
            second = sweep_rates(deployment, workload, rates, seed=0, runner=runner)
        assert first == serial
        assert second == serial
