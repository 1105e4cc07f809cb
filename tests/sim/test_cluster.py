"""Tests for the inference-server simulator."""

import gc
import weakref

import pytest

from repro.analysis.experiments import ExperimentSettings
from repro.core.elsa import ElsaScheduler
from repro.core.schedulers import FifsScheduler, LeastLoadedScheduler
from repro.sim.cluster import InferenceServerSimulator
from repro.workload.generator import QueryGenerator, WorkloadConfig
from tests.sim.helpers import MODEL, constant_profile, linear_profile, make_instances, make_trace


def make_simulator(sizes=(1, 7), latencies=None, scheduler=None, **kwargs):
    latencies = latencies or {1: 2.0, 7: 1.0}
    profile = constant_profile(latencies)
    return InferenceServerSimulator(
        instances=make_instances(sizes),
        profiles={MODEL: profile},
        scheduler=scheduler or FifsScheduler(),
        **kwargs,
    )


class TestConstruction:
    def test_requires_instances_and_profiles(self):
        profile = constant_profile({1: 1.0})
        with pytest.raises(ValueError):
            InferenceServerSimulator([], {MODEL: profile}, FifsScheduler())
        with pytest.raises(ValueError):
            InferenceServerSimulator(make_instances([1]), {}, FifsScheduler())

    def test_unknown_model_raises_on_estimate(self):
        simulator = make_simulator()
        with pytest.raises(KeyError):
            simulator.estimate_latency("unknown", 1, 1)

    def test_invalid_frontend_capacity_rejected(self):
        with pytest.raises(ValueError):
            make_simulator(frontend_capacity_qps=0.0)


class TestSingleWorkerBehaviour:
    def test_queries_serialise_on_one_partition(self):
        simulator = make_simulator(sizes=(7,), latencies={7: 1.0})
        trace = make_trace([(0.0, 1), (0.0, 1), (0.0, 1)])
        result = simulator.run(trace)
        finishes = sorted(q.finish_time for q in result.queries)
        assert finishes == pytest.approx([1.0, 2.0, 3.0])
        assert result.statistics.completed_queries == 3

    def test_idle_gaps_are_respected(self):
        simulator = make_simulator(sizes=(7,), latencies={7: 1.0})
        trace = make_trace([(0.0, 1), (5.0, 1)])
        result = simulator.run(trace)
        second = [q for q in result.queries if q.query_id == 1][0]
        assert second.start_time == pytest.approx(5.0)
        assert second.latency == pytest.approx(1.0)

    def test_all_queries_complete(self):
        simulator = make_simulator(sizes=(1, 7))
        trace = make_trace([(0.1 * i, 1 + i % 4) for i in range(50)])
        result = simulator.run(trace)
        assert result.statistics.completed_queries == 50
        assert all(q.completed for q in result.queries)


class TestFifsBehaviour:
    def test_waits_in_central_queue_until_idle(self):
        # One partition, two simultaneous queries: the second waits.
        simulator = make_simulator(sizes=(7,), latencies={7: 2.0})
        trace = make_trace([(0.0, 1), (0.0, 1)])
        result = simulator.run(trace)
        waits = sorted(q.queueing_delay for q in result.queries)
        assert waits == pytest.approx([0.0, 2.0])

    def test_uses_idle_partition_immediately(self):
        simulator = make_simulator(sizes=(1, 7), latencies={1: 2.0, 7: 2.0})
        trace = make_trace([(0.0, 1), (0.0, 1)])
        result = simulator.run(trace)
        assert {q.instance_id for q in result.queries} == {0, 1}
        assert all(q.queueing_delay == 0.0 for q in result.queries)


class TestReplayIsolation:
    def test_trace_is_not_mutated(self):
        simulator = make_simulator()
        spec = [(0.0, 1), (1.0, 2)]
        trace = make_trace(spec)
        simulator.run(trace)
        assert trace == make_trace(spec)

    def test_same_trace_reusable_across_runs(self):
        simulator = make_simulator()
        trace = make_trace([(0.0, 1), (0.5, 2), (1.0, 4)])
        first = simulator.run(trace)
        second = simulator.run(trace)
        assert first.statistics.latency.p95 == pytest.approx(
            second.statistics.latency.p95
        )


class TestSchedulerLifetime:
    @pytest.mark.parametrize("policy", ["elsa", "least-loaded"])
    def test_no_scheduler_state_outlives_the_run(self, policy):
        # One scheduler object serves every simulator a deployment builds;
        # an index it kept past finish() would pin the run's workers (and
        # the columns they write) while the next run allocates its own.
        deployment = ExperimentSettings().build("mobilenet", "paris", policy)
        trace = QueryGenerator(
            WorkloadConfig(
                model="mobilenet",
                rate_qps=3000.0,
                num_queries=200,
                seed=4,
                sla_target=deployment.sla_target,
            )
        ).generate()
        simulator = deployment.simulator()
        simulator.begin()
        simulator.submit_trace(trace)
        worker = weakref.ref(simulator.workers[0])
        result = simulator.finish()
        assert result.statistics.completed_queries == 200
        del result, simulator
        gc.collect()
        assert worker() is None
        assert deployment.scheduler.name == policy


class TestChangeFeed:
    def test_recovered_straggler_is_rekeyed(self):
        # Worker 0 takes query 2 while slowed 3x, so its queued work counts
        # 3.0; back at normal speed it counts 1.0 and is the least loaded
        # (wait 1.6 against worker 1's 2.6) when query 5 arrives.  Without
        # the slowdown in the change feed, ELSA would still see 3.0.
        latencies = {1: 1.0}
        simulator = make_simulator(
            sizes=(1, 1),
            latencies=latencies,
            scheduler=ElsaScheduler(constant_profile(latencies)),
        )
        simulator.begin()
        simulator.submit_trace(
            make_trace([(0.0, 1), (0.0, 1), (0.2, 1), (0.2, 1), (0.2, 1), (0.4, 1)], sla=10.0)
        )
        simulator.run_until(0.1)
        simulator.set_worker_slowdown(0, 3.0)
        simulator.run_until(0.3)
        simulator.set_worker_slowdown(0, 1.0)
        result = simulator.finish()
        placed = [q.instance_id for q in result.queries]
        assert placed == [0, 1, 0, 1, 1, 0]


class TestSchedulersOnCluster:
    def test_least_loaded_balances(self):
        simulator = make_simulator(
            sizes=(7, 7), latencies={7: 1.0}, scheduler=LeastLoadedScheduler()
        )
        trace = make_trace([(0.0, 1)] * 4)
        result = simulator.run(trace)
        assert set(result.per_instance_queries.values()) == {2}

    def test_execution_noise_changes_latencies_but_not_completion(self):
        noisy = make_simulator(execution_noise_std=0.2, seed=5)
        clean = make_simulator()
        trace = make_trace([(0.2 * i, 2) for i in range(20)])
        noisy_result = noisy.run(trace)
        clean_result = clean.run(trace)
        assert noisy_result.statistics.completed_queries == 20
        assert clean_result.statistics.completed_queries == 20
        assert noisy_result.statistics.latency.mean != pytest.approx(
            clean_result.statistics.latency.mean
        )


class TestFrontendBottleneck:
    def test_frontend_limits_dispatch_rate(self):
        # 10 simultaneous arrivals, frontend can dispatch 1 query per second,
        # plenty of workers: completion is staggered by the frontend.
        simulator = make_simulator(
            sizes=(7,) * 1, latencies={7: 0.001}, frontend_capacity_qps=1.0
        )
        trace = make_trace([(0.0, 1)] * 10)
        result = simulator.run(trace)
        makespan = result.statistics.makespan
        assert makespan >= 9.0  # last query cannot start before ~9 s
        # 10 arrivals + 10 completions + one slot event per queued admission
        assert simulator.events_processed == 29

    def test_no_frontend_limit_by_default(self):
        simulator = make_simulator(sizes=(7,), latencies={7: 0.001})
        trace = make_trace([(0.0, 1)] * 10)
        result = simulator.run(trace)
        assert result.statistics.makespan < 0.1


class TestLinearProfiles:
    def test_larger_batches_take_longer(self):
        profile = linear_profile({7: 0.5})
        simulator = InferenceServerSimulator(
            instances=make_instances([7]),
            profiles={MODEL: profile},
            scheduler=FifsScheduler(),
        )
        trace = make_trace([(0.0, 1), (10.0, 8)])
        result = simulator.run(trace)
        small = [q for q in result.queries if q.batch == 1][0]
        large = [q for q in result.queries if q.batch == 8][0]
        assert small.service_time == pytest.approx(0.5)
        assert large.service_time == pytest.approx(4.0)


class TestFastPathBookkeeping:
    def test_events_processed_counts_arrivals_and_completions(self):
        simulator = make_simulator(sizes=(7,), latencies={7: 1.0})
        trace = make_trace([(0.0, 1), (0.5, 1), (1.0, 1)])
        simulator.run(trace)
        assert simulator.events_processed == 6  # 3 arrivals + 3 completions

    def test_reconfigured_utilization_uses_active_spans(self):
        """Fully busy worker retired halfway through the run reports ~1.0."""
        simulator = make_simulator(sizes=(7,), latencies={7: 1.0})
        simulator.begin()
        # Keep the single GPU(7) worker busy back to back over [0, 5].
        simulator.submit_trace(make_trace([(float(t), 1) for t in range(5)]))
        simulator.run_until(5.0)
        old_id = simulator.workers[0].instance_id
        simulator.reconfigure(make_instances((7,)), reconfig_cost=1.0)
        # New generation online at t=6; keep it busy over [6, 10].
        for query in make_trace([(6.0 + t, 1) for t in range(4)]):
            simulator.submit(query)
        result = simulator.finish()
        new_id = result.reconfigurations[0].new_instance_ids[0]
        utilization = result.statistics.utilization.per_instance
        assert result.statistics.makespan == pytest.approx(10.0)
        assert utilization[old_id] == pytest.approx(1.0)
        assert utilization[new_id] == pytest.approx(1.0)
        assert result.statistics.utilization.mean == pytest.approx(1.0)
