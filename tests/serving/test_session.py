"""Tests for the streaming ServingSession API."""

import pytest

from repro.core.triggers import TriggerDecision
from repro.serving.config import ServerConfig
from repro.serving.session import ServingSession
from repro.sim.cluster import InferenceServerSimulator
from repro.sim.hooks import EventLog, QueryCompleted
from repro.workload.generator import QueryGenerator, WorkloadConfig
from repro.workload.scenario import Phase, Scenario


@pytest.fixture(scope="module")
def config():
    return ServerConfig(model="mobilenet", gpc_budget=24, num_gpus=4)


@pytest.fixture(scope="module")
def deployment(config, profiler):
    session = ServingSession(config, profiler=profiler)
    return session.deploy(
        QueryGenerator(
            WorkloadConfig(model="mobilenet", rate_qps=100.0, num_queries=100)
        ).batch_pdf()
    )


def small_scenario(median_a=2.0, median_b=12.0, rate=300.0, duration=6.0, seed=5):
    return Scenario(
        name="drift",
        model="mobilenet",
        phases=(
            Phase(duration=duration, rate_qps=rate, median_batch=median_a),
            Phase(duration=duration, rate_qps=rate, median_batch=median_b),
        ),
        seed=seed,
    )


class TestConstruction:
    def test_accepts_only_a_server_config(self, profiler):
        config = ServerConfig(model="mobilenet", gpc_budget=24, num_gpus=4)
        assert ServingSession(config, profiler=profiler).config is config

        class Buildable:
            """Anything with a build() method is still no design point."""

            def build(self):
                return config

        for other in (Buildable(), {"model": "mobilenet"}):
            with pytest.raises(
                TypeError, match=f"^config must be a ServerConfig, got {type(other).__name__}$"
            ):
                ServingSession(other, profiler=profiler)

    def test_rejects_garbage_config(self):
        with pytest.raises(TypeError):
            ServingSession(42)

    def test_validation(self, config, profiler):
        with pytest.raises(ValueError):
            ServingSession(config, profiler=profiler, batch_pdf={})
        with pytest.raises(ValueError):
            ServingSession(config, profiler=profiler, reconfig_cost=-1.0)
        with pytest.raises(ValueError):
            ServingSession(config, profiler=profiler, window=0.0)
        with pytest.raises(ValueError):
            ServingSession(config, profiler=profiler, trigger_interval=0.0)
        with pytest.raises(ValueError):
            ServingSession(
                config, profiler=profiler, window=None, triggers=["pdf-drift"]
            )


class TestOneShotFacade:
    def test_service_summary_bit_identical_to_direct_simulator(self, profiler):
        """A one-shot (``window=None``) session run must match the raw
        simulator replay exactly (not approximately) on a fixed seed."""
        workload = WorkloadConfig(
            model="mobilenet", rate_qps=400.0, num_queries=400, seed=11
        )
        generator = QueryGenerator(workload)
        session = ServingSession(
            ServerConfig(model="mobilenet", gpc_budget=24, num_gpus=4),
            profiler=profiler,
            window=None,
        )
        deployment = session.deploy(generator.batch_pdf())
        trace = generator.generate()
        result = session.run(trace, seed=7)

        # reproduce the run by hand: same trace, same SLA attachment, same
        # simulator — byte-for-byte equal summaries expected
        direct = deployment.simulator(seed=7).run(
            trace.with_sla(deployment.sla_target_for(workload.model))
        )

        assert result.simulation.statistics == direct.statistics
        assert result.simulation.per_instance_queries == direct.per_instance_queries
        expected = {
            "p95_latency_ms": direct.statistics.latency.p95 * 1e3,
            "mean_latency_ms": direct.statistics.latency.mean * 1e3,
            "throughput_qps": direct.statistics.throughput_qps,
            "sla_violation_rate": direct.statistics.latency.sla_violation_rate,
            "mean_utilization": direct.statistics.utilization.mean,
            "sla_target_ms": deployment.sla_target * 1e3,
            "reconfigurations": 0.0,
            "total_downtime_s": 0.0,
        }
        assert result.summary() == expected  # exact float equality, no approx


class TestSessionRuns:
    def test_run_workload_config_deploys_lazily(self, config, profiler):
        session = ServingSession(config, profiler=profiler)
        workload = WorkloadConfig(
            model="mobilenet", rate_qps=200.0, num_queries=150, seed=2
        )
        result = session.run(workload)
        assert session.planned_pdf is not None
        assert result.simulation.statistics.completed_queries == 150
        assert result.windows  # windowed metrics on by default
        assert sum(w.completions for w in result.windows) == 150
        assert session.last_result is result

    def test_scenario_seed_is_respected(self, deployment):
        session = ServingSession.from_deployment(deployment, window=None)
        a = session.run(small_scenario(rate=60.0, duration=3.0, seed=7))
        b = session.run(small_scenario(rate=60.0, duration=3.0, seed=8))
        c = session.run(small_scenario(rate=60.0, duration=3.0, seed=7))
        arrivals = lambda r: [q.arrival_time for q in r.simulation.queries]  # noqa: E731
        assert arrivals(a) == arrivals(c)  # same Scenario.seed, same trace
        assert arrivals(a) != arrivals(b)  # Scenario.seed actually used
        d = session.run(small_scenario(rate=60.0, duration=3.0, seed=7), seed=9)
        assert arrivals(d) != arrivals(a)  # explicit run seed overrides

    def test_run_scenario_collects_windows(self, deployment):
        session = ServingSession.from_deployment(deployment, window=2.0)
        result = session.run(small_scenario(rate=100.0, duration=4.0))
        assert result.windows
        total = result.simulation.statistics.total_queries
        assert sum(w.completions for w in result.windows) == total
        assert result.reconfigurations == ()
        assert session.windows() == result.windows

    def test_explicit_pdf_is_the_plan_over_a_given_deployment(self, deployment):
        # The drift trigger compares against the planned PDF: over a given
        # deployment it is the explicit one, not the trace's empirical PDF.
        pdf = {1: 0.25, 8: 0.75}
        trace = QueryGenerator(
            WorkloadConfig(model="mobilenet", rate_qps=100.0, num_queries=50, seed=2)
        ).generate()
        session = ServingSession.from_deployment(
            deployment, batch_pdf=pdf, triggers=["pdf-drift"], window=1.0
        )
        session.begin(trace)
        assert session.planned_pdf == pdf
        session.abort()

    def test_sla_stamped_trace_passes_through_unchanged(self, deployment, spy):
        trace = QueryGenerator(
            WorkloadConfig(
                model="mobilenet", rate_qps=100.0, num_queries=30, seed=3, sla_target=0.05
            )
        ).generate()
        submitted = spy(InferenceServerSimulator, "submit_trace")
        ServingSession.from_deployment(deployment, window=None).run(trace)
        (call,) = submitted
        assert call.args[1] is trace

    def test_unknown_model_in_trace_rejected(self, deployment):
        session = ServingSession.from_deployment(deployment)
        bad = Scenario(
            name="bad",
            model="bert",
            phases=(Phase(duration=2.0, rate_qps=50.0),),
        )
        with pytest.raises(ValueError, match="not served"):
            session.run(bad)

    def test_rejects_garbage_workload(self, deployment):
        session = ServingSession.from_deployment(deployment)
        with pytest.raises(TypeError):
            session.run(42)

    def test_extra_observers_receive_events(self, deployment):
        log = EventLog()
        session = ServingSession.from_deployment(deployment, observers=[log])
        session.run(
            WorkloadConfig(model="mobilenet", rate_qps=100.0, num_queries=50, seed=1)
        )
        assert len(log.of_type(QueryCompleted)) == 50

    def test_metrics_after_run(self, deployment):
        session = ServingSession.from_deployment(deployment)
        with pytest.raises(RuntimeError):
            session.metrics()
        result = session.run(
            WorkloadConfig(model="mobilenet", rate_qps=100.0, num_queries=30, seed=1)
        )
        assert session.metrics() == result.simulation.statistics


class TestLiveRepartition:
    def test_trigger_fires_and_repartitions_mid_run(self, deployment):
        session = ServingSession.from_deployment(
            deployment,
            triggers=[("pdf-drift", {"threshold": 0.2, "min_queries": 100,
                                     "cooldown": 5.0})],
            reconfig_cost=1.0,
            window=1.0,
        )
        before = deployment.plan.describe()
        result = session.run(small_scenario())
        assert len(result.trigger_firings) == 1
        assert len(result.reconfigurations) == 1
        record = result.reconfigurations[0]
        assert record.downtime >= 1.0
        assert result.deployment.plan.describe() != before
        # everything still completes, including requeued/buffered queries
        stats = result.simulation.statistics
        assert stats.completed_queries == stats.total_queries
        # the original deployment object is untouched
        assert deployment.plan.describe() == before
        # the final deployment adopted the simulator's renumbered instance
        # ids: per-instance statistics join correctly against it
        final_ids = {inst.instance_id for inst in result.deployment.instances}
        assert final_ids == set(record.new_instance_ids)
        assert final_ids <= set(result.simulation.per_instance_queries)

    def test_mid_run_metrics_via_custom_trigger(self, deployment):
        observed = {}

        class Probe:
            name = "probe"

            def __init__(self, session):
                self.session = session

            def evaluate(self, context):
                if context.now >= 3.0 and "stats" not in observed:
                    observed["stats"] = self.session.metrics()
                    observed["now"] = self.session.now
                return TriggerDecision.hold()

        session = ServingSession.from_deployment(deployment, window=1.0)
        session.triggers = [Probe(session)]
        result = session.run(small_scenario(rate=100.0, duration=4.0))
        assert "stats" in observed
        assert 0 < observed["stats"].completed_queries
        assert (
            observed["stats"].completed_queries
            < result.simulation.statistics.completed_queries
        )

    def test_offline_repartition_between_runs(self, deployment):
        session = ServingSession.from_deployment(deployment)
        new = session.repartition({16: 0.5, 32: 0.5})
        assert session.deployment is new
        with pytest.raises(ValueError):
            session.repartition({})

    def test_session_repartition_without_deployment_deploys(self, config, profiler):
        session = ServingSession(config, profiler=profiler)
        deployment = session.repartition({4: 1.0})
        assert session.deployment is deployment
