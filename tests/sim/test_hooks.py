"""Tests for the lifecycle-event observer layer and streaming simulator."""

import pytest

from repro.core.elsa import ElsaScheduler
from repro.core.schedulers import FifsScheduler
from repro.sim.cluster import InferenceServerSimulator
from repro.sim.hooks import (
    EventLog,
    QueryArrived,
    QueryCompleted,
    QueryDispatched,
    QueryRequeued,
    ReconfigFinished,
    ReconfigStarted,
    SimulationObserver,
    SlaViolated,
    WindowedMetrics,
    WorkerCrashed,
    WorkerIdle,
    WorkerRecovered,
    build_dispatch_table,
)
from tests.sim.helpers import (
    MODEL,
    constant_profile,
    linear_profile,
    make_instances,
    make_trace,
)


def make_simulator(sizes=(1, 7), latencies=None, scheduler=None, **kwargs):
    latencies = latencies or {1: 2.0, 7: 1.0}
    profile = constant_profile(latencies)
    return InferenceServerSimulator(
        instances=make_instances(sizes),
        profiles={MODEL: profile},
        scheduler=scheduler or FifsScheduler(),
        **kwargs,
    )


class TestEventEmission:
    def test_every_query_arrives_dispatches_and_completes(self):
        log = EventLog()
        simulator = make_simulator(observers=[log])
        trace = make_trace([(0.0, 1), (0.1, 2), (0.2, 4), (5.0, 8)])
        simulator.run(trace)
        assert len(log.of_type(QueryArrived)) == 4
        assert len(log.of_type(QueryDispatched)) == 4
        assert len(log.of_type(QueryCompleted)) == 4

    def test_arrival_emitted_once_despite_frontend_retries(self):
        log = EventLog()
        simulator = make_simulator(
            observers=[log], frontend_capacity_qps=1.0
        )
        trace = make_trace([(0.0, 1), (0.0, 1), (0.0, 1)])
        simulator.run(trace)
        assert len(log.of_type(QueryArrived)) == 3
        assert len(log.of_type(QueryCompleted)) == 3

    def test_sla_violations_are_events(self):
        log = EventLog()
        # GPU(1) takes 2s, so any 1s SLA on it is violated
        simulator = make_simulator(sizes=(1,), observers=[log])
        trace = make_trace([(0.0, 1), (0.1, 1)], sla=1.0)
        result = simulator.run(trace)
        violated = log.of_type(SlaViolated)
        assert len(violated) == sum(q.sla_violated for q in result.queries)
        assert len(violated) >= 1

    def test_worker_idle_emitted_when_nothing_left(self):
        log = EventLog()
        simulator = make_simulator(observers=[log])
        simulator.run(make_trace([(0.0, 1)]))
        idle = log.of_type(WorkerIdle)
        assert len(idle) == 1

    def test_observer_attach_after_construction(self):
        simulator = make_simulator()
        log = EventLog()
        simulator.add_observer(log)
        simulator.run(make_trace([(0.0, 1)]))
        assert log.events

    def test_unknown_event_types_ignored(self):
        class Weird:
            pass

        observer = SimulationObserver()
        observer.on_event(Weird())  # must not raise

    def test_results_identical_with_and_without_observers(self):
        trace = make_trace([(0.0, 1), (0.2, 4), (0.3, 8), (1.5, 2)], sla=2.5)
        plain = make_simulator().run(trace)
        hooked = make_simulator(observers=[EventLog(), WindowedMetrics(0.5)]).run(trace)
        assert plain.statistics == hooked.statistics
        assert plain.per_instance_queries == hooked.per_instance_queries


class TestWindowedMetrics:
    def test_incremental_series(self):
        windowed = WindowedMetrics(window=1.0)
        simulator = make_simulator(
            sizes=(7,), latencies={7: 0.25}, observers=[windowed]
        )
        trace = make_trace([(0.0, 1), (0.1, 1), (1.2, 1), (2.5, 1)])
        simulator.run(trace)
        series = windowed.series()
        assert [w.arrivals for w in series] == [2, 1, 1]
        assert [w.completions for w in series] == [2, 1, 1]
        assert series[0].throughput_qps == pytest.approx(2.0)
        assert all(w.index == i for i, w in enumerate(series))

    def test_empty_windows_are_reported(self):
        windowed = WindowedMetrics(window=1.0)
        simulator = make_simulator(sizes=(7,), latencies={7: 0.1}, observers=[windowed])
        simulator.run(make_trace([(0.0, 1), (3.5, 1)]))
        series = windowed.series()
        assert len(series) == 4
        assert series[1].completions == 0
        assert series[2].completions == 0

    def test_series_until_truncates(self):
        windowed = WindowedMetrics(window=1.0)
        simulator = make_simulator(sizes=(7,), latencies={7: 0.1}, observers=[windowed])
        simulator.run(make_trace([(0.0, 1), (8.5, 1)]))
        truncated = windowed.series(until=2.5)
        assert [w.index for w in truncated] == [0, 1, 2]
        assert windowed.series(until=-1.0) == []
        # and a longer horizon pads with empty windows
        padded = windowed.series(until=10.5)
        assert padded[-1].index == 10

    def test_violation_rate_per_window(self):
        windowed = WindowedMetrics(window=10.0)
        simulator = make_simulator(sizes=(1,), observers=[windowed])
        # 2s execution each, serial: latencies 2s and ~3.9s; SLA 3s
        simulator.run(make_trace([(0.0, 1), (0.1, 1)], sla=3.0))
        series = windowed.series()
        assert series[0].sla_count == 2
        assert series[0].violations == 1
        assert series[0].violation_rate == pytest.approx(0.5)

    def test_observed_batch_pdf_lookback(self):
        windowed = WindowedMetrics(window=1.0)
        simulator = make_simulator(sizes=(7,), latencies={7: 0.01}, observers=[windowed])
        simulator.run(make_trace([(0.0, 2), (0.5, 2), (1.5, 8), (2.5, 8)]))
        # looking back one window from t=2.9 sees only the batch-8 arrival
        # of window [2, 3); a longer lookback sees everything
        pdf = windowed.observed_batch_pdf(2.9, lookback_windows=1)
        assert pdf == {8: 1.0}
        full = windowed.observed_batch_pdf(2.9, lookback_windows=10)
        assert full == {2: 0.5, 8: 0.5}

    def test_window_validation(self):
        with pytest.raises(ValueError):
            WindowedMetrics(window=0.0)
        windowed = WindowedMetrics(window=1.0)
        with pytest.raises(ValueError):
            windowed.observed_batch_pdf(1.0, lookback_windows=0)

    def test_subscribes_to_no_per_query_event(self):
        # the columns carry every per-query outcome; a per-query handler
        # would put a Python call per query back into the replay loop
        table = build_dispatch_table([WindowedMetrics(1.0)])
        assert set(table) == {
            ReconfigStarted,
            ReconfigFinished,
            WorkerCrashed,
            WorkerRecovered,
        }

    def test_unbound_observer_reads_empty(self):
        windowed = WindowedMetrics(window=1.0)
        assert windowed.series() == []
        assert windowed.backlog() == 0
        assert windowed.horizon() == 0.0
        assert windowed.observed_batch_pdf(5.0, lookback_windows=5) == {}
        assert windowed.recent_violation_stats(5.0, lookback_windows=5) == (0, 0)

    def test_one_observer_reports_only_the_latest_run(self):
        windowed = WindowedMetrics(window=0.5)
        simulator = make_simulator(
            sizes=(1, 7), latencies={1: 0.4, 3: 0.2, 7: 0.1}, observers=[windowed]
        )
        simulator.begin()
        simulator.submit_trace(make_trace([(0.1 * i, 2) for i in range(20)]))
        simulator.run_until(0.6)
        simulator.reconfigure(make_instances((3, 3)), reconfig_cost=0.5)
        simulator.finish()
        assert windowed.downtime_intervals

        second = make_trace([(0.0, 1), (0.3, 4), (1.2, 8)], sla=0.15)
        simulator.run(second)
        fresh = WindowedMetrics(window=0.5)
        make_simulator(
            sizes=(1, 7), latencies={1: 0.4, 3: 0.2, 7: 0.1}, observers=[fresh]
        ).run(second)
        assert windowed.downtime_intervals == []
        assert windowed.series() == fresh.series()
        assert windowed.backlog() == fresh.backlog() == 0
        assert windowed.horizon() == fresh.horizon()


class TestStreamingSurface:
    def test_streaming_run_matches_one_shot(self):
        trace = make_trace([(0.0, 1), (0.2, 4), (0.3, 8), (1.5, 2)], sla=2.5)
        one_shot = make_simulator().run(trace)

        simulator = make_simulator()
        replay = trace
        simulator.begin()
        simulator.submit_trace(replay)
        simulator.run_until(None)
        streamed = simulator.finish(offered_load_qps=replay.arrival_rate())
        assert streamed.statistics == one_shot.statistics

    def test_run_until_pauses_time(self):
        simulator = make_simulator(sizes=(7,), latencies={7: 1.0})
        simulator.begin()
        simulator.submit_trace(make_trace([(0.0, 1), (5.0, 1)]))
        now = simulator.run_until(2.0)
        assert now == pytest.approx(1.0)  # completion of the first query
        assert simulator.pending_events == 1
        simulator.run_until(None)
        assert simulator.pending_events == 0
        result = simulator.finish()
        assert result.statistics.completed_queries == 2

    def test_lifecycle_errors(self):
        simulator = make_simulator()
        with pytest.raises(RuntimeError):
            simulator.submit(make_trace([(0.0, 1)])[0])
        with pytest.raises(RuntimeError):
            simulator.run_until(None)
        with pytest.raises(RuntimeError):
            simulator.finish()
        simulator.begin()
        with pytest.raises(RuntimeError):
            simulator.begin()
        simulator.finish()

    def test_submit_in_past_rejected(self):
        simulator = make_simulator(sizes=(7,), latencies={7: 1.0})
        simulator.begin()
        simulator.submit_trace(make_trace([(0.0, 1)]))
        simulator.run_until(None)
        late = make_trace([(0.5, 1)])[0]
        with pytest.raises(ValueError):
            simulator.submit(late)

    def test_snapshot_statistics_mid_run(self):
        simulator = make_simulator(sizes=(7,), latencies={7: 1.0})
        simulator.begin()
        simulator.submit_trace(make_trace([(0.0, 1), (4.0, 1)]))
        simulator.run_until(2.0)
        snapshot = simulator.snapshot_statistics()
        assert snapshot.completed_queries == 1
        assert snapshot.total_queries == 2
        final = simulator.finish()
        assert final.statistics.completed_queries == 2


class TestLiveReconfiguration:
    def _open(self, scheduler=None, latencies=None, sizes=(1, 1)):
        simulator = make_simulator(
            sizes=sizes, latencies=latencies or {1: 2.0, 7: 1.0}, scheduler=scheduler
        )
        simulator.begin()
        return simulator

    def test_drain_downtime_and_requeue(self):
        log = EventLog()
        simulator = make_simulator(sizes=(1,), latencies={1: 2.0, 7: 1.0})
        simulator.add_observer(log)
        simulator.begin()
        # q0 executes at t=0 (finishes t=2); q1 queues behind it on the same
        # worker under least-loaded-free FIFS? FIFS parks it centrally.
        simulator.submit_trace(
            make_trace([(0.0, 1), (0.1, 1), (6.0, 1)])
        )
        simulator.run_until(0.5)
        # the event-driven clock sits on the last processed event (t=0.1)
        assert simulator.now == pytest.approx(0.1)
        online_at = simulator.reconfigure(make_instances([7]), reconfig_cost=1.5)
        # q0 is in flight until t=2; downtime ends at 3.5
        assert online_at == pytest.approx(3.5)
        assert simulator.reconfiguring
        result = simulator.finish()
        assert not simulator.reconfiguring
        assert result.statistics.completed_queries == 3
        (record,) = result.reconfigurations
        assert record.started == pytest.approx(0.1)
        assert record.drain_completed == pytest.approx(2.0)
        assert record.finished == pytest.approx(3.5)
        assert record.downtime == pytest.approx(3.4)
        assert record.requeued == 1  # q1 was waiting, pulled back
        assert len(log.of_type(ReconfigStarted)) == 1
        assert len(log.of_type(ReconfigFinished)) == 1
        assert len(log.of_type(QueryRequeued)) == 1
        # the requeued query executed on the new GPU(7) partition (1s exec)
        q1 = result.queries[1]
        assert q1.finish_time == pytest.approx(4.5)

    def test_arrivals_during_downtime_are_buffered(self):
        simulator = self._open(sizes=(1,))
        simulator.submit_trace(
            make_trace([(0.0, 1), (2.5, 1), (3.0, 1)])
        )
        simulator.run_until(2.0)  # q0 done at t=2
        online_at = simulator.reconfigure(make_instances([7]), reconfig_cost=2.0)
        assert online_at == pytest.approx(4.0)
        result = simulator.finish()
        (record,) = result.reconfigurations
        assert record.buffered_arrivals == 2
        assert result.statistics.completed_queries == 3
        # buffered queries start only after the new set came online
        for query in result.queries[1:]:
            assert query.start_time >= online_at

    def test_instance_ids_never_collide_across_generations(self):
        simulator = self._open(sizes=(1, 1))
        simulator.submit_trace(make_trace([(0.0, 1), (0.1, 1)]))
        simulator.run_until(0.5)
        simulator.reconfigure(make_instances([1, 1]), reconfig_cost=0.0)
        result = simulator.finish()
        old = set(result.reconfigurations[0].old_instance_ids)
        new = set(result.reconfigurations[0].new_instance_ids)
        assert old.isdisjoint(new)
        assert set(result.per_instance_queries) == old | new

    def test_reconfigure_with_elsa_scheduler(self):
        profile = linear_profile({1: 0.4, 7: 0.1})
        simulator = InferenceServerSimulator(
            instances=make_instances([1, 7]),
            profiles={MODEL: profile},
            scheduler=ElsaScheduler(profile),
        )
        simulator.begin()
        trace = make_trace(
            [(0.0, 4), (0.05, 8), (0.1, 2), (2.0, 8), (2.1, 1)], sla=5.0
        )
        simulator.submit_trace(trace)
        simulator.run_until(0.2)
        simulator.reconfigure(make_instances([7, 7]), reconfig_cost=0.5)
        result = simulator.finish()
        assert result.statistics.completed_queries == 5

    def test_reconfigure_guards(self):
        simulator = make_simulator()
        with pytest.raises(RuntimeError):
            simulator.reconfigure(make_instances([7]))
        simulator.begin()
        with pytest.raises(ValueError):
            simulator.reconfigure([])
        with pytest.raises(ValueError):
            simulator.reconfigure(make_instances([7]), reconfig_cost=-1.0)
        simulator.reconfigure(make_instances([7]), reconfig_cost=10.0)
        with pytest.raises(RuntimeError):
            simulator.reconfigure(make_instances([7]))

    def test_zero_cost_reconfig_still_drains(self):
        simulator = self._open(sizes=(1,))
        simulator.submit_trace(make_trace([(0.0, 1), (0.1, 1)]))
        simulator.run_until(0.2)
        online_at = simulator.reconfigure(make_instances([1]), reconfig_cost=0.0)
        assert online_at == pytest.approx(2.0)  # in-flight query drains first
        result = simulator.finish()
        assert result.statistics.completed_queries == 2


class TestColumnarWindowedMetrics:
    """Columnar-bound WindowedMetrics behaviours."""

    def _simulator(self, windowed):
        from repro.core.schedulers import FifsScheduler
        from repro.sim.cluster import InferenceServerSimulator
        from tests.sim.helpers import MODEL, constant_profile, make_instances

        return InferenceServerSimulator(
            instances=make_instances((1, 7)),
            profiles={MODEL: constant_profile({1: 0.4, 3: 0.2, 7: 0.1})},
            scheduler=FifsScheduler(),
            observers=[windowed],
        )

    def test_mid_run_add_observer_keeps_reconfiguration_history(self):
        from repro.sim.hooks import EventLog, WindowedMetrics
        from tests.sim.helpers import make_instances, make_trace

        windowed = WindowedMetrics(window=0.5)
        simulator = self._simulator(windowed)
        simulator.begin()
        simulator.submit_trace(make_trace([(0.1 * i, 2) for i in range(20)]))
        simulator.run_until(0.6)
        simulator.reconfigure(make_instances((3, 3)), reconfig_cost=0.5)
        simulator.run_until(3.0)
        assert windowed.downtime_intervals  # the repartition was recorded
        # re-resolving observers mid-run must not reset the bound metrics
        simulator.add_observer(EventLog())
        simulator.finish()
        assert windowed.downtime_intervals
        assert any(window.reconfiguring for window in windowed.series())

    def test_retrospective_lookback_sees_every_fired_arrival(self):
        """A historical `now` must count the whole window: arrivals are cut
        at the simulation clock, not at the lookback time."""
        from repro.sim.hooks import WindowedMetrics
        from tests.sim.helpers import make_trace

        windowed = WindowedMetrics(window=1.0)
        simulator = self._simulator(windowed)
        simulator.run(make_trace([(0.2, 1), (5.1, 2), (5.7, 4), (8.0, 8)]))
        # window 5 holds both the 5.1 and the 5.7 arrival; a lookback pinned
        # inside that window (now=5.3) must still report both
        assert windowed.observed_batch_histogram(5.3, lookback_windows=1) == {
            2: 1,
            4: 1,
        }

    def test_unstarted_run_reports_no_arrivals(self):
        from repro.sim.hooks import WindowedMetrics
        from tests.sim.helpers import make_trace

        windowed = WindowedMetrics(window=1.0)
        simulator = self._simulator(windowed)
        simulator.begin()
        simulator.submit_trace(make_trace([(0.0, 2), (0.5, 4)]))
        # nothing processed yet: even the t=0 arrival has not fired
        assert windowed.series() == []
        assert windowed.observed_batch_histogram(1.0, lookback_windows=1) == {}
        assert windowed.backlog() == 0

    def test_mid_run_observer_reads_run_state_from_events(self):
        """An observer attached mid-run reads each completion's finish time
        from its event: the latencies it derives are the records' own."""
        from repro.core.schedulers import FifsScheduler
        from repro.sim.cluster import InferenceServerSimulator
        from tests.sim.helpers import MODEL, constant_profile, make_instances, make_trace

        simulator = InferenceServerSimulator(
            instances=make_instances((1, 7)),
            profiles={MODEL: constant_profile({1: 0.5, 7: 0.5})},
            scheduler=FifsScheduler(),
        )
        simulator.begin()
        simulator.submit_trace(make_trace([(0.0, 1), (0.2, 2), (0.4, 4)], sla=2.0))
        simulator.run_until(0.25)
        log = EventLog()
        simulator.add_observer(log)
        result = simulator.finish()
        seen = {
            event.query.query_id: event.time - event.query.arrival_time
            for event in log.of_type(QueryCompleted)
        }
        assert seen == {q.query_id: q.latency for q in result.queries}
