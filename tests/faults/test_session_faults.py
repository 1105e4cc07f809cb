"""Session-level fault injection: degradation semantics and determinism.

The contracts under test, in order of importance:

* an empty (or beyond-horizon) schedule leaves the session **bit-identical**
  to one constructed without ``faults=``, chunked or one-shot (a fixed
  crash/straggler/restart schedule is also a replay-corpus case, so its
  exact outcome is pinned in ``baselines/replay_corpus.json``);
* a crash requeues the victim's displaced queries (bounded by the
  :class:`RetryPolicy`) and budget-exhausted queries surface as first-class
  failures, conserving every arrival;
* stragglers slow a worker and recover; failed reconfigurations roll back
  to the old shapes with the planning PDF untouched;
* availability / MTTR accounting lands on the result and its summary.
"""

import pytest

from repro.faults import (
    FailedReconfigure,
    FaultSchedule,
    RetryPolicy,
    StragglerEnd,
    StragglerStart,
    WorkerCrash,
    WorkerRestart,
)
from repro.serving.config import ServerConfig
from repro.serving.session import ServingSession
from repro.sim.hooks import EventLog, ReconfigFailed
from repro.workload.generator import WorkloadConfig


@pytest.fixture(scope="module")
def config():
    return ServerConfig(model="mobilenet", gpc_budget=24, num_gpus=4)


def _workload(rate=6000.0, num_queries=3000, seed=9):
    return WorkloadConfig(
        model="mobilenet", rate_qps=rate, num_queries=num_queries, seed=seed
    )


def _signature(result):
    return [
        (
            q.query_id,
            q.dispatch_time,
            q.start_time,
            q.finish_time,
            q.instance_id,
            q.retries,
            q.fail_time,
        )
        for q in result.simulation.queries
    ]


def _run(config, profiler, *, chunk=None, **session_kwargs):
    session = ServingSession(
        config, profiler=profiler, window=0.25, **session_kwargs
    )
    workload = _workload()
    if chunk is None:
        return session.run(workload)
    session.begin(workload)
    due = chunk
    while session.pending_events:
        session.run_until(due)
        due += chunk
    return session.finish()


class TestBitIdentity:
    def test_empty_schedule_is_bit_identical(self, config, profiler):
        plain = _run(config, profiler)
        faulted = _run(config, profiler, faults=FaultSchedule([]))
        assert _signature(plain) == _signature(faulted)
        assert plain.summary() == faulted.summary()
        assert faulted.fault_events == ()
        assert faulted.fault_windows == ()

    def test_empty_schedule_allows_windowless_sessions(self, config, profiler):
        session = ServingSession(
            config, profiler=profiler, window=None, faults=FaultSchedule([])
        )
        assert session.window is None

    def test_beyond_horizon_faults_never_fire(self, config, profiler):
        plain = _run(config, profiler)
        faulted = _run(
            config,
            profiler,
            faults=FaultSchedule([WorkerCrash(time=1e6, worker=0)]),
        )
        assert _signature(plain) == _signature(faulted)
        assert faulted.fault_events == ()

    def test_chunked_equals_oneshot_under_faults(self, config, profiler):
        schedule = FaultSchedule(
            [WorkerCrash(time=0.1, worker=0), WorkerRestart(time=0.3, worker=0)]
        )
        oneshot = _run(config, profiler, faults=schedule)
        chunked = _run(config, profiler, faults=schedule, chunk=0.17)
        assert _signature(oneshot) == _signature(chunked)
        assert oneshot.fault_events == chunked.fault_events


class TestConstruction:
    def test_nonempty_schedule_requires_window(self, config, profiler):
        with pytest.raises(ValueError, match="pass a window length"):
            ServingSession(
                config,
                profiler=profiler,
                window=None,
                faults=FaultSchedule([WorkerCrash(time=0.1, worker=0)]),
            )

    def test_event_sequence_coerced_to_schedule(self, config, profiler):
        session = ServingSession(
            config,
            profiler=profiler,
            window=0.25,
            faults=[WorkerCrash(time=0.2, worker=0), WorkerCrash(time=0.1, worker=1)],
        )
        assert isinstance(session.faults, FaultSchedule)
        assert [event.time for event in session.faults] == [0.1, 0.2]


class TestCrashSemantics:
    def test_crash_requeues_and_conserves(self, config, profiler):
        result = _run(
            config,
            profiler,
            faults=FaultSchedule([WorkerCrash(time=0.1, worker=0)]),
            retry_policy=RetryPolicy(max_retries=1, backoff=0.05),
        )
        (record,) = result.fault_events
        assert record.kind == "crash"
        assert record.time == pytest.approx(0.1)
        assert record.requeued >= 1
        stats = result.simulation.statistics
        assert stats.completed_queries + stats.failed_queries == stats.total_queries
        assert result.fault_availability < 1.0
        # no restart: the outage runs to the horizon, so MTTR is positive
        assert result.fault_mttr > 0.0

    def test_exhausted_retry_budget_fails_queries(self, config, profiler):
        result = _run(
            config,
            profiler,
            faults=FaultSchedule([WorkerCrash(time=0.1, worker=0)]),
            retry_policy=RetryPolicy(max_retries=0),
        )
        stats = result.simulation.statistics
        assert stats.failed_queries >= 1
        assert stats.completed_queries + stats.failed_queries == stats.total_queries
        failed = [q for q in result.simulation.queries if q.failed]
        assert len(failed) == stats.failed_queries
        for query in failed:
            assert query.fail_time is not None
            assert query.finish_time is None

    def test_restart_closes_the_outage(self, config, profiler):
        result = _run(
            config,
            profiler,
            faults=FaultSchedule(
                [WorkerCrash(time=0.1, worker=0), WorkerRestart(time=0.3, worker=0)]
            ),
        )
        kinds = [record.kind for record in result.fault_events]
        assert kinds == ["crash", "restart"]
        assert result.fault_mttr == pytest.approx(0.2)

    def test_restart_without_crash_is_skipped(self, config, profiler):
        plain = _run(config, profiler)
        result = _run(
            config,
            profiler,
            faults=FaultSchedule([WorkerRestart(time=0.1, worker=0)]),
        )
        (record,) = result.fault_events
        assert record.kind == "restart-skipped"
        assert record.reason == "no crashed worker"
        # a skipped fault leaves the replay untouched
        assert _signature(result) == _signature(plain)

    def test_crash_skipped_on_single_worker_server(self, profiler):
        # crashing the only worker would idle the whole server forever;
        # the session records the skip instead
        config = ServerConfig(model="mobilenet", gpc_budget=1, num_gpus=1)
        session = ServingSession(
            config,
            profiler=profiler,
            window=0.25,
            faults=FaultSchedule([WorkerCrash(time=0.05, worker=0)]),
        )
        result = session.run(_workload(rate=300.0, num_queries=200))
        (record,) = result.fault_events
        assert record.kind == "crash-skipped"
        assert record.reason == "would idle the whole server"
        stats = result.simulation.statistics
        assert stats.completed_queries == stats.total_queries


class TestStragglers:
    def test_straggler_slows_then_recovers(self, config, profiler):
        plain = _run(config, profiler)
        result = _run(
            config,
            profiler,
            faults=FaultSchedule(
                [
                    StragglerStart(time=0.05, worker=0, multiplier=4.0),
                    StragglerEnd(time=0.4, worker=0),
                ]
            ),
        )
        kinds = [record.kind for record in result.fault_events]
        assert kinds == ["straggle-start", "straggle-end"]
        start, end = result.fault_events
        assert start.multiplier == pytest.approx(4.0)
        assert start.instance_id == end.instance_id
        # a 4x straggler genuinely perturbs the replay
        assert _signature(result) != _signature(plain)
        stats = result.simulation.statistics
        assert stats.completed_queries == stats.total_queries

    def test_straggle_end_without_straggler_is_skipped(self, config, profiler):
        result = _run(
            config,
            profiler,
            faults=FaultSchedule([StragglerEnd(time=0.1, worker=0)]),
        )
        (record,) = result.fault_events
        assert record.kind == "straggle-skipped"
        assert record.reason == "no straggling worker"


class TestFailedReconfigure:
    def test_rolls_back_to_old_shapes(self, config, profiler):
        log = EventLog()
        session = ServingSession(
            config,
            profiler=profiler,
            window=0.25,
            observers=[log],
            faults=FaultSchedule([FailedReconfigure(time=0.05, downtime=0.1)]),
        )
        session.begin(_workload())
        session.run_until(0.1)
        armed = [r.kind for r in session.fault_events()]
        assert armed == ["reconfig-fail-armed"]

        before = session.deployment
        old_shapes = sorted(i.gpcs for i in before.instances)
        pdf_before = session.planned_pdf
        new_pdf = {16: 0.5, 32: 0.5}
        after = session.repartition(new_pdf)

        # old shapes survive (renumbered generation), the plan that failed
        # is NOT adopted, and the hook event fired
        assert sorted(i.gpcs for i in after.instances) == old_shapes
        assert session.planned_pdf == pdf_before
        assert session.planned_pdf != new_pdf
        failures = [e for e in log.events if isinstance(e, ReconfigFailed)]
        assert len(failures) == 1
        assert failures[0].downtime == pytest.approx(session.reconfig_cost + 0.1)

        result = session.finish()
        kinds = [record.kind for record in result.fault_events]
        assert kinds == ["reconfig-fail-armed", "reconfig-failed"]
        stats = result.simulation.statistics
        assert stats.completed_queries + stats.failed_queries == stats.total_queries

    def test_crash_defers_across_a_reconfiguration(self, config, profiler):
        # a fault due while the simulator is mid-swap must wait for the new
        # partition set to come online, never land on a half-built roster
        session = ServingSession(
            config,
            profiler=profiler,
            window=0.25,
            reconfig_cost=0.05,
            faults=FaultSchedule([WorkerCrash(time=0.301, worker=0)]),
        )
        session.begin(_workload())
        session.run_until(0.3)
        session.repartition({16: 0.5, 32: 0.5})
        result = session.finish()
        crashes = [r for r in result.fault_events if r.kind == "crash"]
        assert len(crashes) == 1
        # the crash fired after the swap landed, not at its scheduled time
        assert crashes[0].time > 0.301
        stats = result.simulation.statistics
        assert stats.completed_queries + stats.failed_queries == stats.total_queries


class TestResultSurface:
    def test_fault_summary_keys(self, config, profiler):
        plain = _run(config, profiler)
        for key in ("fault_availability", "mttr_s", "fault_events", "query_retries"):
            assert key not in plain.summary()
        result = _run(
            config,
            profiler,
            faults=FaultSchedule([WorkerCrash(time=0.1, worker=0)]),
            retry_policy=RetryPolicy(max_retries=1, backoff=0.05),
        )
        summary = result.summary()
        assert summary["fault_availability"] == pytest.approx(
            result.fault_availability
        )
        assert summary["mttr_s"] == pytest.approx(result.fault_mttr)
        assert summary["fault_events"] == 1.0
        assert summary["query_retries"] >= 1.0
        assert summary["failed_queries"] == float(result.failed_queries)

    def test_fault_windows_are_well_formed(self, config, profiler):
        result = _run(
            config,
            profiler,
            faults=FaultSchedule([WorkerCrash(time=0.1, worker=0)]),
        )
        assert result.fault_windows
        for index, window in enumerate(result.fault_windows):
            assert window.index == index
            assert 0.0 <= window.availability <= 1.0
            assert window.delivered_gpc_seconds <= window.planned_gpc_seconds
        mean = sum(w.availability for w in result.fault_windows) / len(
            result.fault_windows
        )
        assert result.fault_availability == pytest.approx(mean)
