"""ServingSession's control plane: the planning-PDF fallback, refused
mutations and the one hook dispatch path."""

import pytest

from repro.autoscale import Autoscaler, PreemptionEvent
from repro.faults import FailedReconfigure, WorkerCrash
from repro.serving.config import ServerConfig
from repro.serving.deployment import Deployment, build_deployment
from repro.serving.session import ServingSession
from repro.sim.hooks import (
    ReconfigFailed,
    ReconfigStarted,
    ServerPreempted,
    ServerScaledIn,
    ServerScaledOut,
    SimulationObserver,
)
from repro.workload.generator import QueryGenerator, WorkloadConfig
from repro.workload.trace import QueryTrace

UNIT = (2, "a100", 12)
FLEET = ServerConfig(model="mobilenet", fleet=(UNIT, UNIT))
WORKLOAD = WorkloadConfig(model="mobilenet", rate_qps=2000.0, num_queries=1000, seed=3)

IN_FLIGHT = "while a live reconfiguration is in flight"
NO_PDF = "no planning batch PDF is known"


def bare_trace(workload=WORKLOAD) -> QueryTrace:
    return QueryGenerator(workload).generate()


def deployment() -> Deployment:
    return build_deployment(FLEET, {8: 1.0})


class TestPlanningPdfFallback:
    """A session opened over a deployment and run on a bare trace knows no
    planning PDF; a run that can re-plan by itself falls back to the
    trace's own."""

    def test_autoscaled_run_commissions(self):
        scaler = Autoscaler(
            UNIT,
            triggers=[("scale-out-backlog", {"max_backlog": 20, "lookback_windows": 1})],
            max_servers=3,
            lead_time=0.05,
        )
        trace = bare_trace(
            WorkloadConfig(model="mobilenet", rate_qps=20000.0, num_queries=4000, seed=3)
        )
        session = ServingSession.from_deployment(
            deployment(), window=0.05, reconfig_cost=0.01, autoscaler=scaler
        )
        result = session.run(trace)
        assert session.planned_pdf == trace.batch_pdf()
        assert "scale-out" in [e.kind for e in result.fleet_events]

    def test_preempted_run_removes_the_server(self):
        trace = bare_trace()
        session = ServingSession.from_deployment(
            deployment(),
            window=0.05,
            reconfig_cost=0.01,
            preemptions=[PreemptionEvent(time=0.05, server_index=1)],
        )
        result = session.run(trace)
        assert session.planned_pdf == trace.batch_pdf()
        assert [e.kind for e in result.fleet_events] == ["preempt-notice", "preempted"]
        assert result.fleet_windows[-1].servers == 1

    def test_plain_run_keeps_no_pdf(self):
        session = ServingSession.from_deployment(deployment(), window=0.05)
        session.run(bare_trace())
        assert session.planned_pdf is None

    def test_empty_trace_still_runs(self):
        session = ServingSession.from_deployment(
            deployment(),
            window=0.05,
            preemptions=[PreemptionEvent(time=0.05, server_index=1)],
        )
        result = session.run(QueryTrace(()))
        assert result.simulation.statistics.total_queries == 0
        assert session.planned_pdf is None


def _state(session):
    return (
        session.roster.ids,
        session.fleet_events(),
        session.config,
        list(session._armed_reconfig_failures),
        dict(session._open_crashes),
        list(session._crash_intervals),
    )


class TestRefusedMutations:
    """A mutation the session cannot complete raises before any state
    changes."""

    @pytest.fixture
    def mid_swap(self):
        """A run with a fleet scale-out in flight, a crash healed by it and
        a reconfiguration failure armed but not consumed."""
        session = ServingSession(
            ServerConfig(model="mobilenet", fleet=(UNIT,) * 3),
            window=0.05,
            reconfig_cost=0.2,
            faults=[WorkerCrash(time=0.01, worker=0), FailedReconfigure(time=0.02)],
        )
        session.begin(WORKLOAD)
        session.run_until(0.05)
        session.scale_out(UNIT, reason="burst")
        assert session.running and session._sim.reconfiguring
        assert session._armed_reconfig_failures and session._crash_intervals
        yield session
        session.abort()

    @pytest.mark.parametrize(
        ("action", "mutate"),
        [
            ("repartition", lambda s: s.repartition({4: 1.0})),
            ("scale in", lambda s: s.scale_in()),
            ("scale in", lambda s: s.scale_in(1)),
            ("scale out", lambda s: s.scale_out(UNIT)),
            ("preempt", lambda s: s.preempt(2)),
        ],
    )
    def test_mid_reconfiguration(self, mid_swap, action, mutate):
        before = _state(mid_swap)
        with pytest.raises(RuntimeError, match=f"cannot {action} {IN_FLIGHT}"):
            mutate(mid_swap)
        assert _state(mid_swap) == before
        # the run still drains with the refused mutation left out
        result = mid_swap.finish()
        assert [e.kind for e in result.fleet_events] == ["scale-out"]

    @pytest.mark.parametrize(
        ("action", "mutate"),
        [
            ("scale out", lambda s: s.scale_out(UNIT)),
            ("scale in", lambda s: s.scale_in()),
            ("preempt", lambda s: s.preempt(1)),
        ],
    )
    def test_without_a_planning_pdf(self, action, mutate):
        session = ServingSession.from_deployment(deployment(), window=0.05)
        session.begin(bare_trace())
        session.run_until(0.1)
        before = _state(session)
        with pytest.raises(ValueError, match=f"cannot {action}: {NO_PDF}"):
            mutate(session)
        assert _state(session) == before
        assert session.finish().fleet_events == ()


class TypedObserver(SimulationObserver):
    def __init__(self):
        self.events = []

    def on_server_scaled_out(self, event):
        self.events.append(event)

    def on_server_scaled_in(self, event):
        self.events.append(event)

    def on_server_preempted(self, event):
        self.events.append(event)

    def on_reconfig_failed(self, event):
        self.events.append(event)

    def on_reconfig_started(self, event):
        self.events.append(event)


class DuckObserver:
    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)


CONTROL_HOOKS = (ServerScaledOut, ServerScaledIn, ServerPreempted, ReconfigFailed)


class TestOneDispatchPath:
    """Control hooks reach every kind of observer through the simulator's
    dispatch table, once each, before the reconfiguration they cause."""

    def test_each_hook_once_before_its_reconfiguration(self):
        typed, duck = TypedObserver(), DuckObserver()
        session = ServingSession(
            ServerConfig(model="mobilenet", fleet=(UNIT,) * 3),
            window=0.05,
            reconfig_cost=0.02,
            observers=[typed, duck],
            faults=[FailedReconfigure(time=0.01)],
            preemptions=[PreemptionEvent(time=0.3, server_index=1)],
        )
        session.begin(WORKLOAD)
        session.run_until(0.05)
        session.repartition({4: 1.0})  # consumes the armed failure
        session.run_until(0.15)
        added = session.scale_out(UNIT, reason="burst")
        session.run_until(0.25)
        session.scale_in(added, reason="burst over")
        session.finish()
        typed_seen = typed.events
        duck_seen = [e for e in duck.events if isinstance(e, (*CONTROL_HOOKS, ReconfigStarted))]
        assert typed_seen == duck_seen
        for hook in CONTROL_HOOKS:
            (index,) = [i for i, e in enumerate(typed_seen) if isinstance(e, hook)]
            assert isinstance(typed_seen[index + 1], ReconfigStarted)

    def test_no_hook_between_runs(self):
        duck = DuckObserver()
        session = ServingSession(FLEET, window=0.05, observers=[duck])
        session.run(WORKLOAD)
        seen = len(duck.events)
        session.scale_out(UNIT, reason="pre-provision")
        assert [e.kind for e in session.fleet_events()] == ["scale-out"]
        assert len(duck.events) == seen
