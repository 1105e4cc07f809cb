"""Spot preemption: schedule semantics and replay-deterministic execution."""

import json

import pytest

from repro.autoscale.preemption import PreemptionEvent, PreemptionSchedule
from repro.serving.config import ServerConfig
from repro.serving.session import ServingSession
from repro.workload.generator import WorkloadConfig

FLEET = ((2, "a100", 12), (2, "a100", 12))


def fleet_session(**kwargs):
    kwargs.setdefault("window", 0.25)
    kwargs.setdefault("reconfig_cost", 0.05)
    return ServingSession(ServerConfig(model="mobilenet", fleet=FLEET), **kwargs)


def workload(seed=9):
    return WorkloadConfig(
        model="mobilenet", rate_qps=300.0, num_queries=600, seed=seed
    )


def query_signature(result):
    return [
        (q.query_id, q.dispatch_time, q.start_time, q.finish_time, q.instance_id)
        for q in result.simulation.queries
    ]


class TestPreemptionEvent:
    def test_removal_time_adds_the_notice(self):
        event = PreemptionEvent(time=3.0, server_index=1, notice=0.5)
        assert event.removal_time == 3.5
        assert PreemptionEvent(time=3.0, server_index=1).removal_time == 3.0

    def test_validation(self):
        with pytest.raises(ValueError, match="time"):
            PreemptionEvent(time=-1.0, server_index=0)
        with pytest.raises(ValueError, match="server_index"):
            PreemptionEvent(time=0.0, server_index=-1)
        with pytest.raises(ValueError, match="notice"):
            PreemptionEvent(time=0.0, server_index=0, notice=-0.1)


class TestPreemptionSchedule:
    def test_events_are_stored_sorted(self):
        schedule = PreemptionSchedule(
            [
                PreemptionEvent(time=5.0, server_index=0),
                PreemptionEvent(time=1.0, server_index=2),
                PreemptionEvent(time=1.0, server_index=1),
            ]
        )
        assert [(e.time, e.server_index) for e in schedule] == [
            (1.0, 1),
            (1.0, 2),
            (5.0, 0),
        ]
        assert len(schedule) == 3
        assert bool(schedule)
        assert not PreemptionSchedule()

    def test_sample_is_seed_deterministic(self):
        kwargs = dict(server_ids=[0, 1, 2], horizon=100.0, rate=0.05, notice=1.0)
        first = PreemptionSchedule.sample(seed=7, **kwargs)
        again = PreemptionSchedule.sample(seed=7, **kwargs)
        other = PreemptionSchedule.sample(seed=8, **kwargs)
        assert first.events == again.events
        assert first.events != other.events
        assert all(0 <= e.time < 100.0 and e.notice == 1.0 for e in first)

    def test_sample_validation(self):
        with pytest.raises(ValueError, match="server_ids must name at least one"):
            PreemptionSchedule.sample([], 10.0, rate=0.1)
        with pytest.raises(ValueError, match="horizon must be positive"):
            PreemptionSchedule.sample([0], 0.0, rate=0.1)
        with pytest.raises(ValueError, match="horizon must be positive"):
            PreemptionSchedule.sample([0], float("nan"), rate=0.1)
        with pytest.raises(ValueError, match="rate must be positive"):
            PreemptionSchedule.sample([0], 10.0, rate=-0.1)
        with pytest.raises(ValueError, match="rate must be positive"):
            PreemptionSchedule.sample([0], 10.0, rate=float("nan"))
        with pytest.raises(ValueError, match="notice must be non-negative"):
            PreemptionSchedule.sample([0], 10.0, rate=0.1, notice=-1.0)

    def test_zero_rate_is_rejected_not_silent(self):
        # a zero rate used to divide by zero in the exponential draw; it is
        # now rejected with a pointer at the explicit empty schedule
        with pytest.raises(ValueError, match="PreemptionSchedule\\(\\) instead of rate=0"):
            PreemptionSchedule.sample([0], 10.0, rate=0.0, seed=1)


class TestSessionExecution:
    SCHEDULE = PreemptionSchedule(
        [
            PreemptionEvent(time=0.5, server_index=1, notice=0.2),
            # a second hit on the same server must be skipped, not fail
            PreemptionEvent(time=1.0, server_index=1),
            # reclaiming the last server must be skipped too
            PreemptionEvent(time=1.2, server_index=0),
        ]
    )

    def run_once(self):
        session = fleet_session(preemptions=self.SCHEDULE)
        return session.run(workload())

    def test_notice_then_drain_then_removal(self):
        result = self.run_once()
        kinds = [e.kind for e in result.fleet_events]
        assert kinds == [
            "preempt-notice",
            "preempted",
            "preempt-notice",
            "preempt-skipped",
            "preempt-notice",
            "preempt-skipped",
        ]
        notice, removed = result.fleet_events[0], result.fleet_events[1]
        assert notice.time == 0.5
        assert notice.server_index == 1
        assert removed.time == pytest.approx(0.7)  # 0.5 + 0.2s notice
        assert removed.server_index == 1
        skipped = [e for e in result.fleet_events if e.kind == "preempt-skipped"]
        assert skipped[0].reason == "server already removed"
        assert skipped[1].reason == "would empty the fleet"
        # the run ends on the surviving server
        assert result.fleet_windows[-1].servers == 1
        assert result.fleet_windows[-1].gpcs == 12

    def test_preemption_bills_downtime_as_unavailability(self):
        result = self.run_once()
        assert result.simulation.reconfigurations  # the forced drain
        assert 0.0 < result.mean_availability < 1.0
        assert result.fleet_cost > 0.0
        # cost steps down once the preempted server leaves the composition
        assert result.fleet_windows[0].cost > result.fleet_windows[-1].cost

    def test_replay_is_byte_deterministic(self):
        first = self.run_once()
        second = self.run_once()
        first_rows = json.dumps([e.to_dict() for e in first.fleet_events])
        second_rows = json.dumps([e.to_dict() for e in second.fleet_events])
        assert first_rows == second_rows
        assert first.fleet_windows == second.fleet_windows
        assert first.fleet_cost == second.fleet_cost
        assert query_signature(first) == query_signature(second)
        assert first.windows == second.windows

    def test_event_list_preemptions_are_coerced_to_a_schedule(self):
        session = fleet_session(
            preemptions=[PreemptionEvent(time=0.5, server_index=1)]
        )
        assert isinstance(session.preemptions, PreemptionSchedule)

    def test_flat_config_is_preempted_like_its_fleet_spelling(self):
        # a flat design is a fleet of one server: it scales out and is
        # preempted exactly as the one-server fleet it spells
        runs = []
        for config in (
            ServerConfig(model="mobilenet", num_gpus=4, gpc_budget=24),
            ServerConfig(model="mobilenet", fleet=[(4, "a100", 24)]),
        ):
            session = ServingSession(
                config, window=0.25, reconfig_cost=0.05, preemptions=self.SCHEDULE
            )
            session.scale_out((4, "a100", 24), reason="pre-provision")
            runs.append(session.run(workload()))
        flat, fleet = runs
        assert "preempted" in [e.kind for e in flat.fleet_events]
        assert [e.to_dict() for e in flat.fleet_events] == [
            e.to_dict() for e in fleet.fleet_events
        ]
        assert flat.fleet_windows == fleet.fleet_windows
        assert flat.windows == fleet.windows
        assert query_signature(flat) == query_signature(fleet)

    def test_control_plane_requires_a_metrics_window(self):
        with pytest.raises(ValueError, match="window"):
            fleet_session(preemptions=self.SCHEDULE, window=None)
