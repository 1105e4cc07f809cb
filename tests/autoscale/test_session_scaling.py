"""ServingSession fleet elasticity: manual mutations and a live autoscaler."""

import pytest

from repro.autoscale.autoscaler import Autoscaler
from repro.serving.config import ServerConfig
from repro.serving.session import ServingSession
from repro.sim.hooks import ServerScaledOut
from repro.workload.generator import WorkloadConfig

UNIT = (2, "a100", 12)


def overload(seed=3):
    """A burst far beyond what one 12-GPC server can clear: the whole
    trace arrives within ~0.2s, so the backlog builds immediately."""
    return WorkloadConfig(
        model="mobilenet", rate_qps=20000.0, num_queries=4000, seed=seed
    )


class TestManualElasticity:
    def test_between_run_scale_out_rewrites_the_config(self):
        session = ServingSession(
            ServerConfig(model="mobilenet", fleet=(UNIT,)), window=0.25
        )
        server_id = session.scale_out(UNIT, reason="pre-provision")
        assert server_id == 1
        assert len(session.config.fleet) == 2
        events = session.fleet_events()
        assert [e.kind for e in events] == ["scale-out"]
        assert events[0].total_gpcs == 24

    def test_mid_run_scale_out_and_in_round_trip(self):
        session = ServingSession(
            ServerConfig(model="mobilenet", fleet=(UNIT, UNIT)),
            window=0.25,
            reconfig_cost=0.02,
        )
        session.begin(
            WorkloadConfig(model="mobilenet", rate_qps=300.0, num_queries=600, seed=5)
        )
        session.run_until(0.4)
        added = session.scale_out(UNIT, reason="burst")
        session.run_until(1.0)
        session.scale_in(added, reason="burst over")
        result = session.finish()
        assert [e.kind for e in result.fleet_events] == ["scale-out", "scale-in"]
        assert result.fleet_events[0].server_index == added
        # two live repartitions, one per mutation
        assert len(result.simulation.reconfigurations) == 2
        assert result.fleet_windows[-1].servers == 2
        # manual mutations alone must still produce the billing timeline
        assert result.fleet_cost > 0.0

    def test_scale_in_defaults_to_the_newest_member(self):
        session = ServingSession(
            ServerConfig(model="mobilenet", fleet=(UNIT, UNIT)), window=0.25
        )
        spec = session.scale_in()
        assert spec.describe() == "2xA100-SXM4-40GB(12)"
        assert session.roster.ids == (0,)

    def test_mid_run_foreign_architecture_is_rejected(self):
        session = ServingSession(
            ServerConfig(model="mobilenet", fleet=(UNIT,)), window=0.25
        )
        session.begin(overload())
        with pytest.raises(ValueError, match="was not in the fleet"):
            session.scale_out((1, "a30"), reason="nope")
        session.abort()

    def test_flat_config_roster_is_its_one_server(self):
        session = ServingSession(
            ServerConfig(model="mobilenet", num_gpus=4, gpc_budget=24)
        )
        assert session.roster.ids == (0,)
        assert [s.describe() for s in session.roster.specs] == ["4xA100-SXM4-40GB(24)"]


class TestAutoscaledRun:
    def make_scaler(self):
        return Autoscaler(
            UNIT,
            triggers=[("scale-out-backlog", {"max_backlog": 20, "lookback_windows": 1})],
            max_servers=2,
            lead_time=0.2,
        )

    def run_once(self, scaler=None):
        scaler = scaler or self.make_scaler()
        session = ServingSession(
            ServerConfig(model="mobilenet", fleet=(UNIT,)),
            window=0.25,
            reconfig_cost=0.02,
            autoscaler=scaler,
        )
        return session.run(overload()), scaler

    def test_scale_out_commissions_after_the_lead_time(self):
        result, scaler = self.run_once()
        kinds = [e.kind for e in result.fleet_events]
        assert kinds[:2] == ["scale-out-requested", "scale-out"]
        requested = result.fleet_events[0]
        landed = result.fleet_events[1]
        assert landed.time == pytest.approx(requested.time + 0.2)
        assert result.fleet_windows[-1].servers == 2

    def test_decision_is_backfilled_with_the_roster_id(self):
        result, scaler = self.run_once()
        (decision,) = [d for d in scaler.decisions if d.action == "scale-out"]
        landed = [e for e in result.fleet_events if e.kind == "scale-out"]
        assert decision.server_index == landed[0].server_index == 1

    def test_scaled_out_hook_event_reaches_observers(self):
        seen = []

        class Recorder:
            def on_event(self, event):
                if isinstance(event, ServerScaledOut):
                    seen.append(event)

        scaler = self.make_scaler()
        session = ServingSession(
            ServerConfig(model="mobilenet", fleet=(UNIT,)),
            window=0.25,
            reconfig_cost=0.02,
            autoscaler=scaler,
            observers=[Recorder()],
        )
        session.run(overload())
        assert len(seen) == 1
        assert seen[0].server_index == 1

    def test_autoscaled_replay_is_deterministic(self):
        first, _ = self.run_once()
        second, _ = self.run_once()
        assert [e.to_dict() for e in first.fleet_events] == [
            e.to_dict() for e in second.fleet_events
        ]
        assert first.fleet_windows == second.fleet_windows
        assert first.summary() == second.summary()

    def test_flat_config_autoscales_like_its_fleet_spelling(self):
        runs = []
        for config in (
            ServerConfig(model="mobilenet", num_gpus=4, gpc_budget=24),
            ServerConfig(model="mobilenet", fleet=[(4, "a100", 24)]),
        ):
            session = ServingSession(
                config, window=0.25, reconfig_cost=0.02, autoscaler=self.make_scaler()
            )
            runs.append(session.run(overload()))
        flat, fleet = runs
        assert "scale-out" in [e.kind for e in flat.fleet_events]
        assert [e.to_dict() for e in flat.fleet_events] == [
            e.to_dict() for e in fleet.fleet_events
        ]
        assert flat.fleet_windows == fleet.fleet_windows
        assert flat.windows == fleet.windows
        assert flat.summary() == fleet.summary()

    def test_autoscaler_requires_a_window(self):
        with pytest.raises(ValueError, match="window"):
            ServingSession(
                ServerConfig(model="mobilenet", fleet=(UNIT,)),
                window=None,
                autoscaler=self.make_scaler(),
            )

    def test_foreign_scale_unit_is_rejected_at_begin(self):
        scaler = Autoscaler((1, "a30"), triggers=["scale-out-backlog"])
        session = ServingSession(
            ServerConfig(model="mobilenet", fleet=(UNIT,)),
            window=0.25,
            autoscaler=scaler,
        )
        with pytest.raises(ValueError, match="cannot execute"):
            session.begin(overload())
