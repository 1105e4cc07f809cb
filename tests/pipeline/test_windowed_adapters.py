"""The pipeline's windowed experiments are views of the analysis runners.

``autoscale_sweep``, ``fault_sweep`` and ``dynamic_scenario`` hold no run
code of their own: each maps the results of one :mod:`repro.analysis`
runner onto run rows, at the scale :class:`SuiteContext` selects, and the
committed BENCH payloads are built from the same runners.  The runners are
stubbed here, so nothing replays.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from repro.analysis import autoscaling, experiments, faults
from repro.pipeline.suites import SuiteContext, run_experiment


@dataclass
class FakeWindow:
    index: int
    start: float = 0.0
    throughput_qps: float = 50.0
    p95_latency: float = 0.004
    violation_rate: float = 0.0
    reconfiguring: bool = False


def event(kind, **fields):
    row = {"type": "event", "kind": kind, **fields}
    return SimpleNamespace(kind=kind, to_dict=lambda: row, **fields)


def fake_result(**overrides):
    stats = SimpleNamespace(
        latency=SimpleNamespace(mean=0.002, p95=0.005, sla_violation_rate=0.125),
        failed_queries=1,
        completed_queries=9,
        total_queries=10,
    )
    fields = dict(
        simulation=SimpleNamespace(statistics=stats),
        throughput_qps=123.0,
        p95_latency=0.005,
        sla_violation_rate=0.125,
        mean_utilization=0.5,
        windows=(FakeWindow(0), FakeWindow(1)),
        fleet_events=(),
        fleet_windows=(SimpleNamespace(servers=1), SimpleNamespace(servers=3)),
        fleet_cost=42.0,
        mean_availability=0.75,
        fault_events=(),
        fault_availability=0.875,
        fault_mttr=0.3,
        reconfigurations=(),
        trigger_firings=(),
        deployment=SimpleNamespace(plan=SimpleNamespace(describe=lambda: "stub-plan")),
    )
    fields.update(overrides)
    return SimpleNamespace(**fields)


def recording(calls, returned):
    def runner(*args, **kwargs):
        calls.append((args, kwargs))
        return returned

    return runner


@pytest.fixture
def iso_sla(monkeypatch):
    frontier = [
        SimpleNamespace(
            specs=(0, 0, 0), fleet="3x", cost_rate=1.5, cost=300.0,
            violation_rate=0.0, feasible=True,
        ),
        SimpleNamespace(
            specs=(0,), fleet="1x", cost_rate=0.5, cost=100.0,
            violation_rate=0.9, feasible=False,
        ),
    ]
    result = fake_result(
        fleet_events=(event("scale-out"), event("scale-in"), event("scale-out"))
    )
    calls = []
    monkeypatch.setattr(
        autoscaling, "iso_sla_results", recording(calls, (frontier, result))
    )
    return calls


@pytest.fixture
def fault_sweep(monkeypatch):
    workload = SimpleNamespace(rate_qps=777.0)
    points = [
        (0.0, workload, (), fake_result()),
        (
            2.0,
            workload,
            ("crash", "restart"),
            fake_result(
                fault_events=(event("crash", requeued=3), event("restart", requeued=0))
            ),
        ),
    ]
    calls = []
    monkeypatch.setattr(faults, "fault_sweep_results", recording(calls, iter(points)))
    return calls


@pytest.fixture
def drift(monkeypatch):
    runs = {
        "triggered": fake_result(reconfigurations=(1,), trigger_firings=(1,)),
        "control": fake_result(throughput_qps=99.0),
    }
    calls = []
    monkeypatch.setattr(
        experiments, "dynamic_scenario_results", recording(calls, runs)
    )
    return calls


@pytest.mark.parametrize(("reduced", "scale"), [(True, "reduced"), (False, "full")])
class TestSuiteRowsComeFromTheRunners:
    def test_autoscale_sweep(self, iso_sla, reduced, scale):
        ctx = SuiteContext(suite="any", seed=5, reduced=reduced)
        rows = run_experiment("autoscale_sweep", ctx)
        assert iso_sla == [((scale,), {"seed": 5, "n_jobs": 1})]
        assert [row.design for row in rows] == ["static-3", "static-1", "autoscaled"]
        assert rows[0].metrics == {"violation_rate": 0.0, "cost": 300.0}
        assert rows[1].detail == {"fleet": "1x", "feasible": False}
        auto = rows[-1]
        assert auto.metrics["cost"] == 42.0
        assert auto.metrics["availability"] == 0.75
        assert [window["index"] for window in auto.windows] == [0, 1]
        assert len(auto.events) == 3
        assert (auto.detail["scale_outs"], auto.detail["scale_ins"]) == (2, 1)
        assert auto.detail["target_violation_rate"] == autoscaling.TARGET_VIOLATION_RATE

    def test_fault_sweep(self, fault_sweep, reduced, scale):
        ctx = SuiteContext(suite="any", seed=5, reduced=reduced)
        rows = run_experiment("fault_sweep", ctx)
        assert fault_sweep == [((scale,), {})]
        assert [row.design for row in rows] == ["rate=0", "rate=2"]
        assert {row.rate_qps for row in rows} == {777.0}
        faulty = rows[1]
        assert faulty.metrics["availability"] == 0.875
        assert faulty.detail["scheduled_events"] == 2
        assert (faulty.detail["crashes"], faulty.detail["restarts"]) == (1, 1)
        assert faulty.detail["retries"] == 3
        assert faulty.detail["failed_queries"] == 1
        assert len(faulty.events) == 2

    def test_dynamic_scenario(self, drift, reduced, scale):
        ctx = SuiteContext(suite="any", seed=5, reduced=reduced)
        rows = run_experiment("dynamic_scenario", ctx)
        ((scenario, settings), options) = drift[0]
        assert len(drift) == 1
        assert settings is ctx.settings
        assert options["seed"] == 5
        # the reduced suite drifts a short mobilenet trace in 1 s windows
        assert (scenario.model, options["window"]) == (
            ("mobilenet", 1.0) if scale == "reduced" else ("bert", 2.0)
        )
        triggered, control = rows
        assert triggered.design == f"{scenario.model}/triggered"
        assert triggered.detail["reconfigurations"] == 1
        assert triggered.detail["plan"] == "stub-plan"
        assert control.metrics["throughput_qps"] == 99.0
        assert [window["index"] for window in control.windows] == [0, 1]


class TestPayloadsComeFromTheSameRunners:
    def test_iso_sla_payload(self, iso_sla):
        payload = autoscaling.run_iso_sla_experiment()
        # full scale, the artifact's own scenario seed
        assert iso_sla == [((), {"n_jobs": 1, "log": None})]
        assert [row["servers"] for row in payload["static_frontier"]] == [3, 1]
        assert payload["best_static"]["cost"] == 300.0
        assert payload["autoscaled"]["cost"] == 42.0
        assert payload["autoscaled"]["peak_servers"] == 3
        assert payload["autoscaled"]["scale_outs"] == 2
        assert payload["autoscaled_cheaper"] is True

    def test_fault_payload(self, fault_sweep):
        payload = faults.run_fault_experiment()
        assert fault_sweep == [((), {"log": None})]
        baseline, faulty = payload["sweep"]
        assert (baseline["rate"], faulty["rate"]) == (0.0, 2.0)
        assert faulty["crashes"] == 1
        assert faulty["retries"] == 3
        assert faulty["availability"] == 0.875
        assert faulty["total_queries"] == 10

    def test_dynamic_scenario_rows(self, drift):
        rows = experiments.dynamic_scenario("scenario", window=3.0)
        assert drift == [(("scenario", None), {"window": 3.0})]
        assert [(row["mode"], row["window"]) for row in rows] == [
            ("triggered", 0),
            ("triggered", 1),
            ("control", 0),
            ("control", 1),
        ]
