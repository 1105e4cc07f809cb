"""End-to-end: the daemon over real HTTP.

The PR's acceptance test lives here: three tenant jobs run concurrently over
one shared fleet via the HTTP API, windowed metrics stream live, one job is
cancelled mid-run, and the surviving tenants' final metrics are
bit-identical to running each scenario alone on its quota slice (same
acquisition order against a fresh :class:`FleetPool`).
"""

import json
import threading
import time

import pytest

from repro.daemon import jobs as jobs_module
from repro.daemon.api import DaemonThread
from repro.daemon.client import DaemonClient, DaemonError
from repro.daemon.jobs import JobManager, window_to_dict
from repro.daemon.tenants import FleetPool, TenantSession
from repro.serving.config import ServerConfig
from repro.serving.session import ServingSession
from repro.workload.scenario import build_scenario

SERVERS = [(2, "a100", 12), (2, "a100", 12)]
QUOTA = 8  # 3 × 8 fills the 24-GPC pool: all three jobs admit concurrently

SHORT = {
    "model": "mobilenet",
    "trough_qps": 40.0,
    "peak_qps": 120.0,
    "phase_duration": 6.0,
}
#: 240 simulated seconds — long enough that the cancel below lands mid-run.
LONG = {**SHORT, "phase_duration": 60.0}


def template():
    return ServerConfig(model="mobilenet", fleet=tuple(SERVERS))


@pytest.fixture
def daemon(tmp_path):
    def make_manager():
        return JobManager(
            FleetPool(SERVERS),
            template(),
            tmp_path / "artifacts",
            chunk=1.0,
            expected_tenants=3,
        )

    thread = DaemonThread(make_manager)
    port = thread.start()
    client = DaemonClient(port=port, timeout=60.0)
    yield client, tmp_path / "artifacts"
    try:
        client.shutdown()
    except (DaemonError, OSError):
        pass  # the test already shut the daemon down
    thread.stop()


def streamed_windows(client, job_id):
    """The job's window rows, stripped of the stream envelope."""
    return [
        {k: v for k, v in row.items() if k not in ("type", "job_id")}
        for row in client.watch(job_id)
        if row["type"] == "window"
    ]


def standalone_runs(submissions):
    """Replay the daemon's acquisition order against a fresh pool.

    ``submissions`` is ``[(job_id, options, seed), ...]`` in submission
    order.  Admission is strict FIFO and all grants fit simultaneously, so
    the daemon acquired them in exactly this order — replaying it carves
    bit-identical sub-fleets.
    """
    pool = FleetPool(SERVERS)
    grants = {job_id: pool.acquire(job_id, QUOTA) for job_id, _, _ in submissions}
    results = {}
    for job_id, options, seed in submissions:
        config = pool.config_for(grants[job_id], template())
        tenant = TenantSession(
            job_id,
            ServingSession(config),  # same (default) kwargs as the manager
            build_scenario("diurnal", **options),
            seed=seed,
        )
        tenant.start()
        results[job_id] = tenant.finish()
    return results


class TestEndToEnd:
    def test_three_tenants_cancel_one_survivors_bit_identical(self, daemon):
        client, artifact_root = daemon
        assert client.health() == {"ok": True}
        assert client.fleet()["free_gpcs"] == 24

        alpha = client.submit(
            "alpha", "diurnal", options=SHORT, quota_gpcs=QUOTA, seed=11
        )
        beta = client.submit(
            "beta", "diurnal", options=SHORT, quota_gpcs=QUOTA, seed=22
        )
        victim = client.submit(
            "victim", "diurnal", options=LONG, quota_gpcs=QUOTA, seed=33
        )
        ids = [alpha["job_id"], beta["job_id"], victim["job_id"]]
        assert ids == ["job-0001", "job-0002", "job-0003"]

        # watch the victim's stream live; after the first window proves the
        # job is mid-run, cancel it, then read through to the terminal row
        victim_rows = []
        stream = client.watch(victim["job_id"])
        for row in stream:
            victim_rows.append(row)
            if row["type"] == "window":
                cancelled = client.cancel(victim["job_id"])
                assert cancelled["state"] in ("running", "cancelled")
                break
        victim_rows.extend(stream)
        victim_final = victim_rows[-1]
        assert victim_final["type"] == "status"
        assert victim_final["state"] == "cancelled"
        # the partial result stopped well short of the full 240 s scenario
        assert victim_final["summary"]["simulated_seconds"] < 240.0

        final = {job_id: client.wait(job_id) for job_id in ids[:2]}
        assert all(doc["state"] == "completed" for doc in final.values())

        # all three jobs held quota on the one shared fleet at the same time
        statuses = {doc["job_id"]: doc for doc in client.list_jobs()}
        started = [statuses[job_id]["started_at"] for job_id in ids]
        finished = [statuses[job_id]["finished_at"] for job_id in ids]
        assert all(t is not None for t in started + finished)
        assert max(started) < min(finished)
        assert client.fleet()["free_gpcs"] == 24  # every grant was returned

        # ---- the bit-identity contract -------------------------------- #
        standalone = standalone_runs(
            [(ids[0], SHORT, 11), (ids[1], SHORT, 22), (ids[2], LONG, 33)]
        )
        for job_id in ids[:2]:
            result = standalone[job_id]
            expected_windows = [window_to_dict(w) for w in result.windows]
            assert streamed_windows(client, job_id) == expected_windows

            expected_summary = result.summary()
            expected_summary["simulated_seconds"] = (
                result.simulation.statistics.makespan
            )
            expected_summary["completed_queries"] = (
                result.simulation.statistics.latency.count
            )
            assert final[job_id]["summary"] == expected_summary

            # the on-disk artifacts carry the same windows and summary
            job_dir = artifact_root / job_id
            rows = [
                json.loads(line)
                for line in (job_dir / "windows.ndjson").read_text().splitlines()
            ]
            assert rows == expected_windows
            on_disk = json.loads((job_dir / "result.json").read_text())
            assert on_disk["summary"] == expected_summary
            assert on_disk["state"] == "completed"

        # the cancelled job's artifacts are sealed too
        on_disk = json.loads(
            (artifact_root / ids[2] / "result.json").read_text()
        )
        assert on_disk["state"] == "cancelled"
        assert on_disk["summary"] is not None

        # graceful shutdown drains and the daemon goes away
        assert client.shutdown()["shutting_down"] is True
        with pytest.raises((DaemonError, OSError)):
            client.health()


class TestGrantReturnedBeforeTerminalState:
    """Regression: a job's terminal state used to become visible before its
    grant went back.  The off-loop ``result.json`` write ran in between, so
    ``wait()`` could return while the job still held its GPCs (the
    end-to-end test above then failed intermittently on ``free_gpcs``).
    Here the write is slowed, and ``wait()`` starts while it runs."""

    @pytest.fixture
    def result_write_started(self, monkeypatch):
        started = threading.Event()
        real_write = jobs_module._write_json_file

        def slow_write(path, payload):
            if path.name == "result.json":
                started.set()
                time.sleep(0.3)
            real_write(path, payload)

        monkeypatch.setattr(jobs_module, "_write_json_file", slow_write)
        return started

    def test_completed_job_frees_its_gpcs_before_wait_returns(
        self, daemon, result_write_started
    ):
        client, _ = daemon
        job = client.submit("solo", "diurnal", options=SHORT, quota_gpcs=QUOTA, seed=11)
        assert result_write_started.wait(60.0)
        assert client.wait(job["job_id"])["state"] == "completed"
        assert client.fleet()["free_gpcs"] == 24

    def test_cancelled_job_frees_its_gpcs_before_wait_returns(
        self, daemon, result_write_started
    ):
        client, _ = daemon
        job = client.submit("victim", "diurnal", options=LONG, quota_gpcs=QUOTA, seed=33)
        while client.status(job["job_id"])["windows"] == 0:
            time.sleep(0.01)
        client.cancel(job["job_id"])
        assert result_write_started.wait(60.0)
        assert client.wait(job["job_id"])["state"] == "cancelled"
        assert client.fleet()["free_gpcs"] == 24


class TestApiSurface:
    def test_index_and_fleet_documents(self, daemon):
        client, _ = daemon
        info = client.info()
        assert info["service"] == "repro-serving-daemon"
        assert "POST /jobs" in info["endpoints"]
        fleet = client.fleet()
        assert fleet["total_gpcs"] == 24
        assert fleet["default_quota_gpcs"] == 8

    def test_submit_validation_maps_to_400(self, daemon):
        client, _ = daemon
        with pytest.raises(DaemonError) as excinfo:
            client._request("POST", "/jobs", {"tenant": "t"})
        assert excinfo.value.status == 400
        assert "scenario" in excinfo.value.message

    def test_unknown_job_maps_to_404(self, daemon):
        client, _ = daemon
        with pytest.raises(DaemonError) as excinfo:
            client.status("job-9999")
        assert excinfo.value.status == 404
        with pytest.raises(DaemonError) as excinfo:
            list(client.watch("job-9999"))
        assert excinfo.value.status == 404

    def test_unknown_path_and_method(self, daemon):
        client, _ = daemon
        with pytest.raises(DaemonError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404
        with pytest.raises(DaemonError) as excinfo:
            client._request("PUT", "/jobs")
        assert excinfo.value.status == 405

    def test_failed_job_reports_its_error(self, daemon):
        client, _ = daemon
        doc = client.submit("t", "no-such-scenario")
        final = client.wait(doc["job_id"])
        assert final["state"] == "failed"
        assert "no-such-scenario" in final["error"]
