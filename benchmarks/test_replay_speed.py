"""Replay-speed benchmark: simulated queries per wall-second.

Replay speed only counts if it is measured on a fixed input, so this
benchmark times a pinned overloaded PARIS+ELSA workload — the regime the
paper's latency-bounded-throughput searches spend most of their replays in —
and records:

* ``queries_per_sec`` and ``events`` of the best of ``ROUNDS`` replays;
* ``calibration_s``: the fastest run of a fixed pure-Python loop
  (:func:`perfbench.harness.calibration_s`, no ``repro`` code) timed between
  the replays;
* ``calibrated_qps = queries_per_sec x calibration_s``: queries replayed in
  the time the machine takes for one calibration loop, so runner speed
  cancels and ``benchmarks/compare_bench.py`` can hold it against the
  committed baseline.

Both variants also replay ``OVERLOAD_QUERIES`` queries of the paper
deployment at ``OVERLOAD_MULTIPLIER`` x its frontend cap and assert at most
``MAX_EVENTS_PER_QUERY`` events per query: queries waiting at the frontend
cost one slot event per admission, so a per-arrival retry storm (O(backlog)
events per admission) fails on a deterministic count, not on timing.

Simulated outcomes are pinned by the replay corpus
(``tests/sim/test_replay_corpus.py``), not here.  A rate sweep over the warm
``ParallelRunner`` must also return results identical to the serial sweep;
on multi-core machines the warm pool must beat the serial sweep outright,
and on single-core machines the auto-fallback must keep it from *losing* to
serial (the pre-warm-pool pool respawned per call and re-pickled the
deployment per point, making ``n_jobs=2`` ~15% slower than serial on one
core).

Fresh payloads go to the git-ignored ``bench-out/`` directory:
``BENCH_speed.json`` from the full benchmark and ``BENCH_smoke.json`` from
the small ``perf_smoke``-marked variant that CI compares with the committed
baseline of the same name at the repository root.
"""

import json
import os
import time

import pytest

from perfbench.harness import calibration_s
from repro.analysis.sweep import ParallelRunner, capacity_estimate, sweep_rates
from repro.workload.generator import QueryGenerator, WorkloadConfig

NUM_QUERIES = 6000
RATE_MULTIPLIER = 1.3
ROUNDS = 3
#: re-attempted with fresh interleaved rounds when a loaded machine smears a
#: measurement; a genuine regression fails every attempt
ATTEMPTS = 3
SMOKE_NUM_QUERIES = 1500

OVERLOAD_QUERIES = 1500
OVERLOAD_MULTIPLIER = 4.0
#: Per query: one arrival, one completion, at most one frontend slot
#: admission and at most one stale slot re-arm.
MAX_EVENTS_PER_QUERY = 4.0

SWEEP_POINTS = 4
SWEEP_QUERIES = 2500
SWEEP_JOBS = 2
SWEEP_ROUNDS = 3
SMOKE_SWEEP_POINTS = 2
#: Above ``ParallelRunner.min_fork_work`` (1000 simulated queries per
#: point), so on two or more cores the smoke sweep's ``speedup > 1.0`` times
#: a real warm pool against the inline loop.
SMOKE_SWEEP_QUERIES = 1500
#: Per-point work of a sweep the runner must keep inline.
BELOW_FORK_QUERIES = 800
#: On a single core the runner's auto-fallback makes the "warm" sweep run
#: the very same inline loop as the serial sweep, so it may only trail by
#: measurement noise — never by a real margin.
SINGLE_CORE_MIN_RATIO = 0.9


def _pinned_workload(settings, deployment, num_queries):
    workload = WorkloadConfig(
        model="mobilenet",
        rate_qps=1.0,
        num_queries=num_queries,
        seed=1,
        sla_target=deployment.sla_target,
    )
    capacity = capacity_estimate(deployment, workload)
    from dataclasses import replace

    return replace(workload, rate_qps=RATE_MULTIPLIER * capacity)


def _measure_replay(deployment, trace):
    """Best-of-``ROUNDS`` replay, with the calibration loop run between
    replays (its fastest time is the one least disturbed by the machine)."""
    replay_times, calibrations = [], [calibration_s()]
    events = 0
    for _ in range(ROUNDS):
        simulator = deployment.simulator(seed=0)
        start = time.perf_counter()
        simulator.run(trace)
        replay_times.append(time.perf_counter() - start)
        events = simulator.events_processed
        calibrations.append(calibration_s())
    best_s = min(replay_times)
    queries_per_sec = len(trace) / best_s
    calibration = min(calibrations)
    return {
        "events": events,
        "best_s": best_s,
        "queries_per_sec": queries_per_sec,
        "calibration_s": calibration,
        "calibrated_qps": queries_per_sec * calibration,
    }


def _overload_gate(deployment):
    """Replay the pinned overload trace; returns the recorded payload."""
    workload = WorkloadConfig(
        model="mobilenet",
        rate_qps=OVERLOAD_MULTIPLIER * deployment.config.frontend_capacity_qps,
        num_queries=OVERLOAD_QUERIES,
        seed=1,
        sla_target=deployment.sla_target,
    )
    trace = QueryGenerator(workload).generate()
    simulator = deployment.simulator(seed=0)
    start = time.perf_counter()
    simulator.run(trace)
    elapsed = time.perf_counter() - start
    events = simulator.events_processed
    events_per_query = events / len(trace)
    assert events_per_query <= MAX_EVENTS_PER_QUERY, (
        f"{events_per_query:.2f} events per query at {OVERLOAD_MULTIPLIER:g}x the "
        f"frontend cap (limit {MAX_EVENTS_PER_QUERY:g}): replay cost is no "
        "longer linear in queries"
    )
    return {
        "num_queries": len(trace),
        "rate_multiplier": OVERLOAD_MULTIPLIER,
        "events": events,
        "events_per_query": events_per_query,
        "queries_per_sec": len(trace) / elapsed,
    }


def _measure_sweep(deployment, workload, rates, n_jobs, rounds=SWEEP_ROUNDS):
    """One cold warm-pool sweep, then ``rounds`` interleaved serial/warm pairs.

    Interleaving the two timed paths (and keeping the best of each) is what
    makes the serial/warm ratio trustworthy on a noisy shared machine — the
    old single-sample measurement once reported the warm path "losing" 15%
    on a box where both paths ran the identical inline loop.
    """
    serial_times, warm_times = [], []
    serial_points = warm_points = None
    with ParallelRunner(n_jobs=n_jobs) as runner:
        start = time.perf_counter()
        cold_points = sweep_rates(deployment, workload, rates, runner=runner)
        cold_s = time.perf_counter() - start
        spawned = runner.warm
        for _ in range(rounds):
            start = time.perf_counter()
            serial_points = sweep_rates(deployment, workload, rates, n_jobs=1)
            serial_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            warm_points = sweep_rates(deployment, workload, rates, runner=runner)
            warm_times.append(time.perf_counter() - start)
    return {
        "serial_points": serial_points,
        "warm_points": warm_points,
        "cold_points": cold_points,
        "serial_s": min(serial_times),
        "warm_s": min(warm_times),
        "cold_s": cold_s,
        "spawned": spawned,
    }


def _sweep_gate(deployment, workload, rates, n_jobs):
    """Identity + never-lose-to-serial gate; returns the recorded payload."""
    cpu_count = os.cpu_count() or 1
    best = None
    for _ in range(ATTEMPTS):
        measured = _measure_sweep(deployment, workload, rates, n_jobs)
        serial = measured["serial_points"]
        assert measured["cold_points"] == serial, "n_jobs changed sweep results"
        assert measured["warm_points"] == serial, "warm pool changed sweep results"
        speedup = measured["serial_s"] / measured["warm_s"]
        if best is None or speedup > best[0]:
            best = (speedup, measured)
        if speedup > (1.0 if cpu_count >= 2 else SINGLE_CORE_MIN_RATIO):
            break
    speedup, measured = best
    if cpu_count >= 2:
        # with real cores available the warm fan-out must pay for itself
        assert speedup > 1.0, (
            f"warm parallel sweep ({measured['warm_s']:.2f}s) did not beat "
            f"the serial sweep ({measured['serial_s']:.2f}s) on "
            f"{cpu_count} cores"
        )
    else:
        assert speedup >= SINGLE_CORE_MIN_RATIO, (
            f"single-core fallback lost to serial: warm "
            f"{measured['warm_s']:.2f}s vs serial {measured['serial_s']:.2f}s "
            f"(ratio {speedup:.2f} < {SINGLE_CORE_MIN_RATIO})"
        )
    return {
        "points": len(rates),
        "n_jobs": n_jobs,
        "rounds": SWEEP_ROUNDS,
        "serial_s": measured["serial_s"],
        "parallel_cold_s": measured["cold_s"],
        "parallel_warm_s": measured["warm_s"],
        "parallel_speedup": speedup,
        "single_core_min_ratio": SINGLE_CORE_MIN_RATIO,
        "pool_spawned": measured["spawned"],
        "cpu_count": cpu_count,
        "results_identical": True,
    }


def _sweep_payload(deployment, num_queries, fractions):
    """The warm-pool sweep gate on the pinned sweep workload."""
    sweep_workload = WorkloadConfig(
        model="mobilenet",
        rate_qps=1.0,
        num_queries=num_queries,
        seed=1,
        sla_target=deployment.sla_target,
    )
    capacity = capacity_estimate(deployment, sweep_workload)
    rates = [capacity * fraction for fraction in fractions]
    # The runner the analysis layer would use: warm pool on multi-core
    # machines, automatic serial fallback on one core.
    return {
        "num_queries": num_queries,
        **_sweep_gate(deployment, sweep_workload, rates, SWEEP_JOBS),
    }


def test_replay_speed(settings, bench_out):
    """The pinned replay's queries/sec, plus the overload and warm-pool sweep gates."""
    deployment = settings.build("mobilenet", "paris", "elsa")
    workload = _pinned_workload(settings, deployment, NUM_QUERIES)
    trace = QueryGenerator(workload).generate()
    replay = _measure_replay(deployment, trace)
    fractions = (0.6, 0.9, 1.1, 1.3)[:SWEEP_POINTS]
    payload = {
        "benchmark": "replay_speed",
        "model": "mobilenet",
        "design": "paris+elsa",
        "num_queries": NUM_QUERIES,
        "rate_multiplier": RATE_MULTIPLIER,
        "rounds": ROUNDS,
        **replay,
        "overload": _overload_gate(deployment),
        "sweep": _sweep_payload(deployment, SWEEP_QUERIES, fractions),
    }
    (bench_out / "BENCH_speed.json").write_text(json.dumps(payload, indent=2) + "\n")


@pytest.mark.perf_smoke
def test_replay_speed_smoke(settings, bench_out):
    """CI smoke variant: small trace, the overload gate, smoke-sized sweep gate.

    Writes ``bench-out/BENCH_smoke.json``; the CI compare step holds its
    ``calibrated_qps`` against the committed ``BENCH_smoke.json``.  CI runs
    this on a 1-core box, which is exactly the configuration the warm-pool
    gate guards: the single-core fallback must keep the warm path within
    noise of serial.
    """
    deployment = settings.build("mobilenet", "paris", "elsa")
    workload = _pinned_workload(settings, deployment, SMOKE_NUM_QUERIES)
    trace = QueryGenerator(workload).generate()
    replay = _measure_replay(deployment, trace)
    fractions = (0.8, 1.2)[:SMOKE_SWEEP_POINTS]
    sweep = _sweep_payload(deployment, SMOKE_SWEEP_QUERIES, fractions)
    # the speedup gate above timed a real pool wherever one can spawn
    assert sweep["pool_spawned"] is (sweep["cpu_count"] >= 2)
    payload = {
        "benchmark": "replay_speed_smoke",
        "num_queries": SMOKE_NUM_QUERIES,
        "rounds": ROUNDS,
        **replay,
        "overload": _overload_gate(deployment),
        "sweep": sweep,
    }
    (bench_out / "BENCH_smoke.json").write_text(json.dumps(payload, indent=2) + "\n")


def test_sweep_below_fork_threshold_spawns_no_pool(settings):
    """Below ``min_fork_work`` per point the runner keeps a sweep inline."""
    deployment = settings.build("mobilenet", "paris", "elsa")
    workload = WorkloadConfig(
        model="mobilenet",
        rate_qps=1.0,
        num_queries=BELOW_FORK_QUERIES,
        seed=1,
        sla_target=deployment.sla_target,
    )
    capacity = capacity_estimate(deployment, workload)
    rates = [capacity * fraction for fraction in (0.8, 1.2)]
    with ParallelRunner(n_jobs=SWEEP_JOBS) as runner:
        assert BELOW_FORK_QUERIES < runner.min_fork_work
        inline = sweep_rates(deployment, workload, rates, runner=runner)
        assert not runner.warm
    assert inline == sweep_rates(deployment, workload, rates, n_jobs=1)
