"""Event-hook overhead benchmark: streaming loop vs the bare replay loop.

The streaming redesign routed every simulator run through the lifecycle-event
layer; with no observers attached the emission is skipped entirely, and with
observers the pre-resolved dispatch table only constructs events somebody
listens to.  This benchmark pins the contract: a run with the session's
default observer (WindowedMetrics) costs at most 10% more than the bare
replay loop, and writes a ``bench-out/BENCH_session.json`` trajectory file
recording the timings and the hooked run's windowed throughput series.
"""

import json
import time

from repro.sim.hooks import WindowedMetrics
from repro.workload.generator import QueryGenerator, WorkloadConfig

NUM_QUERIES = 3000
RATE_QPS = 2000.0
ROUNDS = 5
#: the measurement is re-attempted (fresh interleaved rounds) when it lands
#: over the bound, so transient scheduler noise on a loaded CI machine does
#: not fail the gate; a genuine regression fails every attempt
ATTEMPTS = 3
MAX_OVERHEAD = 0.10
#: absolute slack absorbing scheduler jitter on loaded CI machines
NOISE_FLOOR_S = 0.003


def _time_once(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _measure_pair(run_plain, run_hooked, rounds=ROUNDS):
    """Best-of-N for both variants, interleaved so load drift cancels."""
    plain_times, hooked_times = [], []
    for _ in range(rounds):
        plain_times.append(_time_once(run_plain))
        hooked_times.append(_time_once(run_hooked))
    return min(plain_times), min(hooked_times)


def test_event_hook_overhead(benchmark, settings, bench_out):
    deployment = settings.build("mobilenet", "paris", "elsa")
    workload = WorkloadConfig(
        model="mobilenet",
        rate_qps=RATE_QPS,
        num_queries=NUM_QUERIES,
        seed=1,
        sla_target=deployment.sla_target,
    )
    trace = QueryGenerator(workload).generate()

    def run_plain():
        return deployment.simulator(seed=0).run(trace)

    windowed_holder = {}

    def run_hooked():
        simulator = deployment.simulator(seed=0)
        windowed = WindowedMetrics(window=0.25)
        simulator.add_observer(windowed)
        result = simulator.run(trace)
        windowed_holder["windowed"] = windowed
        return result

    # warm-up (profiles, numpy, allocator)
    plain_result = run_plain()
    hooked_result = run_hooked()
    assert plain_result.statistics == hooked_result.statistics

    benchmark.pedantic(run_hooked, rounds=ROUNDS, iterations=1)
    for attempt in range(1, ATTEMPTS + 1):
        plain_s, hooked_s = _measure_pair(run_plain, run_hooked)
        if hooked_s <= plain_s * (1.0 + MAX_OVERHEAD) + NOISE_FLOOR_S:
            break
    overhead = hooked_s / plain_s - 1.0

    windows = windowed_holder["windowed"].series()
    (bench_out / "BENCH_session.json").write_text(
        json.dumps(
            {
                "benchmark": "session_event_hook_overhead",
                "num_queries": NUM_QUERIES,
                "rate_qps": RATE_QPS,
                "rounds": ROUNDS,
                "attempts": attempt,
                "plain_best_s": plain_s,
                "hooked_best_s": hooked_s,
                "overhead_fraction": overhead,
                "max_overhead_fraction": MAX_OVERHEAD,
                "trajectory": {
                    "window_s": 0.25,
                    "throughput_qps": [w.throughput_qps for w in windows],
                    "p95_latency_ms": [w.p95_latency * 1e3 for w in windows],
                    "violation_rate": [w.violation_rate for w in windows],
                },
            },
            indent=2,
        )
        + "\n"
    )
    print(
        f"\nplain {plain_s * 1e3:.1f} ms, hooked {hooked_s * 1e3:.1f} ms, "
        f"overhead {overhead * 100:.1f}% (bound {MAX_OVERHEAD:.0%})"
    )
    assert hooked_s <= plain_s * (1.0 + MAX_OVERHEAD) + NOISE_FLOOR_S
