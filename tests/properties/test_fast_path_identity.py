"""Properties pinning the replay core's shortcuts: speed never changes outcomes.

* the memoized :class:`~repro.perf.lookup.CachedEstimator` agrees
  **exactly** (``==`` on floats, not approx) with uncached
  :class:`~repro.perf.lookup.ProfileTable` lookups;
* the columnar :class:`~repro.sim.hooks.WindowedMetrics` digestion agrees
  with a reference that buckets the same run's recorded events;
* PARIS plans are memoized per (PDF, budget).

Exact replay outcomes per scheduler family are pinned by the committed
replay corpus (``tests/sim/test_replay_corpus.py``).
"""

from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.schedulers import FifsScheduler
from repro.perf.lookup import CachedEstimator, ProfileEntry, ProfileTable
from repro.sim.cluster import InferenceServerSimulator
from repro.sim.hooks import (
    EventLog,
    QueryArrived,
    QueryCompleted,
    QueryFailed,
    ReconfigFinished,
    WindowedMetrics,
)
from tests.sim.helpers import MODEL, constant_profile, make_instances, make_trace


# --------------------------------------------------------------------------- #
# estimator agreement
# --------------------------------------------------------------------------- #
@st.composite
def profile_tables(draw):
    """Random single-model tables with 1-3 partition sizes, 1-6 batches."""
    sizes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=3, unique=True))
    entries = []
    for gpcs in sizes:
        batches = draw(
            st.lists(st.integers(1, 64), min_size=1, max_size=6, unique=True)
        )
        for batch in batches:
            latency = draw(
                st.floats(1e-4, 10.0, allow_nan=False, allow_infinity=False)
            )
            entries.append(
                ProfileEntry(
                    gpcs=gpcs,
                    batch=batch,
                    latency_s=latency,
                    utilization=draw(st.floats(0.0, 1.0)),
                    throughput_qps=1.0 / latency,
                )
            )
    return ProfileTable("prop", entries)


@settings(max_examples=60, deadline=None)
@given(table=profile_tables(), batches=st.lists(st.integers(1, 96), min_size=1, max_size=12))
def test_cached_estimator_matches_uncached_lookups(table, batches):
    estimator = CachedEstimator({"prop": table})
    for gpcs in table.partition_sizes:
        for batch in batches:
            expected = table.latency(gpcs, batch)
            assert estimator("prop", batch, gpcs) == expected
            # repeat: the memoized answer must stay exact
            assert estimator("prop", batch, gpcs) == expected


@settings(max_examples=40, deadline=None)
@given(table=profile_tables(), batch=st.integers(1, 200))
def test_extrapolated_latency_stays_strictly_positive(table, batch):
    for gpcs in table.partition_sizes:
        assert table.latency(gpcs, batch) > 0.0
        assert table.throughput(gpcs, batch) > 0.0


# --------------------------------------------------------------------------- #
# windowed metrics: columnar digestion vs a per-event reference
# --------------------------------------------------------------------------- #
LATENCIES = {1: 0.9, 3: 0.5, 7: 0.2}


def _bucket_events(events, window):
    """Reference digestion: the run's recorded arrival, completion and
    failure events accumulated one at a time into per-window buckets.

    Returns ``(buckets, horizon)``, ``horizon`` being the last such event.
    """
    buckets = defaultdict(
        lambda: {"batches": Counter(), "latencies": [], "sla": 0, "violations": 0, "failures": 0}
    )
    horizon = 0.0
    for event in events:
        if not isinstance(event, (QueryArrived, QueryCompleted, QueryFailed)):
            continue
        horizon = max(horizon, event.time)
        bucket = buckets[int(event.time // window)]
        query = event.query
        if isinstance(event, QueryArrived):
            bucket["batches"][query.batch] += 1
        elif isinstance(event, QueryCompleted):
            latency = event.time - query.arrival_time
            bucket["latencies"].append(latency)
            if query.sla_target is not None:
                bucket["sla"] += 1
                bucket["violations"] += latency > query.sla_target
        else:
            bucket["failures"] += 1
    return buckets, horizon


@settings(max_examples=20, deadline=None)
@given(
    spec=st.lists(
        st.tuples(st.floats(0.0, 6.0, allow_nan=False), st.integers(1, 32)),
        min_size=1,
        max_size=40,
    ),
)
def test_windowed_metrics_columnar_counts_match_event_driven(spec):
    """The columnar WindowedMetrics digestion reports exactly the integer
    counts (and window bucketing) of a reference that buckets the run's
    recorded lifecycle events one at a time; float summaries agree to
    numerical noise."""
    trace = make_trace(sorted(spec, key=lambda s: s[0]), sla=1.0)
    simulator = InferenceServerSimulator(
        instances=make_instances((1, 3, 7)),
        profiles={MODEL: constant_profile(LATENCIES)},
        scheduler=FifsScheduler(),
    )
    columnar, log = WindowedMetrics(window=0.5), EventLog()
    simulator.add_observer(columnar)
    simulator.add_observer(log)
    simulator.run(trace)
    buckets, horizon = _bucket_events(log.events, 0.5)
    downtime = [(e.time - e.downtime, e.time) for e in log.of_type(ReconfigFinished)]

    # t=6.5 is a window boundary, so a 13-window lookback covers windows 0-12
    lookback = [buckets[index] for index in range(13)]
    assert columnar.observed_batch_histogram(6.5, lookback_windows=13) == sum(
        (bucket["batches"] for bucket in lookback), Counter()
    )
    assert columnar.recent_violation_stats(6.5, lookback_windows=13) == (
        sum(bucket["violations"] for bucket in lookback),
        sum(bucket["sla"] for bucket in lookback),
    )
    series = columnar.series()
    assert len(series) == int(horizon // 0.5) + 1
    for index, window in enumerate(series):
        bucket = buckets[index]
        latencies = bucket["latencies"]
        assert window.index == index
        assert window.arrivals == sum(bucket["batches"].values())
        assert window.completions == len(latencies)
        assert window.sla_count == bucket["sla"]
        assert window.violations == bucket["violations"]
        assert window.failures == bucket["failures"]
        assert window.reconfiguring == any(
            window.start < hi and lo < window.end for lo, hi in downtime
        )
        assert window.mean_latency == pytest.approx(
            float(np.mean(latencies)) if latencies else 0.0, rel=1e-12, abs=1e-15
        )
        assert window.p95_latency == (
            float(np.percentile(latencies, 95)) if latencies else 0.0
        )


def _profile_named(name, latencies):
    entries = [
        ProfileEntry(
            gpcs=gpcs,
            batch=batch,
            latency_s=latency,
            utilization=0.9,
            throughput_qps=1.0 / latency,
        )
        for gpcs, latency in latencies.items()
        for batch in (1, 2, 4, 8, 16, 32)
    ]
    return ProfileTable(name, entries)


# --------------------------------------------------------------------------- #
# PARIS plan memoization: the plan is a function of (PDF, budget), not rate
# --------------------------------------------------------------------------- #
@st.composite
def batch_pdfs(draw):
    batches = draw(
        st.lists(st.integers(1, 32), min_size=1, max_size=6, unique=True)
    )
    weights = [draw(st.floats(0.05, 1.0, allow_nan=False)) for _ in batches]
    return dict(zip(batches, weights))


@settings(max_examples=30, deadline=None)
@given(pdf=batch_pdfs(), budget=st.integers(7, 24))
def test_paris_plan_memoized_across_rate_points(pdf, budget):
    """Replanning the same (PDF, budget) returns the *identical* plan object
    — a latency-bounded-throughput search replans nothing between its rate
    points — while a different PDF genuinely replans."""
    from repro.core.paris import Paris, shared_paris

    profile = _profile_named("memo-model", {1: 0.4, 3: 0.2, 7: 0.1})
    paris = Paris(profile)
    first = paris.plan(pdf, budget)
    for _ in range(3):  # one lookup per simulated bisection step
        assert paris.plan(pdf, budget) is first
    # the process-wide shared planner memoizes across independent builds too
    assert shared_paris(profile).plan(pdf, budget) is shared_paris(profile).plan(
        pdf, budget
    )
    shifted = {batch + 1: probability for batch, probability in pdf.items()}
    assert paris.plan(shifted, budget) is not first
