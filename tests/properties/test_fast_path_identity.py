"""Properties pinning the replay core's shortcuts: speed never changes outcomes.

* the memoized / vectorised estimator surfaces of
  :class:`~repro.perf.lookup.CachedEstimator` agree **exactly** (``==`` on
  floats, not approx) with uncached :class:`~repro.perf.lookup.ProfileTable`
  lookups;
* the lazy columnar :class:`~repro.sim.hooks.WindowedMetrics` digestion
  agrees with the event-driven observer fed the same run's events;
* PARIS plans are memoized per (PDF, budget).

Exact replay outcomes per scheduler family are pinned by the committed
replay corpus (``tests/sim/test_replay_corpus.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.schedulers import FifsScheduler
from repro.perf.lookup import CachedEstimator, ProfileEntry, ProfileTable
from repro.sim.cluster import InferenceServerSimulator
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


@settings(max_examples=60, deadline=None)
@given(table=profile_tables(), batches=st.lists(st.integers(1, 96), min_size=1, max_size=12))
def test_vectorised_interpolation_matches_scalar(table, batches):
    estimator = CachedEstimator({"prop": table})
    query = np.asarray(batches, dtype=np.int64)
    for gpcs in table.partition_sizes:
        vectorised = estimator.batch_latencies("prop", gpcs, query)
        scalar = np.asarray([table.latency(gpcs, b) for b in batches])
        assert vectorised.shape == query.shape
        assert (vectorised == scalar).all()


@settings(max_examples=40, deadline=None)
@given(table=profile_tables(), batch=st.integers(1, 200))
def test_extrapolated_latency_stays_strictly_positive(table, batch):
    for gpcs in table.partition_sizes:
        assert table.latency(gpcs, batch) > 0.0
        assert table.throughput(gpcs, batch) > 0.0


# --------------------------------------------------------------------------- #
# windowed metrics: columnar digestion vs event-driven accumulation
# --------------------------------------------------------------------------- #
LATENCIES = {1: 0.9, 3: 0.5, 7: 0.2}


@settings(max_examples=20, deadline=None)
@given(
    spec=st.lists(
        st.tuples(st.floats(0.0, 6.0, allow_nan=False), st.integers(1, 32)),
        min_size=1,
        max_size=40,
    ),
)
def test_windowed_metrics_columnar_counts_match_event_driven(spec):
    """The lazy columnar WindowedMetrics digestion reports exactly the same
    integer counts (and window bucketing) as an event-driven observer fed
    the run's recorded lifecycle events; float summaries agree to numerical
    noise."""
    from repro.sim.hooks import EventLog, WindowedMetrics

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
    event_driven = WindowedMetrics(window=0.5)
    for event in log.events:
        event_driven.on_event(event)

    assert columnar.observed_batch_histogram(
        6.5, lookback_windows=13
    ) == event_driven.observed_batch_histogram(6.5, lookback_windows=13)
    assert columnar.recent_violation_stats(
        6.5, lookback_windows=13
    ) == event_driven.recent_violation_stats(6.5, lookback_windows=13)
    columnar_series, event_series = columnar.series(), event_driven.series()
    assert len(columnar_series) == len(event_series)
    for columnar_window, event_window in zip(columnar_series, event_series):
        assert columnar_window.index == event_window.index
        assert columnar_window.arrivals == event_window.arrivals
        assert columnar_window.completions == event_window.completions
        assert columnar_window.sla_count == event_window.sla_count
        assert columnar_window.violations == event_window.violations
        assert columnar_window.reconfiguring == event_window.reconfiguring
        assert columnar_window.mean_latency == pytest.approx(
            event_window.mean_latency, rel=1e-12, abs=1e-15
        )
        assert columnar_window.p95_latency == event_window.p95_latency


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
