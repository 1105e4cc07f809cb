"""Tests for the profiled lookup table."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.perf.lookup import CachedEstimator, ProfileEntry, ProfileTable


def make_table():
    entries = []
    for gpcs, scale in ((1, 4.0), (7, 1.0)):
        for batch in (1, 2, 4, 8):
            latency = scale * 0.001 * batch
            entries.append(
                ProfileEntry(
                    gpcs=gpcs,
                    batch=batch,
                    latency_s=latency,
                    utilization=min(1.0, 0.2 * batch),
                    throughput_qps=1.0 / latency,
                )
            )
    return ProfileTable("toy", entries)


class TestProfileTable:
    def test_requires_entries(self):
        with pytest.raises(ValueError):
            ProfileTable("empty", [])

    def test_exact_lookup(self):
        table = make_table()
        assert table.latency(7, 4) == pytest.approx(0.004)
        assert table.entry(1, 8).latency_s == pytest.approx(0.032)

    def test_partition_and_batch_introspection(self):
        table = make_table()
        assert table.partition_sizes == [1, 7]
        assert table.batch_sizes(7) == [1, 2, 4, 8]
        assert table.max_batch == 8

    def test_unprofiled_partition_raises(self):
        table = make_table()
        with pytest.raises(KeyError):
            table.latency(3, 2)
        with pytest.raises(KeyError):
            table.entry(7, 5)

    def test_interpolation_between_profiled_batches(self):
        table = make_table()
        assert table.latency(7, 3) == pytest.approx(0.003)
        assert table.latency(7, 6) == pytest.approx(0.006)

    def test_extrapolation_above_largest_batch(self):
        table = make_table()
        assert table.latency(7, 16) == pytest.approx(0.016)

    def test_below_smallest_batch_clamps(self):
        table = make_table()
        assert table.latency(7, 1) == pytest.approx(0.001)
        with pytest.raises(ValueError):
            table.latency(7, 0)

    def test_throughput_is_inverse_of_latency(self):
        table = make_table()
        assert table.throughput(1, 4) == pytest.approx(1.0 / table.latency(1, 4))

    def test_utilization_clamped_to_one(self):
        table = make_table()
        assert table.utilization(1, 8) <= 1.0

    def test_round_trip_serialization(self):
        table = make_table()
        restored = ProfileTable.from_json(table.to_json())
        assert restored.model_name == table.model_name
        assert restored.partition_sizes == table.partition_sizes
        for gpcs in table.partition_sizes:
            for batch in table.batch_sizes(gpcs):
                assert restored.latency(gpcs, batch) == pytest.approx(
                    table.latency(gpcs, batch)
                )

    def test_rows_enumeration(self):
        table = make_table()
        rows = table.rows()
        assert len(rows) == 8
        assert all(len(row) == 5 for row in rows)


@settings(max_examples=40, deadline=None)
@given(batch=st.integers(1, 20))
def test_interpolated_latency_is_monotone(batch):
    """Property: interpolation preserves monotonicity of a monotone profile."""
    table = make_table()
    if batch > 1:
        assert table.latency(7, batch) >= table.latency(7, batch - 1) - 1e-12


def make_negative_slope_table():
    """The ISSUE repro: latency *drops* across the last profiled segment.

    (gpcs=7, batch=1) -> 0.10 s and (batch=8) -> 0.02 s: linear
    extrapolation of that slope crosses zero at batch ~9.75, so any larger
    batch used to report latency == 0.0 (and throughput 0), crashing
    PartitionWorker.service_time mid-simulation.
    """
    entries = [
        ProfileEntry(gpcs=7, batch=1, latency_s=0.10, utilization=0.5,
                     throughput_qps=10.0),
        ProfileEntry(gpcs=7, batch=8, latency_s=0.02, utilization=0.9,
                     throughput_qps=50.0),
    ]
    return ProfileTable("negative-slope", entries)


class TestExtrapolationFloor:
    def test_negative_slope_extrapolation_stays_positive(self):
        table = make_negative_slope_table()
        latency = table.latency(7, 16)
        assert latency > 0.0
        # floored at the last profiled point decaying harmonically: 0.02 * 8/16
        assert latency == pytest.approx(0.01)

    def test_throughput_stays_finite_and_positive(self):
        table = make_negative_slope_table()
        assert table.throughput(7, 16) == pytest.approx(100.0)
        assert table.throughput(7, 1000) > 0.0

    def test_worker_service_time_no_longer_crashes(self):
        from repro.gpu.partition import GPUPartition, PartitionInstance
        from repro.sim.columnar import QueryColumns
        from repro.sim.worker import PartitionWorker
        from repro.workload.query import Query

        table = make_negative_slope_table()
        worker = PartitionWorker(
            PartitionInstance(0, GPUPartition(7)),
            latency_fn=lambda model, batch, gpcs: table.latency(gpcs, batch),
            columns=QueryColumns(),
        )
        query = Query(query_id=0, model="negative-slope", batch=16, arrival_time=0.0)
        assert worker.service_time(query) > 0.0

    def test_mildly_negative_slope_keeps_linear_value(self):
        # Extrapolation that stays above the floor is untouched.
        entries = [
            ProfileEntry(gpcs=1, batch=4, latency_s=1.00, utilization=0.5,
                         throughput_qps=1.0),
            ProfileEntry(gpcs=1, batch=8, latency_s=0.98, utilization=0.6,
                         throughput_qps=1.02),
        ]
        table = ProfileTable("mild", entries)
        assert table.latency(1, 12) == pytest.approx(0.96)

    def test_positive_slope_extrapolation_unchanged(self):
        table = make_table()
        assert table.latency(7, 16) == pytest.approx(0.016)

    def test_interior_interpolation_unchanged(self):
        table = make_negative_slope_table()
        # batch 4: linear between (1, 0.10) and (8, 0.02)
        expected = 0.10 + (0.02 - 0.10) / 7 * 3
        assert table.latency(7, 4) == pytest.approx(expected)


class TestCachedEstimator:
    def test_matches_table_and_memoizes(self):
        table = make_table()
        estimator = CachedEstimator({"toy": table})
        assert estimator("toy", 5, 7) == table.latency(7, 5)
        assert estimator("toy", 5, 7) == table.latency(7, 5)
        assert estimator.cache_info()["entries"] == 1
        assert estimator.latency("toy", 3, 1) == table.latency(1, 3)

    def test_throughput_inverse_of_latency(self):
        table = make_table()
        estimator = CachedEstimator({"toy": table})
        assert estimator.throughput("toy", 4, 7) == table.throughput(7, 4)

    def test_unknown_model_raises_without_fallback(self):
        estimator = CachedEstimator({"toy": make_table()})
        with pytest.raises(KeyError, match="no profile table"):
            estimator("other", 1, 7)

    def test_fallback_table_answers_unknown_models(self):
        table = make_table()
        estimator = CachedEstimator({"toy": table}, fallback=table)
        assert estimator("other", 4, 7) == table.latency(7, 4)
        assert estimator(None, 4, 7) == table.latency(7, 4)

    def test_requires_some_table(self):
        with pytest.raises(ValueError):
            CachedEstimator({})

    def test_models_listing(self):
        estimator = CachedEstimator({"toy": make_table()})
        assert estimator.models == ["toy"]
