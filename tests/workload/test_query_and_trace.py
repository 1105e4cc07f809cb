"""Tests for the query record and query traces."""

import pytest

from repro.sim.columnar import QueryRecord
from repro.workload.query import Query
from repro.workload.trace import QueryTrace, merge_traces

NAN = float("nan")
INF = float("inf")


def make_query(qid=0, batch=4, arrival=0.0, sla=None):
    return Query(
        query_id=qid, model="resnet", batch=batch, arrival_time=arrival, sla_target=sla
    )


def make_record(arrival=0.0, sla=None, start=None, finish=None):
    """A run's record of one query (the outcome properties live there)."""
    return QueryRecord(
        0, "resnet", 4, arrival, sla, dispatch_time=start, start_time=start, finish_time=finish
    )


class TestQuery:
    def test_invalid_batch_rejected(self):
        with pytest.raises(ValueError):
            make_query(batch=0)

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError):
            make_query(arrival=-1.0)

    @pytest.mark.parametrize("arrival", [NAN, INF, -INF])
    def test_non_finite_arrival_rejected(self, arrival):
        with pytest.raises(
            ValueError, match=r"^arrival_time must be finite and non-negative, got "
        ):
            make_query(arrival=arrival)

    @pytest.mark.parametrize("sla", [NAN, 0.0, -0.0, -1.0, -INF])
    def test_non_positive_sla_rejected(self, sla):
        with pytest.raises(ValueError, match=r"^sla_target must be positive when set, got "):
            make_query(sla=sla)

    def test_valid_edge_values_accepted(self):
        assert make_query(arrival=0.0, sla=5e-324).sla_target == 5e-324
        assert make_query(arrival=1e308).arrival_time == 1e308
        assert make_query(sla=INF).sla_target == INF
        assert make_query() == make_query()

    def test_holds_the_request_alone(self):
        assert Query.__slots__ == ("query_id", "model", "batch", "arrival_time", "sla_target")
        with pytest.raises(AttributeError):
            make_query().finish_time = 1.0

    def test_latency_requires_completion(self):
        record = make_record()
        assert not record.completed
        with pytest.raises(ValueError):
            _ = record.latency

    def test_timing_properties(self):
        record = make_record(arrival=1.0, start=1.5, finish=2.5)
        assert record.latency == pytest.approx(1.5)
        assert record.queueing_delay == pytest.approx(0.5)
        assert record.service_time == pytest.approx(1.0)

    def test_sla_violation_detection(self):
        assert make_record(sla=1.0, start=0.0, finish=2.0).sla_violated
        assert not make_record(sla=1.0, start=0.0, finish=0.5).sla_violated

    def test_no_sla_never_violates(self):
        assert not make_record(start=0.0, finish=100.0).sla_violated


class TestQueryTrace:
    def test_requires_sorted_arrivals(self):
        queries = (make_query(0, arrival=1.0), make_query(1, arrival=0.5))
        with pytest.raises(ValueError):
            QueryTrace(queries)

    def test_basic_statistics(self):
        queries = tuple(make_query(i, batch=2, arrival=float(i)) for i in range(11))
        trace = QueryTrace(queries)
        assert len(trace) == 11
        assert trace.duration == pytest.approx(10.0)
        assert trace.arrival_rate() == pytest.approx(1.0)
        assert trace.total_samples == 22
        assert trace.batch_histogram() == {2: 11}
        assert trace.batch_pdf() == {2: 1.0}

    def test_with_sla_sets_every_query(self):
        trace = QueryTrace(tuple(make_query(i, arrival=float(i)) for i in range(3)))
        with_sla = trace.with_sla(0.5)
        assert all(q.sla_target == 0.5 for q in with_sla)
        assert all(q.sla_target is None for q in trace)  # new queries
        for bad in (0.0, NAN):
            with pytest.raises(ValueError):
                trace.with_sla(bad)
            with pytest.raises(ValueError):
                QueryTrace(()).with_sla(bad)

    def test_merge_traces_sorts_and_renumbers(self):
        a = QueryTrace((make_query(0, arrival=0.0), make_query(1, arrival=2.0)))
        b = QueryTrace((make_query(0, arrival=1.0),))
        merged = merge_traces([a, b])
        assert [q.arrival_time for q in merged] == [0.0, 1.0, 2.0]
        assert [q.query_id for q in merged] == [0, 1, 2]
        assert [q.query_id for q in (*a, *b)] == [0, 1, 0]  # inputs untouched

    def test_empty_trace_statistics(self):
        trace = QueryTrace(())
        assert trace.duration == 0.0
        assert trace.arrival_rate() == 0.0


class TestDegenerateTraces:
    """Empty / single-query / zero-span traces return defined values or
    raise clear errors — never a ZeroDivisionError."""

    def test_empty_trace_batch_statistics(self):
        trace = QueryTrace(())
        assert trace.batch_histogram() == {}
        assert trace.total_samples == 0
        with pytest.raises(ValueError, match="empty trace"):
            trace.batch_pdf()

    def test_single_query_trace(self):
        trace = QueryTrace((make_query(0, arrival=5.0),))
        assert trace.duration == 0.0
        assert trace.arrival_rate() == 0.0
        assert trace.batch_pdf() == {4: 1.0}

    def test_simultaneous_arrivals_have_zero_rate(self):
        trace = QueryTrace(
            (make_query(0, arrival=1.0), make_query(1, arrival=1.0))
        )
        assert trace.duration == 0.0
        assert trace.arrival_rate() == 0.0  # no span to rate over

    def test_merge_of_nothing_is_empty(self):
        merged = merge_traces([])
        assert len(merged) == 0
        assert merged.duration == 0.0

    def test_merge_of_empty_traces_is_empty(self):
        merged = merge_traces([QueryTrace(()), QueryTrace(())])
        assert len(merged) == 0
        assert merged.arrival_rate() == 0.0

    def test_merge_with_empty_trace_keeps_queries(self):
        a = QueryTrace((make_query(0, arrival=0.0),))
        merged = merge_traces([QueryTrace(()), a])
        assert [q.arrival_time for q in merged] == [0.0]
        assert merged.batch_pdf() == {4: 1.0}
