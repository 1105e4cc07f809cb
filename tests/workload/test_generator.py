"""Tests for the workload generator."""

import numpy as np
import pytest

from repro.workload.generator import QueryGenerator, WorkloadConfig


class TestWorkloadConfig:
    def test_valid_defaults(self):
        config = WorkloadConfig(model="resnet", rate_qps=100.0)
        assert config.max_batch == 32
        assert config.sigma == 0.9

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate_qps": 0.0},
            {"rate_qps": 100.0, "num_queries": 0},
            {"rate_qps": 100.0, "max_batch": 0},
            {"rate_qps": 100.0, "sla_target": 0.0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadConfig(model="resnet", **kwargs)

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("num_queries", 10.5, r"^num_queries must be >= 1 and integral, got 10.5$"),
            ("num_queries", 0, r"^num_queries must be >= 1 and integral, got 0$"),
            ("max_batch", 8.5, r"^max_batch must be >= 1 and integral, got 8.5$"),
        ],
        ids=["num_queries-fraction", "num_queries-zero", "max_batch-fraction"],
    )
    def test_non_integral_counts_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            WorkloadConfig(model="resnet", rate_qps=100.0, **{field: value})

    def test_numpy_integer_counts_accepted(self):
        config = WorkloadConfig(
            model="resnet", rate_qps=100.0, num_queries=np.int64(50), max_batch=np.int32(16)
        )
        trace = QueryGenerator(config).generate()
        assert len(trace) == 50
        assert max(q.batch for q in trace) <= 16


class TestQueryGenerator:
    def test_generates_requested_number_of_queries(self):
        config = WorkloadConfig(model="bert", rate_qps=50.0, num_queries=200, seed=7)
        trace = QueryGenerator(config).generate()
        assert len(trace) == 200
        assert all(q.model == "bert" for q in trace)
        assert all(1 <= q.batch <= 32 for q in trace)

    def test_arrival_rate_close_to_configured(self):
        config = WorkloadConfig(model="resnet", rate_qps=200.0, num_queries=4000, seed=1)
        trace = QueryGenerator(config).generate()
        assert trace.arrival_rate() == pytest.approx(200.0, rel=0.1)

    def test_sla_target_attached_when_configured(self):
        config = WorkloadConfig(
            model="resnet", rate_qps=10.0, num_queries=5, sla_target=0.01
        )
        trace = QueryGenerator(config).generate()
        assert all(q.sla_target == 0.01 for q in trace)

    def test_reproducible_given_seed(self):
        config = WorkloadConfig(model="mobilenet", rate_qps=100.0, num_queries=50, seed=3)
        a = QueryGenerator(config).generate()
        b = QueryGenerator(config).generate()
        assert [q.batch for q in a] == [q.batch for q in b]
        assert [q.arrival_time for q in a] == [q.arrival_time for q in b]

    def test_different_seeds_differ(self):
        base = dict(model="mobilenet", rate_qps=100.0, num_queries=100)
        a = QueryGenerator(WorkloadConfig(seed=1, **base)).generate()
        b = QueryGenerator(WorkloadConfig(seed=2, **base)).generate()
        assert [q.batch for q in a] != [q.batch for q in b]

    def test_batch_pdf_matches_distribution_support(self):
        config = WorkloadConfig(model="resnet", rate_qps=10.0, max_batch=16)
        pdf = QueryGenerator(config).batch_pdf()
        assert min(pdf) == 1
        assert max(pdf) == 16
        assert sum(pdf.values()) == pytest.approx(1.0)

    def test_max_batch_respected(self):
        config = WorkloadConfig(model="resnet", rate_qps=10.0, num_queries=500,
                                max_batch=8, seed=11)
        trace = QueryGenerator(config).generate()
        assert max(q.batch for q in trace) <= 8
