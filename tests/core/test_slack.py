"""Tests for ELSA's SLA slack predictor (Equations 1 and 2)."""

import pytest

from repro.core.slack import SlackEstimator
from repro.gpu.partition import GPUPartition, PartitionInstance
from repro.sim.columnar import QueryColumns
from repro.sim.worker import PartitionWorker
from repro.workload.query import Query
from tests.sim.helpers import constant_profile, enqueue


def make_worker(gpcs=1, latency=2.0):
    instance = PartitionInstance(0, GPUPartition(gpcs))
    return PartitionWorker(instance, latency_fn=lambda *a: latency, columns=QueryColumns())


def make_query(qid=0, batch=4):
    return Query(query_id=qid, model="toy", batch=batch, arrival_time=0.0)


class TestSlackEstimator:
    def test_idle_partition_slack_is_sla_minus_execution(self):
        profile = constant_profile({1: 2.0})
        estimator = SlackEstimator(profile)
        prediction = estimator.predict(make_worker(latency=2.0), batch=4,
                                       sla_target=5.0, now=0.0)
        assert prediction.wait_time == 0.0
        assert prediction.execution_time == pytest.approx(2.0)
        assert prediction.slack == pytest.approx(3.0)
        assert prediction.satisfies_sla

    def test_wait_time_includes_running_and_queued_queries(self):
        """Equation 1: T_wait = sum(T_estimated,queued) + T_remaining,current."""
        profile = constant_profile({1: 2.0})
        estimator = SlackEstimator(profile)
        worker = make_worker(latency=2.0)
        enqueue(worker, make_query(0), 0.0)
        worker.start_next(0.0)          # runs [0, 2]
        enqueue(worker, make_query(1), 0.0)  # queued: 2 s

        prediction = estimator.predict(worker, batch=4, sla_target=10.0, now=0.5)
        assert prediction.wait_time == pytest.approx(1.5 + 2.0)
        assert prediction.completion_time == pytest.approx(3.5 + 2.0)

    def test_negative_slack_flags_violation(self):
        profile = constant_profile({1: 2.0})
        estimator = SlackEstimator(profile)
        prediction = estimator.predict(make_worker(), batch=4, sla_target=1.0, now=0.0)
        assert prediction.slack < 0
        assert not prediction.satisfies_sla

    def test_alpha_scales_the_whole_delay(self):
        """Equation 2: slack = SLA - alpha * (T_wait + beta * T_est)."""
        profile = constant_profile({1: 2.0})
        loose = SlackEstimator(profile, alpha=1.0).predict(
            make_worker(), 4, sla_target=3.0, now=0.0
        )
        strict = SlackEstimator(profile, alpha=2.0).predict(
            make_worker(), 4, sla_target=3.0, now=0.0
        )
        assert loose.slack == pytest.approx(1.0)
        assert strict.slack == pytest.approx(-1.0)

    def test_beta_weights_new_query_execution(self):
        profile = constant_profile({1: 2.0})
        heavy = SlackEstimator(profile, beta=2.0).predict(
            make_worker(), 4, sla_target=10.0, now=0.0
        )
        assert heavy.slack == pytest.approx(10.0 - 4.0)

    def test_no_sla_gives_infinite_slack(self):
        profile = constant_profile({1: 2.0})
        prediction = SlackEstimator(profile).predict(
            make_worker(), 4, sla_target=None, now=0.0
        )
        assert prediction.slack == float("inf")
        assert prediction.satisfies_sla

    def test_invalid_coefficients_rejected(self):
        profile = constant_profile({1: 2.0})
        with pytest.raises(ValueError):
            SlackEstimator(profile, alpha=0.0)
        with pytest.raises(ValueError):
            SlackEstimator(profile, beta=-1.0)

    def test_estimated_execution_time_reads_profile(self):
        profile = constant_profile({1: 2.0, 7: 0.5})
        estimator = SlackEstimator(profile)
        assert estimator.estimated_execution_time(8, 1) == pytest.approx(2.0)
        assert estimator.estimated_execution_time(8, 7) == pytest.approx(0.5)
