#!/usr/bin/env python
"""Online re-partitioning from an observed batch-size histogram.

PARIS consumes a batch-size probability density function.  In production this
PDF is not known ahead of time; the paper notes it "can readily be generated
in the inference server by collecting the number of input batch sizes
serviced within a given period of time".  ``ServingSession.repartition``
supports that workflow directly:

1. deploy BERT with PARIS using an assumed (wrong) batch distribution,
2. serve a day of traffic whose real distribution skews to larger batches,
3. rebuild the PDF from the *observed* trace and call ``repartition``,
4. show that the re-partitioned server sustains a higher latency-bounded
   throughput on the real traffic.

Run with::

    python examples/online_repartitioning.py
"""

from repro import QueryGenerator, ServerConfig, ServingSession, WorkloadConfig
from repro.analysis.sweep import latency_bounded_throughput
from repro.workload.distributions import LogNormalBatchDistribution

MODEL = "bert"
BUDGET = 42


def main() -> None:
    # 1. initial deployment assumes mostly tiny batches (median 2)
    assumed_pdf = LogNormalBatchDistribution(sigma=0.9, median=2, max_batch=32).pdf()
    session = ServingSession(
        ServerConfig(MODEL, num_gpus=8, gpc_budget=BUDGET),
        batch_pdf=assumed_pdf,
        window=None,
    )
    initial = session.deploy()

    # 2. the real traffic skews to larger batches (median 12)
    real_traffic = WorkloadConfig(
        model=MODEL, rate_qps=1000.0, num_queries=3000, median_batch=12.0, seed=7
    )
    observed_trace = QueryGenerator(real_traffic).generate()
    before = latency_bounded_throughput(initial, real_traffic, iterations=7)

    # 3. rebuild the PDF from the observed batch sizes and re-run PARIS;
    #    profiles are reused, only the plan and the MIG layout change.
    repartitioned = session.repartition(observed_trace.batch_pdf())

    # 4. compare latency-bounded throughput on the real traffic
    after = latency_bounded_throughput(repartitioned, real_traffic, iterations=7)

    print(f"model: {MODEL}, GPC budget: {BUDGET}")
    print(f"initial plan (assumed median batch 2) : {initial.plan.describe()}")
    print(f"re-partitioned plan (observed traffic): {repartitioned.plan.describe()}")
    print()
    print(f"latency-bounded throughput before: {before.throughput_qps:8.1f} qps")
    print(f"latency-bounded throughput after : {after.throughput_qps:8.1f} qps")
    if before.throughput_qps > 0:
        print(f"improvement: {after.throughput_qps / before.throughput_qps:.2f}x")


if __name__ == "__main__":
    main()
