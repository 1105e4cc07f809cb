#!/usr/bin/env python
"""Serve a mixed two-model trace on one reconfigurable server.

Production inference clusters rarely serve a single model.  This example
co-locates ResNet-50 and MobileNet on one PARIS-partitioned server:

1. build a multi-model session from a ``ServerConfig`` with
   ``extra_models`` — the partitioning is driven by the primary model
   (ResNet), while profiles for
   every served model are loaded so the simulator and ELSA's slack
   estimator can predict per-model latencies,
2. generate one trace per model and merge them into a single mixed arrival
   stream,
3. replay the mixed trace and report metrics per model.

Run with::

    python examples/multi_model_serving.py
"""

from collections import defaultdict

from repro import (
    QueryGenerator,
    ServerConfig,
    ServingSession,
    WorkloadConfig,
    merge_traces,
)

PRIMARY = "resnet"
SECONDARY = "mobilenet"


def main() -> None:
    config = ServerConfig(
        PRIMARY,
        extra_models=(SECONDARY,),
        num_gpus=8,
        gpc_budget=48,
        scheduler="elsa",
    )
    session = ServingSession(config, window=None)

    resnet_load = WorkloadConfig(
        model=PRIMARY, rate_qps=800.0, num_queries=1500, seed=1
    )
    mobilenet_load = WorkloadConfig(
        model=SECONDARY, rate_qps=1600.0, num_queries=1500, seed=2
    )
    mixed = merge_traces(
        [
            QueryGenerator(resnet_load).generate(),
            QueryGenerator(mobilenet_load).generate(),
        ]
    )

    # The partitioner needs a batch PDF; use the primary workload's.
    session.deploy(batch_pdf=QueryGenerator(resnet_load).batch_pdf())
    result = session.run(mixed)

    deployment = session.deployment
    print(f"served models : {', '.join(deployment.models)}")
    print(f"plan          : {deployment.plan.describe()}")
    for model in deployment.models:
        print(f"SLA target    : {model} = "
              f"{deployment.sla_target_for(model) * 1e3:.2f} ms")
    print()

    per_model = defaultdict(list)
    for query in result.simulation.queries:
        per_model[query.model].append(query)
    for model, queries in sorted(per_model.items()):
        latencies = sorted(q.latency for q in queries)
        p95 = latencies[int(0.95 * (len(latencies) - 1))]
        violations = sum(q.sla_violated for q in queries)
        print(
            f"{model:10s}: {len(queries):5d} queries  "
            f"p95 = {p95 * 1e3:7.2f} ms  "
            f"SLA violations = {violations / len(queries):6.2%}"
        )
    print()
    print(f"aggregate throughput: {result.throughput_qps:.1f} qps")


if __name__ == "__main__":
    main()
