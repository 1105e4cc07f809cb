#!/usr/bin/env python
"""Quickstart: serve ResNet-50 on a PARIS-partitioned, ELSA-scheduled server.

This is the smallest end-to-end use of the library:

1. describe the server design point with a ``ServerConfig``
   (PARIS + ELSA are the defaults; any registered policy name works),
2. describe the workload (``WorkloadConfig``: Poisson arrivals, log-normal
   batch sizes),
3. let a one-shot :class:`repro.ServingSession` (``window=None``) profile
   the model, run PARIS, carve the MIG partitions, and replay the workload
   under ELSA,
4. print the chosen partitioning and the serving metrics.

Run with::

    python examples/quickstart.py
"""

from repro import ServerConfig, ServingSession, WorkloadConfig


def main() -> None:
    config = ServerConfig(
        "resnet",             # one of: shufflenet, mobilenet, resnet, bert, conformer
        num_gpus=8,
        gpc_budget=48,        # 48 of the 8x7=56 GPCs (Table I)
        partitioning="paris",
        scheduler="elsa",
        sla_multiplier=1.5,
        max_batch=32,
    )
    session = ServingSession(config, window=None)

    workload = WorkloadConfig(
        model="resnet",
        rate_qps=2000.0,      # offered load
        num_queries=2000,
        max_batch=32,
        sigma=0.9,            # log-normal batch-size distribution
        seed=0,
    )
    result = session.run(workload)

    deployment = session.deployment
    print("PARIS partitioning plan")
    print(f"  model        : {deployment.config.model}")
    print(f"  GPC budget   : {deployment.plan.total_gpcs}")
    print(f"  plan         : {deployment.plan.describe()}")
    print(f"  knees        : {deployment.plan.knees}")
    print(f"  SLA target   : {deployment.sla_target * 1e3:.2f} ms")
    print()
    print("Serving results (ELSA scheduler)")
    for key, value in result.summary().items():
        print(f"  {key:20s}: {value:.3f}")


if __name__ == "__main__":
    main()
