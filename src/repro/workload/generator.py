"""Reproducible query-trace generation.

Combines an arrival process and a batch-size distribution into a
:class:`~repro.workload.trace.QueryTrace`, following the paper's methodology:
MLPerf-style Poisson arrivals and log-normal query sizes (Section V).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.registry import check_count
from repro.workload.distributions import (
    LogNormalBatchDistribution,
    PoissonArrivalProcess,
)
from repro.workload.query import Query
from repro.workload.trace import QueryTrace


@dataclass(frozen=True)
class WorkloadConfig:
    """Declarative description of a synthetic workload.

    Attributes:
        model: target model name.
        rate_qps: average Poisson arrival rate, queries/second.
        num_queries: number of queries in the trace.
        max_batch: largest batch size of the log-normal distribution.
        sigma: log-normal variance parameter (0.9 default, Figure 13(a)
            sweeps 0.3 and 1.8).
        median_batch: median of the log-normal distribution.
        sla_target: per-query latency SLA in seconds (optional).
        seed: RNG seed shared by the arrival and size samplers.
    """

    model: str
    rate_qps: float
    num_queries: int = 2000
    max_batch: int = 32
    sigma: float = 0.9
    median_batch: float = 8.0
    sla_target: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        # NaN passes every `<= 0` guard, so each float also gets a finite check
        if self.rate_qps <= 0:
            raise ValueError("rate_qps must be positive")
        if not math.isfinite(self.rate_qps):
            raise ValueError(f"rate_qps must be finite, got {self.rate_qps}")
        check_count(self.num_queries, "num_queries must be >= 1 and integral")
        check_count(self.max_batch, "max_batch must be >= 1 and integral")
        if not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be finite, got {self.sigma}")
        if not math.isfinite(self.median_batch):
            raise ValueError(f"median_batch must be finite, got {self.median_batch}")
        if self.sla_target is not None and self.sla_target <= 0:
            raise ValueError("sla_target must be positive when set")
        if self.sla_target is not None and not math.isfinite(self.sla_target):
            raise ValueError(f"sla_target must be finite, got {self.sla_target}")


class QueryGenerator:
    """Generates reproducible query traces from a :class:`WorkloadConfig`."""

    def __init__(self, config: WorkloadConfig) -> None:
        self.config = config
        self.batch_distribution = LogNormalBatchDistribution(
            sigma=config.sigma,
            median=min(config.median_batch, float(config.max_batch)),
            max_batch=config.max_batch,
            seed=config.seed,
        )
        self.arrival_process = PoissonArrivalProcess(
            rate_qps=config.rate_qps, seed=config.seed + 1
        )

    def generate(self) -> QueryTrace:
        """Generate the full trace described by the config."""
        count = self.config.num_queries
        arrivals = self.arrival_process.arrival_times(count)
        batches = self.batch_distribution.sample(size=count)
        queries = tuple(
            Query(
                query_id=idx,
                model=self.config.model,
                batch=int(batches[idx]),
                arrival_time=float(arrivals[idx]),
                sla_target=self.config.sla_target,
            )
            for idx in range(count)
        )
        return QueryTrace(queries)

    def batch_pdf(self) -> dict:
        """The analytical batch-size PDF of the configured distribution.

        This is the ``Dist[]`` input that PARIS consumes (Algorithm 1,
        line 3); using the analytical PDF rather than an empirical histogram
        makes small-trace experiments deterministic.
        """
        return self.batch_distribution.pdf()
