"""High-level inference service facade.

:class:`InferenceService` is the one-stop public API used by the examples:
give it a design point and a workload description and it profiles the served
models, runs the configured partitioner, reconfigures the simulated
multi-GPU server, generates the query trace and replays it under the
configured scheduler, returning the paper's evaluation metrics.

The service is **multi-model**: list co-located models in
``ServerConfig.extra_models`` (or hand pre-built profiles to the
constructor) and mixed-model traces replay end-to-end — the simulator and
ELSA's slack estimator both consult the per-model profile tables.

The service also supports the paper's *online re-partitioning* workflow:
:meth:`InferenceService.repartition` re-runs the partitioner against a batch
PDF observed in production and atomically swaps in the new deployment,
reusing the cached profiles.

Since the introduction of :class:`~repro.serving.session.ServingSession`
the service is a thin back-compat facade: every replay is executed by a
one-shot session (no triggers, no windowed metrics), which keeps the
results bit-identical to the original replay loop while the streaming
machinery underneath stays single-sourced.  Scenario workloads, live
mid-run repartitioning and lifecycle observers live on the session API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.perf.lookup import ProfileTable
from repro.perf.profiler import Profiler
from repro.serving.config import ServerConfig
from repro.serving.deployment import Deployment
from repro.serving.session import ServingSession
from repro.sim.cluster import SimulationResult
from repro.workload.generator import QueryGenerator, WorkloadConfig
from repro.workload.trace import QueryTrace


@dataclass(frozen=True)
class ServiceResult:
    """Result of serving one workload on one design point.

    Attributes:
        deployment: the materialised deployment that served the workload.
        simulation: the raw simulation result.
        sla_target: the *primary* model's derived SLA target in seconds;
            on multi-model deployments each query is judged against its own
            model's target (see ``deployment.sla_targets``).
    """

    deployment: Deployment
    simulation: SimulationResult
    sla_target: float

    @property
    def p95_latency(self) -> float:
        """p95 tail latency in seconds."""
        return self.simulation.p95_latency

    @property
    def throughput_qps(self) -> float:
        """Achieved throughput in queries/second."""
        return self.simulation.throughput_qps

    @property
    def sla_violation_rate(self) -> float:
        """Fraction of queries that violated the SLA."""
        return self.simulation.sla_violation_rate

    @property
    def mean_utilization(self) -> float:
        """Mean per-partition utilization."""
        return self.simulation.statistics.utilization.mean

    def summary(self) -> Dict[str, float]:
        """Compact numeric summary for reports.

        ``sla_target_ms`` is the primary model's target; per-query violation
        statistics always use each query's own (per-model) SLA.
        """
        return {
            "p95_latency_ms": self.p95_latency * 1e3,
            "mean_latency_ms": self.simulation.statistics.latency.mean * 1e3,
            "throughput_qps": self.throughput_qps,
            "sla_violation_rate": self.sla_violation_rate,
            "mean_utilization": self.mean_utilization,
            "sla_target_ms": self.sla_target * 1e3,
        }


class InferenceService:
    """End-to-end facade over profiling, partitioning, deployment, simulation.

    Args:
        config: the server design point to realise.  ``config.extra_models``
            names additional co-located models to serve.
        profiler: optional custom profiler (e.g. different batch sweep) for
            models lacking a pre-built profile; ``None`` (the default) takes
            their tables from the process-wide cache
            (:func:`~repro.perf.profiler.cached_profile`).
        batch_pdf: optional explicit batch-size PDF for the partitioner;
            when omitted, the analytical PDF of the workload passed to
            :meth:`serve` is used (the common case).  Must be non-empty when
            provided.
        profiles: optional pre-built profile tables keyed by model name;
            models missing from the mapping are profiled on first deploy.
    """

    def __init__(
        self,
        config: ServerConfig,
        profiler: Optional[Profiler] = None,
        batch_pdf: Optional[Dict[int, float]] = None,
        profiles: Optional[Mapping[str, ProfileTable]] = None,
    ) -> None:
        # the facade owns exactly one quiescent session; every deployment
        # lifecycle operation below delegates to it, so validation, profile
        # caching and deployment construction live in one place
        self._session = ServingSession(
            config,
            profiler=profiler,
            batch_pdf=batch_pdf,
            profiles=profiles,
            window=None,
        )
        self._explicit_pdf = dict(batch_pdf) if batch_pdf else None

    @property
    def config(self) -> ServerConfig:
        """The design point this service realises."""
        return self._session.config

    @property
    def profiler(self) -> Optional[Profiler]:
        """The custom profiler for models lacking a pre-built profile
        (``None``: their tables come from the process-wide cache)."""
        return self._session.profiler

    @property
    def models(self) -> Tuple[str, ...]:
        """All models this service serves (primary first).

        Includes ``config.extra_models`` and any model whose profile was
        handed to the constructor or loaded by a deployment — every entry is
        accepted by both :meth:`serve` and :meth:`serve_trace`.
        """
        seen = dict.fromkeys(self.config.models)
        for name in self._session.profiles:
            seen.setdefault(name)
        return tuple(seen)

    # ------------------------------------------------------------------ #
    # deployment lifecycle
    # ------------------------------------------------------------------ #
    def deploy(self, batch_pdf: Optional[Dict[int, float]] = None) -> Deployment:
        """Profile the models, run the partitioner and configure the server.

        Args:
            batch_pdf: batch-size PDF consumed by the partitioner; falls back
                to the PDF provided at construction.  An explicitly-passed
                empty PDF is an error, never a silent fallback.

        Returns:
            The materialised deployment (cached for subsequent calls).
        """
        return self._session.deploy(batch_pdf=batch_pdf)

    def repartition(self, new_pdf: Dict[int, float]) -> Deployment:
        """Re-run the partitioner against a freshly observed batch PDF.

        This is the paper's online re-partitioning workflow: collect the
        batch-size histogram served over some window (e.g.
        ``QueryTrace.batch_pdf()``), then call this method to re-derive the
        plan and reconfigure the (simulated) server.  Profiles are reused
        from the previous deployment, so re-partitioning is cheap.

        Args:
            new_pdf: the observed batch-size PDF (must be non-empty).

        Returns:
            The new deployment, which also becomes :attr:`deployment`.
        """
        if not new_pdf:
            raise ValueError("repartition requires a non-empty batch PDF")
        return self._session.deploy(batch_pdf=new_pdf)

    @property
    def deployment(self) -> Deployment:
        """The current deployment (deploys lazily if needed)."""
        return self._session.deployment

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def serve(self, workload: WorkloadConfig, seed: int = 0) -> ServiceResult:
        """Generate a trace from ``workload`` and serve it.

        The workload's analytical batch PDF is fed to the partitioner
        (unless an explicit PDF was supplied), and the derived SLA target is
        attached to every query.  The workload may target any served model.
        """
        if workload.model not in self.models:
            raise ValueError(
                f"workload targets model {workload.model!r} but the service "
                f"serves {list(self.models)}"
            )
        generator = QueryGenerator(workload)
        if not self._session.has_deployment:
            pdf = (
                self._explicit_pdf
                if self._explicit_pdf is not None
                else generator.batch_pdf()
            )
            self.deploy(batch_pdf=pdf)
        trace = generator.generate()
        return self.serve_trace(trace, seed=seed)

    def serve_trace(self, trace: QueryTrace, seed: int = 0) -> ServiceResult:
        """Serve an existing (possibly mixed-model) query trace.

        Every model appearing in the trace must be served by the deployment
        (the primary model or one of ``extra_models``).  Queries without an
        SLA target are given *their own model's* derived SLA target
        (Section V defines the SLA per model), so mixed-model violation
        statistics refer to each model's own bound.
        """
        # One-shot run on the facade's quiescent session: same per-model SLA
        # attachment, same replay machinery, no triggers and no windowed
        # metrics — the legacy semantics (and numbers) exactly.
        deployment = self.deployment
        outcome = self._session.run(trace, seed=seed)
        return ServiceResult(
            deployment=deployment,
            simulation=outcome.simulation,
            sla_target=deployment.sla_target,
        )

    def session(self, **session_kwargs) -> ServingSession:
        """Open a :class:`~repro.serving.session.ServingSession` over this
        service's deployment (triggers, observers, scenarios and live
        repartitioning live there)."""
        return ServingSession.from_deployment(self.deployment, **session_kwargs)
