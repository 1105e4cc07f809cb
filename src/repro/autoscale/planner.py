"""Capacity planning: the cheapest fleet that meets the SLA.

The paper's cost argument needs an answer to "what would the right-sized
static fleet cost?".  The :class:`CapacityPlanner` answers it by *measuring*,
not modeling: it enumerates server mixes (multisets of the allowed shapes),
sorts them cheapest-first under :data:`repro.gpu.cost.GPC_COST`, replays the
scenario end-to-end on each candidate with a real
:class:`~repro.serving.session.ServingSession`, and returns a ranked
feasible frontier.  Because every verdict is a full deterministic replay,
the top pick is already end-to-end verified — re-running it reproduces the
same violation rate bit-for-bit.

Candidates fan out across processes through the same warm
:class:`~repro.analysis.sweep.ParallelRunner` pool the sweeps use, in
deterministic cheapest-first chunks so an early-stop search still returns
the same frontier on any ``n_jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.gpu.cost import fleet_gpc_cost
from repro.gpu.fleet import FleetServerSpec

if TYPE_CHECKING:
    from repro.analysis.sweep import ParallelRunner
    from repro.serving.config import ServerConfig


def enumerate_mixes(
    shapes: Sequence[Any],
    max_servers: int,
    min_servers: int = 1,
) -> List[Tuple[FleetServerSpec, ...]]:
    """All server multisets of ``min_servers..max_servers`` drawn from ``shapes``.

    Returned cheapest-first under :data:`~repro.gpu.cost.GPC_COST` (ties
    broken by the mix's describe string, so the order is total and stable).

    Raises:
        ValueError: for an empty shape set or an inverted size range.
    """
    specs = [FleetServerSpec.coerce(shape) for shape in shapes]
    if not specs:
        raise ValueError("shapes must name at least one server shape")
    if min_servers < 1:
        raise ValueError("min_servers must be >= 1")
    if max_servers < min_servers:
        raise ValueError("max_servers must be >= min_servers")
    # dedup identical shapes so a repeated entry does not duplicate mixes
    unique = list({spec.describe(): spec for spec in specs}.values())
    mixes: List[Tuple[FleetServerSpec, ...]] = []
    for size in range(min_servers, max_servers + 1):
        mixes.extend(combinations_with_replacement(unique, size))
    mixes.sort(
        key=lambda mix: (
            fleet_gpc_cost(mix),
            " + ".join(spec.describe() for spec in mix),
        )
    )
    return mixes


@dataclass(frozen=True)
class CandidateResult:
    """One evaluated fleet candidate.

    Attributes:
        specs: the candidate's servers.
        fleet: readable mix description, e.g. ``"2xA100(14) + 2xA100(14)"``.
        cost_rate: static $-cost per simulated second under ``GPC_COST``.
        cost: total $-cost of holding the fleet for the replayed run
            (``cost_rate`` × the run's horizon).
        violation_rate: measured SLA violation rate of the full replay.
        p95_latency: measured p95 latency in seconds.
        throughput_qps: measured goodput.
        feasible: ``violation_rate <= target`` for the planner's target.
    """

    specs: Tuple[FleetServerSpec, ...]
    fleet: str
    cost_rate: float
    cost: float
    violation_rate: float
    p95_latency: float
    throughput_qps: float
    feasible: bool


def _evaluate_candidate(
    shared: Tuple[Any, ...], item: Sequence[FleetServerSpec]
) -> CandidateResult:
    """Replay one candidate fleet end-to-end (picklable pool worker)."""
    from repro.serving.config import config_with_fleet
    from repro.serving.session import ServingSession

    template, batch_pdf, trace, window, target = shared
    specs = tuple(item)
    config = config_with_fleet(template, specs)
    session = ServingSession(config, batch_pdf=batch_pdf, window=window)
    result = session.run(trace)
    rate = fleet_gpc_cost(specs)
    horizon = result.simulation.statistics.makespan
    return CandidateResult(
        specs=specs,
        fleet=" + ".join(spec.describe() for spec in specs),
        cost_rate=rate,
        cost=rate * horizon,
        violation_rate=result.sla_violation_rate,
        p95_latency=result.p95_latency,
        throughput_qps=result.throughput_qps,
        feasible=result.sla_violation_rate <= target,
    )


class CapacityPlanner:
    """Search fleet mixes for the cheapest one meeting the SLA.

    Args:
        template: a fleet-capable :class:`~repro.serving.config.ServerConfig`
            whose model/scheduler/SLA settings every candidate inherits (its
            own fleet is ignored — candidates supply theirs).
        batch_pdf: the batch-size pdf candidates are planned with.
        workload: the scenario, workload config or trace to replay on every
            candidate.  :meth:`plan` resolves it to one trace per call (a
            scenario or workload config is generated once, a trace passes
            through), and every candidate replays that trace.
        target_violation_rate: feasibility bar on the measured SLA violation
            rate (default 1%).
        window: metrics window for the candidate sessions.
        runner: optional warm :class:`~repro.analysis.sweep.ParallelRunner`;
            by default candidates evaluate inline (``n_jobs=1``).
        n_jobs: worker processes when no runner is supplied.
    """

    def __init__(
        self,
        template: "ServerConfig",
        batch_pdf: Mapping[int, float],
        workload: Any,
        *,
        target_violation_rate: float = 0.01,
        window: float = 0.1,
        runner: Optional[Any] = None,
        n_jobs: Optional[int] = 1,
    ) -> None:
        if target_violation_rate < 0:
            raise ValueError("target_violation_rate must be non-negative")
        if window <= 0:
            raise ValueError("window must be positive")
        self.template = template
        self.batch_pdf = dict(batch_pdf)
        self.workload = workload
        self.target_violation_rate = target_violation_rate
        self.window = window
        self._runner = runner
        self._n_jobs = n_jobs

    def _resolve_runner(self) -> "ParallelRunner":
        from repro.analysis.sweep import ParallelRunner

        if self._runner is not None:
            return self._runner
        return ParallelRunner(n_jobs=self._n_jobs)

    def plan(
        self,
        shapes: Sequence[Any],
        max_servers: int,
        min_servers: int = 1,
        *,
        stop_after_feasible: Optional[int] = None,
        log: Optional[Callable[[str], None]] = None,
    ) -> List[CandidateResult]:
        """Evaluate mixes cheapest-first and return the ranked frontier.

        Returns:
            Every evaluated candidate, feasible ones first (cheapest-first
            within each group; infeasible ones by ascending violation rate).

        Args:
            shapes: allowed server shapes (specs or ``(gpus, arch[, gpcs])``).
            max_servers / min_servers: fleet size bounds.
            stop_after_feasible: stop the cheapest-first scan once this many
                feasible fleets are known — since candidates are scanned in
                cost order, the skipped remainder is strictly more expensive
                than the frontier already in hand.  ``None`` evaluates all.
            log: optional sink for progress lines (e.g. ``print``); always
                told how many candidates an early stop skipped.
        """
        from repro.serving.session import resolve_workload

        mixes = enumerate_mixes(shapes, max_servers, min_servers)
        runner = self._resolve_runner()
        # candidates get the explicit batch_pdf, so the workload's own
        # planning PDF is never read
        trace, _ = resolve_workload(self.workload)
        shared = (
            self.template,
            self.batch_pdf,
            trace,
            self.window,
            self.target_violation_rate,
        )
        # each candidate replays the whole trace
        work_hint = float(len(trace))
        chunk = max(2 * runner.effective_jobs, 4)
        results: List[CandidateResult] = []
        feasible_seen = 0
        evaluated = 0
        for start in range(0, len(mixes), chunk):
            batch = mixes[start : start + chunk]
            results.extend(
                runner.map_shared(
                    _evaluate_candidate, shared, batch, work_hint=work_hint
                )
            )
            evaluated += len(batch)
            feasible_seen = sum(1 for r in results if r.feasible)
            if log is not None:
                log(
                    f"capacity scan: {evaluated}/{len(mixes)} candidates, "
                    f"{feasible_seen} feasible"
                )
            if (
                stop_after_feasible is not None
                and feasible_seen >= stop_after_feasible
            ):
                skipped = len(mixes) - evaluated
                if log is not None and skipped:
                    log(
                        f"capacity scan: early stop with {feasible_seen} "
                        f"feasible fleets; skipped {skipped} strictly more "
                        "expensive candidates"
                    )
                break
        results.sort(
            key=lambda r: (
                not r.feasible,
                (r.cost_rate, r.fleet) if r.feasible else (r.violation_rate, r.cost_rate),
            )
        )
        return results

    def cheapest_feasible(
        self,
        shapes: Sequence[Any],
        max_servers: int,
        min_servers: int = 1,
        **kwargs: Any,
    ) -> Optional[CandidateResult]:
        """The frontier's top pick, or ``None`` when nothing meets the SLA."""
        ranked = self.plan(shapes, max_servers, min_servers, **kwargs)
        if ranked and ranked[0].feasible:
            return ranked[0]
        return None


__all__ = [
    "CandidateResult",
    "CapacityPlanner",
    "enumerate_mixes",
]
