"""First-class scenario workloads: ordered phases of time-varying load.

The paper's elastic claim only matters when the workload *changes while the
server runs*: arrival rates follow diurnal cycles, batch-size distributions
drift, traffic spikes.  A :class:`Scenario` expresses exactly that — an
ordered sequence of :class:`Phase` spec objects, each with its own arrival
rate, batch-size distribution and model mix — and compiles to a single
:class:`~repro.workload.trace.QueryTrace` that
:class:`~repro.serving.session.ServingSession` replays with live triggers
and mid-run repartitioning.

Scenarios are registered by name through the same registry mechanism as
partitioners / schedulers / triggers::

    from repro.workload.scenario import build_scenario, register_scenario

    scenario = build_scenario("batch-drift", model="bert", rate_qps=800.0)

    @register_scenario("my-scenario")
    def my_scenario(model="resnet", **options) -> Scenario:
        return Scenario(name="my-scenario", model=model, phases=(...))

Built-ins: ``diurnal`` (trough/ramp/peak cycles), ``burst`` (baseline with
load spikes) and ``batch-drift`` (constant rate, drifting batch-size PDF —
the workload that exercises the observe → repartition → reconfigure loop).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.registry import PolicyRegistry, check_count
from repro.workload.distributions import LogNormalBatchDistribution
from repro.workload.query import Query
from repro.workload.trace import QueryTrace


@dataclass(frozen=True)
class Phase:
    """One homogeneous stretch of a scenario.

    Attributes:
        duration: phase length in seconds (must be positive and finite — a
            zero-duration phase is a spec bug, not an empty workload).
        rate_qps: Poisson arrival rate during the phase, queries/second.
        max_batch: largest batch size of the phase's log-normal distribution.
        sigma: log-normal variance parameter.
        median_batch: median of the log-normal distribution.
        model_mix: optional ``model name -> weight`` mapping; queries sample
            their model proportionally.  Empty means "the scenario's primary
            model only".
        name: optional label (shown in tables and reports).
    """

    duration: float
    rate_qps: float
    max_batch: int = 32
    sigma: float = 0.9
    median_batch: float = 8.0
    model_mix: Mapping[str, float] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self) -> None:
        if not math.isfinite(self.duration) or self.duration <= 0:
            raise ValueError(
                f"phase duration must be positive and finite, got {self.duration}"
            )
        if not math.isfinite(self.rate_qps) or self.rate_qps <= 0:
            raise ValueError(
                f"phase rate_qps must be positive and finite, got {self.rate_qps}"
            )
        check_count(self.max_batch, "max_batch must be >= 1 and integral")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be finite, got {self.sigma}")
        if self.median_batch <= 0:
            raise ValueError("median_batch must be positive")
        if not math.isfinite(self.median_batch):
            raise ValueError(f"median_batch must be finite, got {self.median_batch}")
        object.__setattr__(self, "model_mix", dict(self.model_mix))
        if any(not name for name in self.model_mix):
            raise ValueError("model_mix keys must be non-empty model names")
        if any(weight <= 0 for weight in self.model_mix.values()):
            raise ValueError("model_mix weights must be positive")

    @property
    def expected_queries(self) -> float:
        """Expected number of arrivals in the phase."""
        return self.rate_qps * self.duration

    def batch_pdf(self) -> Dict[int, float]:
        """Analytical batch-size PDF of the phase's distribution."""
        return LogNormalBatchDistribution(
            sigma=self.sigma,
            median=min(self.median_batch, float(self.max_batch)),
            max_batch=self.max_batch,
        ).pdf()


@dataclass(frozen=True)
class Scenario:
    """An ordered sequence of phases over one primary model.

    Attributes:
        name: scenario label.
        model: primary model; phases without a ``model_mix`` serve it alone.
        phases: the ordered phases (at least one).
        seed: base RNG seed for trace generation.
    """

    name: str
    model: str
    phases: Tuple[Phase, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.model:
            raise ValueError("scenario model must be non-empty")
        object.__setattr__(self, "phases", tuple(self.phases))
        if not self.phases:
            raise ValueError("a scenario needs at least one phase")
        for phase in self.phases:
            if not isinstance(phase, Phase):
                raise TypeError(
                    f"phases must be Phase objects, got {type(phase).__name__}"
                )

    @property
    def duration(self) -> float:
        """Total scenario length in seconds."""
        return sum(phase.duration for phase in self.phases)

    @property
    def models(self) -> Tuple[str, ...]:
        """Every model the scenario can emit (primary first)."""
        seen = {self.model: None}
        for phase in self.phases:
            for name in phase.model_mix:
                seen.setdefault(name)
        return tuple(seen)

    def phase_boundaries(self) -> List[float]:
        """Cumulative phase start times, beginning at 0."""
        starts = [0.0]
        for phase in self.phases[:-1]:
            starts.append(starts[-1] + phase.duration)
        return starts

    def initial_pdf(self) -> Dict[int, float]:
        """The first phase's analytical batch PDF — what a deployment planned
        *before* the scenario runs would reasonably target."""
        return self.phases[0].batch_pdf()

    def average_pdf(self) -> Dict[int, float]:
        """Duration-and-rate-weighted batch PDF over the whole scenario (the
        omniscient-planner input, useful as an oracle baseline)."""
        combined: Dict[int, float] = {}
        total_weight = 0.0
        for phase in self.phases:
            weight = phase.expected_queries
            total_weight += weight
            for batch, probability in phase.batch_pdf().items():
                combined[batch] = combined.get(batch, 0.0) + weight * probability
        return {
            batch: mass / total_weight for batch, mass in sorted(combined.items())
        }

    def generate(self, seed: Optional[int] = None) -> QueryTrace:
        """Compile the scenario into a concrete query trace.

        Phases are laid out back to back; arrivals within each phase follow
        a Poisson process at the phase's rate, batch sizes its log-normal
        distribution, and models its mix.  Arrival times are strictly
        non-decreasing across the whole trace by construction.
        """
        rng = np.random.default_rng(self.seed if seed is None else seed)
        queries: List[Query] = []
        query_id = 0
        phase_start = 0.0
        for phase in self.phases:
            phase_end = phase_start + phase.duration
            arrivals: List[float] = []
            t = phase_start
            scale = 1.0 / phase.rate_qps
            while True:
                t += rng.exponential(scale)
                if t >= phase_end:
                    break
                arrivals.append(t)
            count = len(arrivals)
            if count == 0:
                phase_start = phase_end
                continue
            batches = LogNormalBatchDistribution(
                sigma=phase.sigma,
                median=min(phase.median_batch, float(phase.max_batch)),
                max_batch=phase.max_batch,
                seed=int(rng.integers(0, 2**31)),
            ).sample(size=count)
            if phase.model_mix:
                names = sorted(phase.model_mix)
                weights = np.asarray([phase.model_mix[n] for n in names], dtype=float)
                weights /= weights.sum()
                models = [names[i] for i in rng.choice(len(names), size=count, p=weights)]
            else:
                models = [self.model] * count
            for arrival, batch, model in zip(arrivals, batches, models):
                queries.append(
                    Query(
                        query_id=query_id,
                        model=model,
                        batch=int(batch),
                        arrival_time=float(arrival),
                    )
                )
                query_id += 1
            phase_start = phase_end
        return QueryTrace(tuple(queries))

    def describe(self) -> str:
        """One-line summary, e.g. ``batch-drift: 3 phases, 180s, bert``."""
        return (
            f"{self.name or 'scenario'}: {len(self.phases)} phases, "
            f"{self.duration:g}s, {'+'.join(self.models)}"
        )


# --------------------------------------------------------------------------- #
# the scenario registry
# --------------------------------------------------------------------------- #

#: The global scenario registry (name -> factory of Scenario objects).
SCENARIOS = PolicyRegistry("scenario")


def register_scenario(
    name: str, *, aliases: Sequence[str] = (), overwrite: bool = False
):
    """Decorator registering a scenario factory under ``name``.

    Args:
        name: registry key (case-insensitive).
        aliases: additional names resolving to the same factory.
        overwrite: replace an existing registration instead of raising.

    Returns:
        The decorator; the decorated factory is registered unchanged.

    Raises:
        ValueError: if the name is taken and ``overwrite`` is false.
    """
    return SCENARIOS.register(name, aliases=aliases, overwrite=overwrite)


def get_scenario(name: str) -> Callable:
    """The scenario factory registered under ``name``.

    Raises:
        UnknownPolicyError: for an unregistered name (the message lists the
            available scenarios).
    """
    return SCENARIOS.get(name)


def available_scenarios() -> List[str]:
    """Sorted names of every registered scenario."""
    return SCENARIOS.names()


def build_scenario(name: str, **options: Any) -> Scenario:
    """Instantiate the named scenario with ``options``.

    Args:
        name: registered scenario name (e.g. ``"diurnal"``, ``"burst"``,
            ``"batch-drift"`` or a custom registration).
        options: keyword options forwarded to the registered factory.

    Returns:
        The constructed :class:`Scenario`.

    Raises:
        UnknownPolicyError: for an unregistered name.
        TypeError: when the factory returns something that is not a
            :class:`Scenario`.
    """
    scenario = get_scenario(name)(**options)
    if not isinstance(scenario, Scenario):
        raise TypeError(
            f"scenario factory {name!r} returned {type(scenario).__name__}, "
            "expected a Scenario"
        )
    return scenario


# --------------------------------------------------------------------------- #
# built-in scenario builders
# --------------------------------------------------------------------------- #


@register_scenario("diurnal")
def diurnal_scenario(
    model: str = "resnet",
    trough_qps: float = 200.0,
    peak_qps: float = 1000.0,
    phase_duration: float = 30.0,
    cycles: int = 1,
    max_batch: int = 32,
    sigma: float = 0.9,
    median_batch: float = 8.0,
    seed: int = 0,
) -> Scenario:
    """A day-like load cycle: trough → ramp-up → peak → ramp-down, repeated.

    The arrival rate swings between ``trough_qps`` and ``peak_qps``; the
    batch distribution stays fixed, so this scenario stresses *rate*
    elasticity (queueing, SLA violations at peak) rather than PDF drift.
    """
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    if trough_qps <= 0 or peak_qps <= 0:
        raise ValueError("arrival rates must be positive")
    mid_qps = math.sqrt(trough_qps * peak_qps)
    phases: List[Phase] = []
    for cycle in range(cycles):
        for label, rate in (
            ("trough", trough_qps),
            ("ramp-up", mid_qps),
            ("peak", peak_qps),
            ("ramp-down", mid_qps),
        ):
            phases.append(
                Phase(
                    duration=phase_duration,
                    rate_qps=rate,
                    max_batch=max_batch,
                    sigma=sigma,
                    median_batch=median_batch,
                    name=f"{label}#{cycle}" if cycles > 1 else label,
                )
            )
    return Scenario(name="diurnal", model=model, phases=tuple(phases), seed=seed)


@register_scenario("burst", aliases=("spike",))
def burst_scenario(
    model: str = "resnet",
    base_qps: float = 300.0,
    burst_qps: float = 1500.0,
    base_duration: float = 40.0,
    burst_duration: float = 10.0,
    repeats: int = 1,
    max_batch: int = 32,
    sigma: float = 0.9,
    median_batch: float = 8.0,
    seed: int = 0,
) -> Scenario:
    """Baseline traffic interrupted by short spikes of ``burst_qps``."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    phases: List[Phase] = []
    for repeat in range(repeats):
        suffix = f"#{repeat}" if repeats > 1 else ""
        phases.append(
            Phase(
                duration=base_duration,
                rate_qps=base_qps,
                max_batch=max_batch,
                sigma=sigma,
                median_batch=median_batch,
                name=f"base{suffix}",
            )
        )
        phases.append(
            Phase(
                duration=burst_duration,
                rate_qps=burst_qps,
                max_batch=max_batch,
                sigma=sigma,
                median_batch=median_batch,
                name=f"burst{suffix}",
            )
        )
    phases.append(
        Phase(
            duration=base_duration,
            rate_qps=base_qps,
            max_batch=max_batch,
            sigma=sigma,
            median_batch=median_batch,
            name="cooldown",
        )
    )
    return Scenario(name="burst", model=model, phases=tuple(phases), seed=seed)


@register_scenario("batch-drift", aliases=("drift",))
def batch_drift_scenario(
    model: str = "bert",
    rate_qps: float = 600.0,
    phase_duration: float = 40.0,
    start_median: float = 2.0,
    end_median: float = 16.0,
    steps: int = 2,
    max_batch: int = 32,
    sigma: float = 0.9,
    seed: int = 0,
) -> Scenario:
    """Constant arrival rate, drifting batch-size distribution.

    The median batch size moves geometrically from ``start_median`` to
    ``end_median`` over ``steps`` transitions — production drift that makes
    the initial PARIS plan (derived for ``start_median``) progressively
    wrong.  This is the canonical workload for the drift trigger: the
    observed PDF diverges from the planned one and the session repartitions
    live.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if start_median <= 0 or end_median <= 0:
        raise ValueError("medians must be positive")
    medians = [
        start_median * (end_median / start_median) ** (i / steps)
        for i in range(steps + 1)
    ]
    phases = tuple(
        Phase(
            duration=phase_duration,
            rate_qps=rate_qps,
            max_batch=max_batch,
            sigma=sigma,
            median_batch=median,
            name=f"median={median:g}",
        )
        for median in medians
    )
    return Scenario(name="batch-drift", model=model, phases=phases, seed=seed)


__all__ = [
    "Phase",
    "SCENARIOS",
    "Scenario",
    "available_scenarios",
    "batch_drift_scenario",
    "build_scenario",
    "burst_scenario",
    "diurnal_scenario",
    "get_scenario",
    "register_scenario",
]
