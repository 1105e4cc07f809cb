"""Pluggable repartition triggers for the serving session.

The paper's elastic workflow is *online*: the server observes the batch-size
distribution it actually serves, and when the observation drifts from the
distribution the current partitioning was planned for — or when SLA
violations spike — it re-runs PARIS and reconfigures the MIG partitions,
paying a real reconfiguration cost.  This module makes the *when to
repartition* decision a pluggable policy, registered by name through the
same registry mechanism as partitioners and schedulers::

    from repro.core.triggers import TriggerContext, TriggerDecision, register_trigger

    @register_trigger("my-trigger")
    def build_my_trigger(**options):
        return MyTrigger(**options)

    ServingSession(config, triggers=["my-trigger"])

A registered factory takes the trigger's keyword options and returns any
object with an ``evaluate(context) -> TriggerDecision`` method.  Built-ins:

* ``pdf-drift`` — fires when the observed batch PDF over a recent window
  drifts (total-variation distance) from the PDF the current plan targets;
* ``sla-violation-rate`` — fires when the SLA violation rate over a recent
  window exceeds a threshold;
* ``scale-out-sla`` / ``scale-out-backlog`` / ``scale-in-idle`` — fleet
  elasticity requests (``TriggerDecision.action`` of ``"scale-out"`` /
  ``"scale-in"``) consumed by the :mod:`repro.autoscale` control plane
  rather than the repartition loop.

The :class:`~repro.serving.session.ServingSession` evaluates triggers at a
fixed simulation-time cadence and calls ``session.repartition`` live when one
fires, closing the paper's observe → repartition → reconfigure loop inside a
single simulation.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, List, Mapping, Optional, Sequence

from repro.registry import FactoryT, PolicyRegistry
from repro.sim.hooks import WindowedMetrics

#: The global repartition-trigger registry (name -> factory of trigger objects).
TRIGGERS = PolicyRegistry("trigger")


def register_trigger(
    name: str, *, aliases: Sequence[str] = (), overwrite: bool = False
) -> Callable[[FactoryT], FactoryT]:
    """Decorator registering a trigger factory under ``name``."""
    return TRIGGERS.register(name, aliases=aliases, overwrite=overwrite)


def get_trigger(name: str) -> Callable:
    """The trigger factory registered under ``name``."""
    return TRIGGERS.get(name)


def available_triggers() -> List[str]:
    """Names of every registered trigger."""
    return TRIGGERS.names()


def build_trigger(name: str, **options: Any) -> "RepartitionTrigger":
    """Instantiate the named trigger with ``options``."""
    trigger = get_trigger(name)(**options)
    if not hasattr(trigger, "evaluate"):
        raise TypeError(
            f"trigger factory {name!r} returned {type(trigger).__name__}, "
            "which has no evaluate() method"
        )
    return trigger


@dataclass(frozen=True)
class TriggerContext:
    """Everything a trigger decision may look at.

    Attributes:
        now: current simulation time in seconds.
        planned_pdf: the batch-size PDF the *current* partition plan was
            derived from.
        metrics: the session's live :class:`~repro.sim.hooks.WindowedMetrics`
            observer — triggers read observed PDFs and violation rates from
            its recent windows.
        time_since_reconfig: seconds since the run started or the last
            repartition came online (for cooldowns).
        deployment: the current deployment (``None`` in bare tests).
    """

    now: float
    planned_pdf: Mapping[int, float]
    metrics: WindowedMetrics
    time_since_reconfig: float
    deployment: Any = None


@dataclass(frozen=True)
class TriggerDecision:
    """Outcome of one trigger evaluation.

    Attributes:
        fire: whether to act now.
        reason: human-readable explanation (reported in the session log).
        new_pdf: the batch PDF to re-run the partitioner against; ``None``
            lets the session fall back to the observed PDF.
        action: what firing means — ``"repartition"`` (the default; the
            session re-runs the partitioner in place), ``"scale-out"`` or
            ``"scale-in"`` (consumed by the :mod:`repro.autoscale` control
            plane to add / drain whole fleet servers).  A session rejects a
            trigger that declares a scale action at construction, and its
            repartition loop skips non-repartition decisions of custom
            triggers that declare none.
    """

    fire: bool
    reason: str = ""
    new_pdf: Optional[Mapping[int, float]] = None
    action: str = "repartition"

    @classmethod
    def hold(cls, reason: str = "") -> "TriggerDecision":
        """A no-fire decision."""
        return cls(fire=False, reason=reason)


class RepartitionTrigger(abc.ABC):
    """Abstract repartition trigger."""

    #: Registry name, used in session logs.
    name: str = "trigger"

    #: What this trigger's firings ask for (see :attr:`TriggerDecision.action`).
    #: A session's own ``triggers=`` accept only ``"repartition"``; scale
    #: triggers belong to an :class:`~repro.autoscale.autoscaler.Autoscaler`.
    action: ClassVar[str] = "repartition"

    @abc.abstractmethod
    def evaluate(self, context: TriggerContext) -> TriggerDecision:
        """Decide whether the session should repartition now."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


def total_variation_distance(
    p: Mapping[int, float], q: Mapping[int, float]
) -> float:
    """Total-variation distance between two batch-size PMFs (0..1)."""
    support = set(p) | set(q)
    return 0.5 * sum(abs(p.get(b, 0.0) - q.get(b, 0.0)) for b in support)


def _in_warmup(context: TriggerContext, lookback_windows: int) -> bool:
    """True while the lookback still overlaps the last reconfiguration.

    Immediately after a repartition the recent windows mix pre- and
    post-reconfig observations (including backlog completions whose latency
    spans the downtime); judging them would re-fire on stale evidence and
    thrash reconfiguration after reconfiguration.  Built-in triggers hold
    until a full lookback of post-reconfig windows has accumulated — this
    also defers the very first evaluation until one lookback into the run.
    """
    return context.time_since_reconfig < lookback_windows * context.metrics.window


@dataclass
class PdfDriftTrigger(RepartitionTrigger):
    """Fire when the observed batch PDF drifts from the planned one.

    Attributes:
        threshold: total-variation distance above which to fire (0..1).
        lookback_windows: how many recent metric windows form the observation.
        min_queries: minimum arrivals in the lookback before judging drift.
        cooldown: minimum seconds between firings (reconfigurations are not
            free; this prevents thrashing on noisy observations).
    """

    threshold: float = 0.25
    lookback_windows: int = 5
    min_queries: int = 50
    cooldown: float = 0.0
    name: str = field(default="pdf-drift", init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if self.lookback_windows < 1:
            raise ValueError("lookback_windows must be >= 1")
        if self.min_queries < 1:
            raise ValueError("min_queries must be >= 1")
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")

    def evaluate(self, context: TriggerContext) -> TriggerDecision:
        if context.time_since_reconfig < self.cooldown:
            return TriggerDecision.hold("cooldown")
        if _in_warmup(context, self.lookback_windows):
            return TriggerDecision.hold("lookback spans the last reconfiguration")
        histogram = context.metrics.observed_batch_histogram(
            context.now, self.lookback_windows
        )
        samples = sum(histogram.values())
        if samples < self.min_queries:
            return TriggerDecision.hold(f"only {samples} recent queries")
        observed = {batch: count / samples for batch, count in histogram.items()}
        drift = total_variation_distance(observed, context.planned_pdf)
        if drift <= self.threshold:
            return TriggerDecision.hold(f"drift {drift:.3f} <= {self.threshold}")
        return TriggerDecision(
            fire=True,
            reason=(
                f"observed batch PDF drifted {drift:.3f} (TV) from the "
                f"planned PDF over the last {self.lookback_windows} windows"
            ),
            new_pdf=observed,
        )


@dataclass
class SlaViolationTrigger(RepartitionTrigger):
    """Fire when the recent SLA violation rate exceeds a threshold.

    Attributes:
        threshold: violation rate (violations / SLA-carrying completions)
            above which to fire.
        lookback_windows: how many recent metric windows form the observation.
        min_queries: minimum SLA-carrying completions in the lookback.
        cooldown: minimum seconds between firings.
    """

    threshold: float = 0.1
    lookback_windows: int = 5
    min_queries: int = 50
    cooldown: float = 0.0
    name: str = field(default="sla-violation-rate", init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold < 1.0:
            raise ValueError("threshold must be in [0, 1)")
        if self.lookback_windows < 1:
            raise ValueError("lookback_windows must be >= 1")
        if self.min_queries < 1:
            raise ValueError("min_queries must be >= 1")
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")

    def evaluate(self, context: TriggerContext) -> TriggerDecision:
        if context.time_since_reconfig < self.cooldown:
            return TriggerDecision.hold("cooldown")
        if _in_warmup(context, self.lookback_windows):
            return TriggerDecision.hold("lookback spans the last reconfiguration")
        violations, sla_count = context.metrics.recent_violation_stats(
            context.now, self.lookback_windows
        )
        if sla_count < self.min_queries:
            return TriggerDecision.hold(f"only {sla_count} recent SLA queries")
        rate = violations / sla_count
        if rate <= self.threshold:
            return TriggerDecision.hold(f"violation rate {rate:.3f} <= {self.threshold}")
        observed = context.metrics.observed_batch_pdf(
            context.now, self.lookback_windows
        )
        return TriggerDecision(
            fire=True,
            reason=(
                f"SLA violation rate {rate:.3f} over the last "
                f"{self.lookback_windows} windows exceeds {self.threshold}"
            ),
            new_pdf=observed or None,
        )


@dataclass
class ScaleOutSlaTrigger(RepartitionTrigger):
    """Ask for one more server when the SLA violation rate spikes.

    The fleet-level counterpart of :class:`SlaViolationTrigger`: instead of
    re-cutting the partitions of the pool we have, it tells the autoscaler
    the pool itself is too small.  Fires with ``action="scale-out"``.

    Attributes:
        threshold: violation rate above which to ask for capacity.
        lookback_windows: how many recent metric windows form the observation.
        min_queries: minimum SLA-carrying completions in the lookback.
        cooldown: minimum seconds between firings.
    """

    threshold: float = 0.1
    lookback_windows: int = 3
    min_queries: int = 20
    cooldown: float = 0.0
    name: str = field(default="scale-out-sla", init=False)
    action: ClassVar[str] = "scale-out"

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold < 1.0:
            raise ValueError("threshold must be in [0, 1)")
        if self.lookback_windows < 1:
            raise ValueError("lookback_windows must be >= 1")
        if self.min_queries < 1:
            raise ValueError("min_queries must be >= 1")
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")

    def evaluate(self, context: TriggerContext) -> TriggerDecision:
        if context.time_since_reconfig < self.cooldown:
            return TriggerDecision.hold("cooldown")
        if _in_warmup(context, self.lookback_windows):
            return TriggerDecision.hold("lookback spans the last reconfiguration")
        violations, sla_count = context.metrics.recent_violation_stats(
            context.now, self.lookback_windows
        )
        if sla_count < self.min_queries:
            return TriggerDecision.hold(f"only {sla_count} recent SLA queries")
        rate = violations / sla_count
        if rate <= self.threshold:
            return TriggerDecision.hold(
                f"violation rate {rate:.3f} <= {self.threshold}"
            )
        return TriggerDecision(
            fire=True,
            reason=(
                f"SLA violation rate {rate:.3f} over the last "
                f"{self.lookback_windows} windows exceeds {self.threshold}"
            ),
            action=self.action,
        )


@dataclass
class ScaleOutBacklogTrigger(RepartitionTrigger):
    """Ask for one more server when the frontend backlog grows too deep.

    Queue depth leads the violation rate: a backlog that keeps growing will
    violate SLAs a few windows later, so this trigger scales out *before*
    the latency spike lands.  Fires with ``action="scale-out"``.

    Attributes:
        max_backlog: arrived-but-not-completed queries above which to fire.
        lookback_windows: warmup guard — hold until this many post-reconfig
            windows accumulated (matching the other built-ins).
        cooldown: minimum seconds between firings.
    """

    max_backlog: int = 64
    lookback_windows: int = 2
    cooldown: float = 0.0
    name: str = field(default="scale-out-backlog", init=False)
    action: ClassVar[str] = "scale-out"

    def __post_init__(self) -> None:
        if self.max_backlog < 1:
            raise ValueError("max_backlog must be >= 1")
        if self.lookback_windows < 1:
            raise ValueError("lookback_windows must be >= 1")
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")

    def evaluate(self, context: TriggerContext) -> TriggerDecision:
        if context.time_since_reconfig < self.cooldown:
            return TriggerDecision.hold("cooldown")
        if _in_warmup(context, self.lookback_windows):
            return TriggerDecision.hold("lookback spans the last reconfiguration")
        backlog = context.metrics.backlog()
        if backlog <= self.max_backlog:
            return TriggerDecision.hold(f"backlog {backlog} <= {self.max_backlog}")
        return TriggerDecision(
            fire=True,
            reason=f"frontend backlog {backlog} exceeds {self.max_backlog}",
            action=self.action,
        )


@dataclass
class ScaleInIdleTrigger(RepartitionTrigger):
    """Release a server when the fleet is comfortably over-provisioned.

    Fires with ``action="scale-in"`` when the recent violation rate sits at
    or below a low-water mark *and* the frontend backlog is shallow — both
    must hold, so a drained queue during a lull never sheds capacity the
    next ramp needs if violations are still working through the tail.

    Attributes:
        max_violation_rate: recent violation rate at or below which the
            fleet counts as over-provisioned.
        max_backlog: frontend backlog at or below which it counts as idle.
        lookback_windows: how many recent metric windows form the observation.
        min_queries: minimum SLA-carrying completions in the lookback —
            an empty lookback is *not* evidence of over-provisioning.
        cooldown: minimum seconds between firings (scale-in pays a drain).
    """

    max_violation_rate: float = 0.01
    max_backlog: int = 8
    lookback_windows: int = 5
    min_queries: int = 20
    cooldown: float = 0.0
    name: str = field(default="scale-in-idle", init=False)
    action: ClassVar[str] = "scale-in"

    def __post_init__(self) -> None:
        if not 0.0 <= self.max_violation_rate < 1.0:
            raise ValueError("max_violation_rate must be in [0, 1)")
        if self.max_backlog < 0:
            raise ValueError("max_backlog must be non-negative")
        if self.lookback_windows < 1:
            raise ValueError("lookback_windows must be >= 1")
        if self.min_queries < 1:
            raise ValueError("min_queries must be >= 1")
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")

    def evaluate(self, context: TriggerContext) -> TriggerDecision:
        if context.time_since_reconfig < self.cooldown:
            return TriggerDecision.hold("cooldown")
        if _in_warmup(context, self.lookback_windows):
            return TriggerDecision.hold("lookback spans the last reconfiguration")
        violations, sla_count = context.metrics.recent_violation_stats(
            context.now, self.lookback_windows
        )
        if sla_count < self.min_queries:
            return TriggerDecision.hold(f"only {sla_count} recent SLA queries")
        rate = violations / sla_count
        if rate > self.max_violation_rate:
            return TriggerDecision.hold(
                f"violation rate {rate:.3f} > {self.max_violation_rate}"
            )
        backlog = context.metrics.backlog()
        if backlog > self.max_backlog:
            return TriggerDecision.hold(f"backlog {backlog} > {self.max_backlog}")
        return TriggerDecision(
            fire=True,
            reason=(
                f"violation rate {rate:.3f} <= {self.max_violation_rate} and "
                f"backlog {backlog} <= {self.max_backlog} over the last "
                f"{self.lookback_windows} windows"
            ),
            action=self.action,
        )


@register_trigger("pdf-drift", aliases=("drift",))
def _pdf_drift_trigger(**options: Any) -> PdfDriftTrigger:
    """Observed-vs-planned batch PDF drift (total-variation distance)."""
    return PdfDriftTrigger(**options)


@register_trigger("sla-violation-rate", aliases=("sla",))
def _sla_violation_trigger(**options: Any) -> SlaViolationTrigger:
    """SLA-violation-rate-over-window trigger."""
    return SlaViolationTrigger(**options)


@register_trigger("scale-out-sla")
def _scale_out_sla_trigger(**options: Any) -> ScaleOutSlaTrigger:
    """Scale-out request on a recent SLA-violation-rate spike."""
    return ScaleOutSlaTrigger(**options)


@register_trigger("scale-out-backlog")
def _scale_out_backlog_trigger(**options: Any) -> ScaleOutBacklogTrigger:
    """Scale-out request on frontend backlog depth."""
    return ScaleOutBacklogTrigger(**options)


@register_trigger("scale-in-idle")
def _scale_in_idle_trigger(**options: Any) -> ScaleInIdleTrigger:
    """Scale-in request when violations and backlog are both low."""
    return ScaleInIdleTrigger(**options)


def resolve_triggers(
    triggers: Sequence[Any],
) -> List[RepartitionTrigger]:
    """Normalise a mixed trigger list into trigger objects.

    Accepts registry names (``"pdf-drift"``), ``(name, options)`` pairs
    (``("pdf-drift", {"threshold": 0.3})``) and ready trigger objects.
    """
    resolved: List[RepartitionTrigger] = []
    for entry in triggers:
        if isinstance(entry, str):
            resolved.append(build_trigger(entry))
        elif (
            isinstance(entry, tuple)
            and len(entry) == 2
            and isinstance(entry[0], str)
            and isinstance(entry[1], Mapping)
        ):
            name, options = entry
            resolved.append(build_trigger(name, **dict(options)))
        elif hasattr(entry, "evaluate"):
            resolved.append(entry)
        else:
            raise TypeError(
                "triggers must be registry names, (name, options) pairs or "
                f"objects with evaluate(); got {entry!r}"
            )
    return resolved


__all__ = [
    "PdfDriftTrigger",
    "RepartitionTrigger",
    "ScaleInIdleTrigger",
    "ScaleOutBacklogTrigger",
    "ScaleOutSlaTrigger",
    "SlaViolationTrigger",
    "TRIGGERS",
    "TriggerContext",
    "TriggerDecision",
    "available_triggers",
    "build_trigger",
    "get_trigger",
    "register_trigger",
    "resolve_triggers",
    "total_variation_distance",
]
