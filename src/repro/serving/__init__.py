"""End-to-end serving orchestration.

Glues the substrates together into the inference server of Figure 6:

* :mod:`repro.serving.config` — :class:`ServerConfig`, the one spelling of
  a design point (open-string policy names, per-policy specs, GPC budget,
  SLA policy, optional fleet).
* :mod:`repro.serving.sla` — SLA target derivation (Section V: N x the
  GPU(7) latency of the distribution's max batch size).
* :mod:`repro.serving.deployment` — turns a configuration plus profiled
  models into a concrete deployment: partition plan, MIG layout, scheduler
  (policies resolved through :mod:`repro.core.registry`).
* :mod:`repro.serving.session` — :class:`ServingSession`, the one execution
  surface: one-shot runs of a workload or a (multi-model) trace, lifecycle
  events, windowed metrics, scenario runs and live mid-run repartitioning
  with modeled MIG downtime.
"""

from repro.serving.config import ServerConfig
from repro.serving.sla import derive_sla_target
from repro.serving.deployment import Deployment, build_deployment, replan_deployment
from repro.serving.session import (
    DEFAULT_RECONFIG_COST,
    ServingSession,
    SessionResult,
    TriggerFiring,
)

__all__ = [
    "DEFAULT_RECONFIG_COST",
    "ServerConfig",
    "ServingSession",
    "SessionResult",
    "TriggerFiring",
    "derive_sla_target",
    "Deployment",
    "build_deployment",
    "replan_deployment",
]
