"""Fluent builder for server design points.

:class:`ServerBuilder` assembles a :class:`~repro.serving.config.ServerConfig`
step by step, resolving policy names against the registries of
:mod:`repro.core.registry` and per-policy options against the spec types of
:mod:`repro.core.specs`::

    config = (
        ServerBuilder("resnet")
        .cluster(num_gpus=8, gpc_budget=48)
        .partitioner("paris", knee_threshold=0.85)
        .scheduler("elsa", alpha=1.2)
        .sla(multiplier=1.5, max_batch=32)
        .build()
    )
    session = ServerBuilder("resnet").serve_models("bert").build_session()

Options for a *custom* registered policy are wrapped in a
:class:`~repro.core.specs.PolicySpec` and handed to the registered factory
verbatim, so third-party policies get configured through the same fluent
surface as the built-ins.
"""

from __future__ import annotations

import dataclasses
from typing import Any, ClassVar, Dict, Optional

from repro.core.registry import PARTITIONERS, SCHEDULERS
from repro.core.specs import (
    ClusterSpec,
    PolicySpec,
    SlaSpec,
    resolve_policy_spec,
    spec_policy_name,
)
from repro.gpu.architecture import GPUArchitecture
from repro.serving.config import ServerConfig, _check_flat_fields


def _make_spec(kind: str, name_or_spec: Any, options: Dict[str, Any]):
    """Resolve a policy selector + options into (name, spec-or-None)."""
    if isinstance(name_or_spec, str):
        name, spec = name_or_spec, None
    elif options:
        raise ValueError(
            "per-policy options must go inside the spec object when one "
            "is passed directly"
        )
    else:
        name, spec = spec_policy_name(name_or_spec), name_or_spec
    # resolve registry aliases (e.g. scheduler "random" -> "random-dispatch")
    # so options land on the built-in spec instead of an ignored PolicySpec
    name = (PARTITIONERS if kind == "partitioner" else SCHEDULERS).canonical(name)
    if options:
        spec = PolicySpec(name, options)
    return name, resolve_policy_spec(kind, name, spec)


class ServerBuilder:
    """Incrementally assemble one inference-server design point.

    Args:
        model: primary model served (drives partitioning and the SLA).
    """

    def __init__(self, model: str) -> None:
        if not model:
            raise ValueError("model must be non-empty")
        self._model = model
        self._extra_models: list = []
        self._partitioner: Any = "paris"
        self._partitioner_spec: Any = None
        self._scheduler: Any = "elsa"
        self._scheduler_spec: Any = None
        self._sla: Optional[SlaSpec] = None
        self._cluster: Optional[ClusterSpec] = None
        self._overrides: Dict[str, Any] = {}
        self._claims: Dict[str, str] = {}  # flat field -> owning builder step

    # ------------------------------------------------------------------ #
    # fluent steps
    # ------------------------------------------------------------------ #
    def serve_models(self, *models: str) -> "ServerBuilder":
        """Co-locate additional models on the same server."""
        self._extra_models.extend(models)
        return self

    def partitioner(self, policy: Any, **options: Any) -> "ServerBuilder":
        """Select the partitioner by registry name (or spec object).

        Built-in names accept their spec's fields as keyword options (e.g.
        ``partitioner("paris", knee_threshold=0.85)``); options for custom
        names are delivered to the registered factory as a
        :class:`~repro.core.specs.PolicySpec`.
        """
        self._partitioner, self._partitioner_spec = _make_spec(
            "partitioner", policy, options
        )
        return self

    def scheduler(self, policy: Any, **options: Any) -> "ServerBuilder":
        """Select the scheduler by registry name (or spec object)."""
        self._scheduler, self._scheduler_spec = _make_spec("scheduler", policy, options)
        return self

    def sla(
        self,
        multiplier: Optional[float] = None,
        max_batch: Optional[int] = None,
        reference_gpcs: Optional[int] = None,
    ) -> "ServerBuilder":
        """Configure SLA derivation (Section V); omitted knobs keep their
        :class:`~repro.core.specs.SlaSpec` defaults."""
        passed = {
            name: value
            for name, value in (
                ("multiplier", multiplier),
                ("max_batch", max_batch),
                ("reference_gpcs", reference_gpcs),
            )
            if value is not None
        }
        flat_names = {
            "multiplier": "sla_multiplier",
            "max_batch": "max_batch",
            "reference_gpcs": "sla_reference_gpcs",
        }
        # re-running the step merges into the previous call's values
        spec = (
            dataclasses.replace(self._sla, **passed)
            if self._sla is not None
            else SlaSpec(**passed)
        )
        prior = [f for f, step in self._claims.items() if step == ".sla()"]
        self._claim(".sla()", set(prior) | {flat_names[name] for name in passed})
        self._sla = spec
        return self

    def cluster(
        self,
        num_gpus: Optional[int] = None,
        gpc_budget: Optional[int] = None,
        architecture: Optional[GPUArchitecture] = None,
        frontend_capacity_qps: Optional[float] = None,
    ) -> "ServerBuilder":
        """Configure the physical server shape; omitted knobs keep their
        :class:`~repro.core.specs.ClusterSpec` defaults."""
        passed = {
            name: value
            for name, value in (
                ("num_gpus", num_gpus),
                ("gpc_budget", gpc_budget),
                ("architecture", architecture),
                ("frontend_capacity_qps", frontend_capacity_qps),
            )
            if value is not None
        }
        # re-running the step merges into the previous call's values
        spec = (
            dataclasses.replace(self._cluster, **passed)
            if self._cluster is not None
            else ClusterSpec(**passed)
        )
        prior = [f for f, step in self._claims.items() if step == ".cluster()"]
        self._claim(".cluster()", set(prior) | set(passed))
        self._cluster = spec
        return self

    def fleet(self, *servers: Any) -> "ServerBuilder":
        """Deploy onto a (possibly mixed-architecture) fleet of servers.

        Each server is a :class:`~repro.gpu.fleet.FleetServerSpec`, a
        ``(num_gpus, architecture[, gpc_budget])`` tuple, or an architecture
        preset name (one full 8-GPU server of that architecture)::

            ServerBuilder("resnet").fleet(
                (8, "a100", 48),
                (4, "a30"),
            )

        The fleet supersedes the flat cluster shape: combining it with
        ``.cluster(num_gpus=...)``, ``.cluster(gpc_budget=...)`` or
        ``.cluster(architecture=...)`` raises (those fields are derived
        from the fleet); ``.cluster(frontend_capacity_qps=...)`` still
        composes.
        """
        if not servers:
            raise ValueError(".fleet() requires at least one server")
        from repro.gpu.fleet import FleetServerSpec

        specs = tuple(
            FleetServerSpec(architecture=server) if isinstance(server, str) else server
            for server in servers
        )
        self._claim(".fleet()", ("fleet", "num_gpus", "gpc_budget", "architecture"))
        self._overrides["fleet"] = specs
        return self

    def seed(self, seed: int) -> "ServerBuilder":
        """Seed for the stochastic policies (random partitioner/dispatch)."""
        self._claim(".seed()", ("random_seed",))
        self._overrides["random_seed"] = seed
        return self

    _RESERVED_OPTIONS: ClassVar[Dict[str, str]] = {
        "model": "ServerBuilder(model)",
        "partitioning": ".partitioner()",
        "partitioner_spec": ".partitioner()",
        "scheduler": ".scheduler()",
        "scheduler_spec": ".scheduler()",
        "extra_models": ".serve_models()",
    }

    def options(self, **overrides: Any) -> "ServerBuilder":
        """Set any remaining flat :class:`ServerConfig` fields directly.

        Fields owned by a dedicated builder step — whether structurally
        (``partitioning``, ``scheduler``, ...) or because that step already
        set them in this chain — are rejected here with a pointer to the
        step, so a value can never be silently out-prioritised.  A name
        that is no config field (e.g. a policy tunable, whose home is its
        spec) raises ``TypeError`` here, not at :meth:`build`.
        """
        clashes = sorted(set(overrides) & set(self._RESERVED_OPTIONS))
        if clashes:
            hints = "; ".join(
                f"set {key!r} via {self._RESERVED_OPTIONS[key]}" for key in clashes
            )
            raise ValueError(
                f"option(s) {clashes} collide with dedicated builder steps: {hints}"
            )
        _check_flat_fields(overrides, self._RESERVED_OPTIONS)
        self._claim(".options()", overrides)
        self._overrides.update(overrides)
        return self

    def _claim(self, step: str, fields) -> None:
        """Record which step owns which flat fields; collisions raise.

        A dedicated step re-run releases its previous claims first (its new
        values replace its old ones); two *different* steps setting the same
        field is ambiguous and raises instead of silently picking a winner.
        """
        fields = list(fields)
        # validate BEFORE mutating: a rejected step must leave both the
        # claims table and the builder state untouched
        for field in fields:
            owner = self._claims.get(field)
            if owner is not None and owner != step:
                raise ValueError(
                    f"{field!r} is set by both {owner} and {step}; "
                    "configure it in one place"
                )
        if step != ".options()":
            for field in [f for f, owner in self._claims.items() if owner == step]:
                del self._claims[field]
        for field in fields:
            self._claims[field] = step

    # ------------------------------------------------------------------ #
    # terminal steps
    # ------------------------------------------------------------------ #
    def build(self) -> ServerConfig:
        """Materialise the :class:`ServerConfig`."""
        return ServerConfig.from_specs(
            self._model,
            partitioner=self._partitioner_spec or self._partitioner,
            scheduler=self._scheduler_spec or self._scheduler,
            sla=self._sla,
            cluster=self._cluster,
            extra_models=tuple(self._extra_models),
            **self._overrides,
        )

    def build_session(self, **session_kwargs: Any):
        """Materialise a :class:`~repro.serving.session.ServingSession`.

        Keyword args (``triggers``, ``reconfig_cost``, ``window``,
        ``observers``, ``batch_pdf``, ...) are passed through to the session
        constructor.
        """
        from repro.serving.session import ServingSession

        return ServingSession(self.build(), **session_kwargs)
