"""Heterogeneous GPU fleets: mixed-architecture reconfigurable pools.

The paper evaluates PARIS/ELSA on a single homogeneous A100 server, but the
core premise — carve a reconfigurable GPU pool into right-sized partitions —
generalises directly to fleets that mix GPU generations, which is what
production inference clusters actually look like.  A :class:`Fleet` composes
several :class:`~repro.gpu.server.MultiGPUServer`\\ s (possibly of different
:class:`~repro.gpu.architecture.GPUArchitecture`\\ s, each with its own GPC
budget) into **one** schedulable pool:

* partition instances carry globally unique instance ids and globally unique
  physical-GPU indices, so the simulator and the schedulers address a fleet
  exactly like a single server;
* each instance's :class:`~repro.gpu.partition.GPUPartition` is carved from
  *its own server's* architecture, so the perf layer can resolve the right
  per-architecture profile table per instance;
* a fleet of **one** server delegates configuration to that server verbatim
  — its :class:`~repro.gpu.server.MultiGPUServer` packing, instance ids and
  placement.  The paper's single server is such a fleet: a flat
  ``ServerConfig(num_gpus=, architecture=, gpc_budget=)`` deploys onto the
  one-server fleet it spells (pinned by the fleet-identity property tests).

Fleet-level partition *plans* are keyed by ``(architecture name, size)``;
see :class:`~repro.core.plan.FleetPlan` and
:class:`~repro.core.paris.FleetParis` for how PARIS divides heterogeneous
budgets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.gpu.architecture import A100, GPUArchitecture, get_architecture
from repro.gpu.mig import MIGConfiguration
from repro.gpu.partition import GPUPartition, PartitionInstance
from repro.gpu.server import MultiGPUServer, ServerCapacityError
from repro.registry import check_count

#: Fleet-plan counts: ``(architecture name, partition size) -> instances``.
FleetCounts = Mapping[Tuple[str, int], int]


@dataclass(frozen=True)
class FleetServerSpec:
    """Declarative description of one server inside a fleet.

    Attributes:
        num_gpus: physical GPUs in this server.
        architecture: the server's GPU architecture — a
            :class:`~repro.gpu.architecture.GPUArchitecture` or a preset
            name (``"a100"``, ``"a30"``, ``"h100"``, ...), resolved via
            :func:`~repro.gpu.architecture.get_architecture`.
        gpc_budget: cap on the GPCs a partitioning may use on this server;
            ``None`` means the full ``num_gpus * gpc_count``.
    """

    num_gpus: int = 8
    architecture: Union[GPUArchitecture, str] = field(default_factory=lambda: A100)
    gpc_budget: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "architecture", get_architecture(self.architecture))
        check_count(self.num_gpus, "num_gpus must be positive and integral")
        if self.gpc_budget is not None:
            physical = self.num_gpus * self.architecture.gpc_count
            message = (
                f"gpc_budget must be in (0, {physical}] and integral for "
                f"{self.num_gpus}x{self.architecture.name}"
            )
            check_count(self.gpc_budget, message)
            if self.gpc_budget > physical:
                raise ValueError(f"{message}, got {self.gpc_budget}")

    @property
    def effective_gpc_budget(self) -> int:
        """The GPC budget this server contributes to the fleet."""
        if self.gpc_budget is not None:
            return self.gpc_budget
        return self.num_gpus * self.architecture.gpc_count

    @classmethod
    def coerce(
        cls, server: Union["FleetServerSpec", MultiGPUServer, tuple]
    ) -> "FleetServerSpec":
        """Coerce any accepted server description into a spec.

        Accepts a :class:`FleetServerSpec` (returned unchanged), a
        :class:`~repro.gpu.server.MultiGPUServer`, or a ``(num_gpus,
        architecture[, gpc_budget])`` tuple — the one coercion shared by
        :class:`Fleet`, :class:`~repro.serving.config.ServerConfig` and the
        analysis cost helpers.

        Raises:
            TypeError: for an unrecognised description.
        """
        if isinstance(server, cls):
            return server
        if isinstance(server, MultiGPUServer):
            return cls(
                num_gpus=server.num_gpus,
                architecture=server.architecture,
                gpc_budget=server.gpc_budget,
            )
        if isinstance(server, tuple):
            return cls(*server)
        raise TypeError(
            "fleet servers must be FleetServerSpec, MultiGPUServer or "
            f"(num_gpus, architecture[, gpc_budget]) tuples; got "
            f"{type(server).__name__}"
        )

    def build(self) -> MultiGPUServer:
        """Materialise the described :class:`MultiGPUServer`."""
        return MultiGPUServer(
            num_gpus=self.num_gpus,
            architecture=self.architecture,
            gpc_budget=self.gpc_budget,
        )

    def describe(self) -> str:
        """Readable shape, e.g. ``8xA100-SXM4-40GB(48)``."""
        budget = f"({self.gpc_budget})" if self.gpc_budget is not None else ""
        return f"{self.num_gpus}x{self.architecture.name}{budget}"


class Fleet:
    """A pool of (possibly mixed-architecture) reconfigurable GPU servers.

    Args:
        servers: the member servers, in fleet order — each a
            :class:`FleetServerSpec`, a :class:`MultiGPUServer`, or a
            ``(num_gpus, architecture)`` / ``(num_gpus, architecture,
            gpc_budget)`` tuple.

    Raises:
        ValueError: for an empty fleet.
    """

    def __init__(
        self, servers: Sequence[Union[FleetServerSpec, MultiGPUServer, tuple]]
    ) -> None:
        if not servers:
            raise ValueError("a Fleet requires at least one server")
        self.specs: Tuple[FleetServerSpec, ...] = tuple(
            FleetServerSpec.coerce(server) for server in servers
        )
        self.servers: Tuple[MultiGPUServer, ...] = tuple(
            spec.build() for spec in self.specs
        )
        #: Base global physical-GPU index of each server.
        self._gpu_base: List[int] = []
        base = 0
        for spec in self.specs:
            self._gpu_base.append(base)
            base += spec.num_gpus
        self._instances: List[PartitionInstance] = []


    # ------------------------------------------------------------------ #
    # shape introspection
    # ------------------------------------------------------------------ #
    @property
    def architectures(self) -> Tuple[GPUArchitecture, ...]:
        """Distinct member architectures, in first-appearance order."""
        seen: Dict[str, GPUArchitecture] = {}
        for spec in self.specs:
            seen.setdefault(spec.architecture.name, spec.architecture)
        return tuple(seen.values())

    @property
    def primary_architecture(self) -> GPUArchitecture:
        """The first server's architecture (drives SLA reference defaults)."""
        return self.specs[0].architecture

    @property
    def is_heterogeneous(self) -> bool:
        """True when more than one distinct architecture is present."""
        return len(self.architectures) > 1

    @property
    def num_gpus(self) -> int:
        """Total physical GPUs across the fleet."""
        return sum(spec.num_gpus for spec in self.specs)

    @property
    def total_gpcs(self) -> int:
        """Total GPCs usable by a partitioning (respecting per-server budgets)."""
        return sum(spec.effective_gpc_budget for spec in self.specs)

    def budgets_by_architecture(self) -> Dict[str, int]:
        """Summed GPC budget per architecture name, in fleet order."""
        budgets: Dict[str, int] = {}
        for spec in self.specs:
            name = spec.architecture.name
            budgets[name] = budgets.get(name, 0) + spec.effective_gpc_budget
        return budgets

    def architecture_named(self, name: str) -> GPUArchitecture:
        """The member architecture with the given name.

        Raises:
            KeyError: when no member server has that architecture.
        """
        for arch in self.architectures:
            if arch.name == name:
                return arch
        raise KeyError(
            f"architecture {name!r} is not part of this fleet; members: "
            f"{[a.name for a in self.architectures]}"
        )

    @property
    def instances(self) -> List[PartitionInstance]:
        """Partition instances created by the last :meth:`configure` call."""
        return list(self._instances)

    def describe(self) -> str:
        """Readable fleet shape, e.g. ``8xA100-SXM4-40GB + 4xA30``."""
        return " + ".join(spec.describe() for spec in self.specs)

    # ------------------------------------------------------------------ #
    # configuration
    # ------------------------------------------------------------------ #
    def configure(self, counts: Any) -> List[PartitionInstance]:
        """Reconfigure the fleet into the requested partition instances.

        Args:
            counts: either plain ``{size: count}`` (only meaningful for a
                single-architecture fleet), fleet counts keyed
                ``{(architecture name, size): count}``, or any object with a
                ``counts`` attribute in the latter form (e.g. a
                :class:`~repro.core.plan.FleetPlan`).

        Returns:
            The flattened instance list: globally unique instance ids
            ascending, ordered by partition size then global GPU index —
            the same discipline as a single server.

        Raises:
            ServerCapacityError: when the demand does not fit; the error's
                ``breakdown`` carries the per-server demand/capacity table.
        """
        per_arch = self._normalise_counts(counts)

        # A single-server fleet (the paper's one server) delegates verbatim:
        # that server's own packing and instance ids.
        if len(self.servers) == 1:
            only = self.servers[0]
            flat = per_arch.get(only.architecture.name, {})
            unknown = [name for name in per_arch if name != only.architecture.name]
            if unknown:
                raise ServerCapacityError(
                    f"plan requests architectures {unknown} absent from this "
                    f"fleet ({self.describe()})",
                    breakdown={"unknown_architectures": unknown},
                )
            self._instances = only.configure(flat)
            return self.instances

        known = {arch.name for arch in self.architectures}
        unknown = sorted(set(per_arch) - known)
        if unknown:
            raise ServerCapacityError(
                f"plan requests architectures {unknown} absent from this "
                f"fleet ({self.describe()})",
                breakdown={"unknown_architectures": unknown},
            )

        placements = self._pack(per_arch)

        # Global numbering: ascending partition size, then global GPU index
        # — the single-server discipline lifted to the whole pool.
        placements.sort(key=lambda p: (p[0], p[1]))
        instances: List[PartitionInstance] = []
        for instance_id, (size, global_gpu, arch) in enumerate(placements):
            instances.append(
                PartitionInstance(
                    instance_id=instance_id,
                    partition=GPUPartition(size, arch),
                    physical_gpu=global_gpu,
                )
            )
        self._instances = instances
        return self.instances

    def _normalise_counts(self, counts: Any) -> Dict[str, Dict[int, int]]:
        """Normalise any accepted plan form to ``{arch name: {size: count}}``."""
        if hasattr(counts, "counts") and not isinstance(counts, Mapping):
            counts = counts.counts
        if not isinstance(counts, Mapping):
            raise TypeError(
                "configure() expects a mapping of counts (or a plan object "
                f"with a .counts mapping); got {type(counts).__name__}"
            )
        per_arch: Dict[str, Dict[int, int]] = {}
        for key, count in counts.items():
            if isinstance(key, tuple):
                name, size = key
                name = get_architecture(name).name if not isinstance(name, str) else name
            else:
                if self.is_heterogeneous:
                    raise ValueError(
                        "a heterogeneous fleet needs counts keyed by "
                        "(architecture name, size); got a bare size "
                        f"{key!r} — which architecture should host it?"
                    )
                name, size = self.primary_architecture.name, key
            if count:
                row = per_arch.setdefault(name, {})
                row[int(size)] = row.get(int(size), 0) + int(count)
        return per_arch

    def _pack(
        self, per_arch: Dict[str, Dict[int, int]]
    ) -> List[Tuple[int, int, GPUArchitecture]]:
        """Place every requested instance onto the fleet's physical GPUs.

        Best-fit decreasing per architecture, across that architecture's
        servers, respecting each server's own GPC budget and per-GPU MIG
        packing rules.

        Returns:
            Flat placement triples ``(size, global gpu index, architecture)``.
        """
        # Per-server packing state.
        configs: List[List[MIGConfiguration]] = []
        used: List[int] = []
        for spec in self.specs:
            configs.append(
                [
                    MIGConfiguration(gpu_index=g, architecture=spec.architecture)
                    for g in range(spec.num_gpus)
                ]
            )
            used.append(0)

        placements: List[Tuple[int, int, GPUArchitecture]] = []
        for arch_name, flat in per_arch.items():
            arch = self.architecture_named(arch_name)
            supported = set(arch.valid_partition_sizes)
            bad = sorted(size for size in flat if size not in supported)
            if bad:
                raise ServerCapacityError(
                    f"partition size(s) {bad} are not supported by "
                    f"{arch_name} (valid sizes: {sorted(supported)})",
                    breakdown={
                        "architecture": arch_name,
                        "unsupported_sizes": bad,
                        "valid_sizes": sorted(supported),
                    },
                )
            member_ids = [
                i for i, spec in enumerate(self.specs)
                if spec.architecture.name == arch_name
            ]
            demand = sum(size * count for size, count in flat.items())
            budget = sum(self.specs[i].effective_gpc_budget for i in member_ids)
            if demand > budget:
                raise ServerCapacityError(
                    f"plan demands {demand} {arch_name} GPCs but the fleet "
                    f"budgets only {budget} "
                    f"({self._server_breakdown(member_ids, used)})",
                    breakdown=self._breakdown_dict(arch_name, demand, member_ids, used),
                )
            items: List[int] = []
            for size in sorted(flat, reverse=True):
                items.extend([size] * flat[size])
            for size in items:
                candidates = []
                for sid in member_ids:
                    spec = self.specs[sid]
                    if used[sid] + size > spec.effective_gpc_budget:
                        continue
                    for cfg in configs[sid]:
                        if cfg.can_add(size):
                            candidates.append((cfg.free_gpcs, sid, cfg))
                if not candidates:
                    raise ServerCapacityError(
                        f"unable to place GPU({size}) on any {arch_name} "
                        f"server ({self._server_breakdown(member_ids, used)})",
                        breakdown=self._breakdown_dict(
                            arch_name, demand, member_ids, used
                        ),
                    )
                candidates.sort(key=lambda c: (c[0], c[1], c[2].gpu_index))
                _, sid, cfg = candidates[0]
                cfg.add(size)
                used[sid] += size
                placements.append((size, self._gpu_base[sid] + cfg.gpu_index, arch))
        return placements

    def _server_breakdown(self, member_ids: Sequence[int], used: List[int]) -> str:
        parts = []
        for sid in member_ids:
            spec = self.specs[sid]
            parts.append(
                f"server{sid} {spec.describe()}: "
                f"{used[sid]}/{spec.effective_gpc_budget} GPCs used"
            )
        return "; ".join(parts)

    def _breakdown_dict(
        self,
        arch_name: str,
        demand: int,
        member_ids: Sequence[int],
        used: List[int],
    ) -> Dict:
        return {
            "architecture": arch_name,
            "demand_gpcs": demand,
            "per_server": {
                sid: {
                    "shape": self.specs[sid].describe(),
                    "used_gpcs": used[sid],
                    "budget_gpcs": self.specs[sid].effective_gpc_budget,
                }
                for sid in member_ids
            },
        }

    def summary(self) -> Dict[Tuple[str, int], int]:
        """Current configuration as ``{(architecture name, size): count}``."""
        out: Dict[Tuple[str, int], int] = {}
        for inst in self._instances:
            key = (inst.partition.architecture.name, inst.gpcs)
            out[key] = out.get(key, 0) + 1
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Fleet({self.describe()})"


def carve_budgets(
    specs: Sequence[FleetServerSpec],
    quota_gpcs: int,
    free: Optional[Sequence[int]] = None,
) -> Tuple[int, ...]:
    """First-fit carve of a GPC quota across a fleet's servers.

    The shared-pool accounting primitive used by multi-tenant serving: a
    tenant's quota of ``quota_gpcs`` is satisfied server by server in fleet
    order, taking as much of each server's free budget as needed.  The
    result is a per-server allocation (same length/order as ``specs``) whose
    sum is exactly ``quota_gpcs``.

    Args:
        specs: the fleet's member server specs, in fleet order.
        quota_gpcs: total GPCs to allocate (must be positive).
        free: remaining free GPCs per server; defaults to each server's full
            effective budget (an empty pool).

    Raises:
        ValueError: when the quota is non-positive, ``free`` has the wrong
            shape, or the free capacity cannot cover the quota.
    """
    if quota_gpcs <= 0:
        raise ValueError("quota_gpcs must be positive")
    capacities = (
        [spec.effective_gpc_budget for spec in specs] if free is None else list(free)
    )
    if len(capacities) != len(specs):
        raise ValueError(
            f"free has {len(capacities)} entries for {len(specs)} servers"
        )
    for index, (spec, capacity) in enumerate(zip(specs, capacities)):
        if not 0 <= capacity <= spec.effective_gpc_budget:
            raise ValueError(
                f"free[{index}]={capacity} is outside [0, "
                f"{spec.effective_gpc_budget}] for {spec.describe()}"
            )
    available = sum(capacities)
    if quota_gpcs > available:
        raise ValueError(
            f"quota of {quota_gpcs} GPCs exceeds the {available} free GPCs "
            f"of {' + '.join(spec.describe() for spec in specs)}"
        )
    allocation: List[int] = []
    remaining = quota_gpcs
    for capacity in capacities:
        take = min(capacity, remaining)
        allocation.append(take)
        remaining -= take
    return tuple(allocation)


def sliced_specs(
    specs: Sequence[FleetServerSpec], allocation: Sequence[int]
) -> Tuple[FleetServerSpec, ...]:
    """The sub-fleet a per-server GPC allocation describes.

    Servers with a zero allocation are dropped; the rest keep their physical
    shape with ``gpc_budget`` shrunk to the allocated share — the config a
    tenant session deploys against when it owns a slice of a shared fleet.

    Raises:
        ValueError: on shape mismatch, an empty allocation, or a share
            exceeding a server's own budget.
    """
    if len(allocation) != len(specs):
        raise ValueError(
            f"allocation has {len(allocation)} entries for {len(specs)} servers"
        )
    sliced: List[FleetServerSpec] = []
    for spec, share in zip(specs, allocation):
        if share < 0 or share > spec.effective_gpc_budget:
            raise ValueError(
                f"allocation {share} is outside [0, {spec.effective_gpc_budget}] "
                f"for {spec.describe()}"
            )
        if share:
            sliced.append(
                FleetServerSpec(
                    num_gpus=spec.num_gpus,
                    architecture=spec.architecture,
                    gpc_budget=share,
                )
            )
    if not sliced:
        raise ValueError("allocation assigns no GPCs to any server")
    return tuple(sliced)


class FleetRoster:
    """Stable-identity membership ledger of an elastic fleet.

    A :class:`Fleet` describes *composition* — which shapes, packed how.
    The control plane additionally needs *identity*: "server 3" must keep
    meaning the same physical box across scale-outs, scale-ins and
    preemptions, so decisions, hook events and window artifacts can name
    the server they acted on.  The roster assigns each member a monotone
    integer id at admission (the initial fleet gets ``0..n-1`` in fleet
    order), never reuses ids, and preserves admission order in
    :attr:`specs` — so re-planning a mutated roster is deterministic.

    Args:
        servers: initial members (specs, servers, or tuples accepted by
            :meth:`FleetServerSpec.coerce`).
    """

    def __init__(self, servers: Sequence = ()) -> None:
        self._members: Dict[int, FleetServerSpec] = {}
        self._next_id = 0
        for server in servers:
            self.add(server)
        if not self._members:
            raise ValueError("a fleet roster needs at least one initial server")

    @property
    def specs(self) -> Tuple[FleetServerSpec, ...]:
        """Member specs in admission (id) order — the plan/deploy order."""
        return tuple(self._members[sid] for sid in sorted(self._members))

    @property
    def ids(self) -> Tuple[int, ...]:
        """Live member ids in admission order."""
        return tuple(sorted(self._members))

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, server_id: int) -> bool:
        return server_id in self._members

    def spec_of(self, server_id: int) -> FleetServerSpec:
        """The spec of a live member.

        Raises:
            KeyError: for an unknown or already-removed id.
        """
        try:
            return self._members[server_id]
        except KeyError:
            raise KeyError(
                f"server {server_id} is not a live fleet member; live ids: "
                f"{list(sorted(self._members))}"
            ) from None

    def add(self, server: Union[FleetServerSpec, MultiGPUServer, tuple]) -> int:
        """Admit a server and return its (new, never-recycled) id."""
        spec = FleetServerSpec.coerce(server)
        server_id = self._next_id
        self._members[server_id] = spec
        self._next_id += 1
        return server_id

    def remove(self, server_id: int) -> FleetServerSpec:
        """Retire a live member, returning its spec.

        Raises:
            KeyError: for an unknown or already-removed id.
            ValueError: when removal would empty the fleet.
        """
        spec = self.spec_of(server_id)
        if len(self._members) == 1:
            raise ValueError(
                f"removing server {server_id} would leave an empty fleet"
            )
        del self._members[server_id]
        return spec

    def newest_id(self) -> int:
        """The most recently admitted live member's id (LIFO scale-in pick)."""
        return max(self._members)

    def describe(self) -> str:
        """Readable membership, e.g. ``0:8xA100-SXM4-40GB(48) + 2:...``."""
        return " + ".join(
            f"{sid}:{self._members[sid].describe()}" for sid in sorted(self._members)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FleetRoster({self.describe()})"


def as_fleet(
    servers: Union[
        Fleet, FleetServerSpec, MultiGPUServer, tuple, Sequence[Any]
    ],
) -> Fleet:
    """Coerce a fleet description into a :class:`Fleet`.

    Accepts a :class:`Fleet` (returned unchanged), a single spec/server, or
    a sequence of them.
    """
    if isinstance(servers, Fleet):
        return servers
    if isinstance(servers, (FleetServerSpec, MultiGPUServer)):
        return Fleet([servers])
    return Fleet(list(servers))
