"""One-time profiling pass.

The paper: *"we conduct an exhaustive, one-time profiling of a target DNN
model's execution time over a target GPU partition size and all possible
batch sizes.  The latency to collect this information ... is approximately 5
minutes, which is a one-time cost."*

:class:`Profiler` performs the same sweep against the analytical
:class:`~repro.perf.latency_model.LatencyModel` (our stand-in for the
physical A100) and produces the :class:`~repro.perf.lookup.ProfileTable`
consumed by PARIS, ELSA and the simulator.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.gpu.architecture import A100, GPUArchitecture
from repro.models.base import ModelSpec
from repro.models.registry import get_model
from repro.perf.latency_model import LatencyModel
from repro.perf.lookup import ProfileEntry, ProfileTable
from repro.perf.roofline import RooflineParameters, params_for

#: Batch sizes profiled by default: powers of two from 1 to 64, matching the
#: x-axes of Figure 4, plus every batch size up to 8 so the table is dense in
#: the small-batch region where most queries land.
DEFAULT_BATCH_SIZES = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)


class Profiler:
    """Sweeps partition sizes and batch sizes to build profile tables.

    Args:
        architecture: physical GPU architecture to profile against.
        params: roofline constants for the analytical latency model.
        batch_sizes: batch sizes to profile (defaults to
            :data:`DEFAULT_BATCH_SIZES`).
        partition_sizes: partition sizes to profile (defaults to the
            architecture's valid sizes).
    """

    def __init__(
        self,
        architecture: GPUArchitecture = A100,
        params: Optional[RooflineParameters] = None,
        batch_sizes: Optional[Sequence[int]] = None,
        partition_sizes: Optional[Sequence[int]] = None,
    ) -> None:
        self.architecture = architecture
        self.latency_model = LatencyModel(architecture, params)
        self.batch_sizes = tuple(sorted(set(batch_sizes or DEFAULT_BATCH_SIZES)))
        self.partition_sizes = tuple(
            sorted(set(partition_sizes or architecture.valid_partition_sizes))
        )
        if any(b < 1 for b in self.batch_sizes):
            raise ValueError("batch sizes must be >= 1")
        invalid = set(self.partition_sizes) - set(architecture.valid_partition_sizes)
        if invalid:
            raise ValueError(
                f"partition sizes {sorted(invalid)} are not valid for "
                f"{architecture.name}"
            )

    def profile(self, model: ModelSpec) -> ProfileTable:
        """Profile ``model`` over every (partition size, batch size) pair."""
        entries = []
        for gpcs in self.partition_sizes:
            for batch in self.batch_sizes:
                cost = self.latency_model.query_cost(model, batch, gpcs)
                entries.append(
                    ProfileEntry(
                        gpcs=gpcs,
                        batch=batch,
                        latency_s=cost.latency_s,
                        utilization=cost.utilization,
                        throughput_qps=cost.throughput_qps,
                    )
                )
        return ProfileTable(model.name, entries)

    def profile_many(self, models: Iterable[ModelSpec]) -> Dict[str, ProfileTable]:
        """Profile several models, returning ``{model name: table}``."""
        return {model.name: self.profile(model) for model in models}


def profile_model(
    model_name: str,
    architecture: GPUArchitecture = A100,
    params: Optional[RooflineParameters] = None,
    batch_sizes: Optional[Sequence[int]] = None,
    partition_sizes: Optional[Sequence[int]] = None,
) -> ProfileTable:
    """Convenience wrapper: profile a registered model by name.

    Args:
        model_name: registry name, e.g. ``"resnet"``.
        architecture: physical GPU architecture.
        params: roofline constants.
        batch_sizes: batch sizes to profile.
        partition_sizes: partition sizes to profile.

    Returns:
        The profiled :class:`ProfileTable`.
    """
    profiler = Profiler(
        architecture=architecture,
        params=params,
        batch_sizes=batch_sizes,
        partition_sizes=partition_sizes,
    )
    return profiler.profile(get_model(model_name))


# --------------------------------------------------------------------------- #
# per-architecture profile-table cache
# --------------------------------------------------------------------------- #
#: Process-wide cache of profiled tables keyed by
#: (model name, architecture, roofline params, batch sizes, partition sizes),
#: the two sweeps sorted and deduplicated as :class:`Profiler` sweeps them.
#: All key components are hashable frozen dataclasses / tuples, so two
#: requests for the same (model, architecture) sweep share one ProfileTable
#: *object* — which in turn lets Paris plan memos, CachedEstimator memos and
#: the shared_paris registry hit across deployments, sessions and
#: experiment settings.
_TABLE_CACHE: Dict[Tuple, ProfileTable] = {}
_TABLE_CACHE_LIMIT = 256


def cached_profile(
    model_name: str,
    architecture: GPUArchitecture = A100,
    params: Optional[RooflineParameters] = None,
    batch_sizes: Optional[Sequence[int]] = None,
    partition_sizes: Optional[Sequence[int]] = None,
) -> ProfileTable:
    """Profile ``model_name`` on ``architecture``, memoized process-wide.

    The one-time profiling pass of Section IV-C is a pure function of the
    (model, architecture, sweep) triple, so fleets that mix architectures —
    where every served model needs one table *per architecture* — profile
    each combination exactly once per process and every deployment after
    that reuses the identical table object.

    Args:
        model_name: registry name of the model, e.g. ``"resnet"``.
        architecture: physical GPU architecture to profile against.
        params: roofline constants; ``None`` uses the architecture's
            calibrated defaults (:func:`repro.perf.roofline.params_for`).
        batch_sizes: batch sizes to sweep (:data:`DEFAULT_BATCH_SIZES`).
        partition_sizes: partition sizes to sweep (the architecture's valid
            sizes).

    Any spelling of one sweep (a list or a tuple, in any order, with
    repeats, or the default spelled out) shares one table, and so do
    ``params=None`` and the architecture's defaults spelled out.

    Returns:
        The (shared) profiled :class:`~repro.perf.lookup.ProfileTable`.
    """
    if params is None:
        params = params_for(architecture)
    batches = tuple(sorted(set(batch_sizes or DEFAULT_BATCH_SIZES)))
    sizes = tuple(sorted(set(partition_sizes or architecture.valid_partition_sizes)))
    key = (model_name, architecture, params, batches, sizes)
    table = _TABLE_CACHE.get(key)
    if table is None:
        if len(_TABLE_CACHE) >= _TABLE_CACHE_LIMIT:
            _TABLE_CACHE.pop(next(iter(_TABLE_CACHE)))
        table = _TABLE_CACHE[key] = profile_model(
            model_name,
            architecture=architecture,
            params=params,
            batch_sizes=batches,
            partition_sizes=sizes,
        )
    return table


def fleet_profiles(
    model_names: Sequence[str],
    architectures: Sequence[GPUArchitecture],
    params: Optional[RooflineParameters] = None,
    batch_sizes: Optional[Sequence[int]] = None,
) -> Dict[str, Dict[str, ProfileTable]]:
    """Profile every (model, architecture) pair of a fleet, cached.

    Args:
        model_names: registry names of every served model.
        architectures: the distinct architectures present in the fleet.
        params: roofline constants override (``None`` = per-architecture
            calibration).
        batch_sizes: batch sizes to sweep.

    Returns:
        Nested mapping ``architecture name -> model name -> ProfileTable``.
    """
    tables: Dict[str, Dict[str, ProfileTable]] = {}
    for architecture in architectures:
        per_arch = tables.setdefault(architecture.name, {})
        for model_name in model_names:
            per_arch[model_name] = cached_profile(
                model_name,
                architecture=architecture,
                params=params,
                batch_sizes=batch_sizes,
            )
    return tables


def clear_profile_cache() -> None:
    """Drop every cached per-architecture profile table (mainly for tests)."""
    _TABLE_CACHE.clear()
