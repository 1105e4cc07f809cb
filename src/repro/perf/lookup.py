"""Profiled lookup table: (partition size, batch size) -> latency/util/throughput.

Section IV-C of the paper: *"The resulting profiled data is stored as a
two-dimensional lookup table that is indexed using (GPU partition size, batch
size) which returns the (profiled) DNN execution time."*  ELSA's latency
estimator, PARIS's knee/instance derivation and the simulator's execution
model all read from this table and never from the analytical model directly,
mirroring the paper's software structure.

Batch sizes that were not profiled are answered by linear interpolation
between the two nearest profiled batch sizes (and by extrapolation of the
last segment above the largest profiled batch), which is how serving systems
with per-batch profiles handle odd batch sizes in practice.  Extrapolated
values are floored so a negative profiled slope can never drive the estimate
to zero or below (a zero latency would report infinite throughput and crash
the execution model mid-simulation).

:class:`CachedEstimator` wraps one table per model behind the simulator's
``(model, batch, gpcs) -> seconds`` oracle signature and memoizes every
answer; it is the hot-path entry point shared by the partition workers,
ELSA's slack predictor and PARIS, so each distinct lookup is interpolated at
most once per run.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, asdict
from typing import Dict, Iterable, List, Mapping, Optional, Tuple


@dataclass(frozen=True)
class ProfileEntry:
    """One profiled measurement.

    Attributes:
        gpcs: partition size in GPCs.
        batch: batch size.
        latency_s: profiled query latency in seconds.
        utilization: profiled GPU (SM busy) utilization in [0, 1].
        throughput_qps: profiled steady-state queries per second.
    """

    gpcs: int
    batch: int
    latency_s: float
    utilization: float
    throughput_qps: float


class ProfileTable:
    """Two-dimensional profiled lookup table for a single DNN model.

    Args:
        model_name: name of the profiled model.
        entries: profiled measurements; must cover at least one
            (partition, batch) pair per partition size used.
    """

    def __init__(self, model_name: str, entries: Iterable[ProfileEntry]) -> None:
        self.model_name = model_name
        self._data: Dict[int, Dict[int, ProfileEntry]] = {}
        for entry in entries:
            self._data.setdefault(entry.gpcs, {})[entry.batch] = entry
        if not self._data:
            raise ValueError("ProfileTable requires at least one entry")
        self._batches: Dict[int, List[int]] = {
            gpcs: sorted(row) for gpcs, row in self._data.items()
        }

    # ------------------------------------------------------------------ #
    # basic introspection
    # ------------------------------------------------------------------ #
    @property
    def partition_sizes(self) -> List[int]:
        """Profiled partition sizes, ascending."""
        return sorted(self._data)

    def batch_sizes(self, gpcs: int) -> List[int]:
        """Profiled batch sizes for ``GPU(gpcs)``, ascending."""
        self._check_gpcs(gpcs)
        return list(self._batches[gpcs])

    @property
    def max_batch(self) -> int:
        """Largest profiled batch size across all partition sizes."""
        return max(max(b) for b in self._batches.values())

    def entry(self, gpcs: int, batch: int) -> ProfileEntry:
        """Exact profiled entry; raises ``KeyError`` if not profiled."""
        self._check_gpcs(gpcs)
        row = self._data[gpcs]
        if batch not in row:
            raise KeyError(
                f"batch {batch} not profiled for GPU({gpcs}) of {self.model_name}"
            )
        return row[batch]

    # ------------------------------------------------------------------ #
    # interpolating accessors (the public query API)
    # ------------------------------------------------------------------ #
    def latency(self, gpcs: int, batch: int) -> float:
        """Estimated query latency in seconds (interpolated if needed)."""
        return self._interp(gpcs, batch, "latency_s")

    def utilization(self, gpcs: int, batch: int) -> float:
        """Estimated GPU utilization in [0, 1] (interpolated if needed)."""
        return min(1.0, self._interp(gpcs, batch, "utilization"))

    def throughput(self, gpcs: int, batch: int) -> float:
        """Estimated steady-state queries/sec (derived from latency)."""
        latency = self.latency(gpcs, batch)
        return 1.0 / latency if latency > 0 else 0.0

    def _interp(self, gpcs: int, batch: int, field: str) -> float:
        self._check_gpcs(gpcs)
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        batches = self._batches[gpcs]
        row = self._data[gpcs]
        if batch in row:
            return getattr(row[batch], field)
        idx = bisect_left(batches, batch)
        if idx == 0:
            return getattr(row[batches[0]], field)
        extrapolated = idx == len(batches)
        if extrapolated:
            # extrapolate using the slope of the last profiled segment
            if len(batches) == 1:
                return getattr(row[batches[0]], field)
            b0, b1 = batches[-2], batches[-1]
        else:
            b0, b1 = batches[idx - 1], batches[idx]
        v0, v1 = getattr(row[b0], field), getattr(row[b1], field)
        slope = (v1 - v0) / (b1 - b0)
        value = v0 + slope * (batch - b0)
        if extrapolated:
            # A negative profiled slope must never extrapolate to zero or
            # below: floor at the last profiled value decaying harmonically
            # toward (but never reaching) zero, so latency stays strictly
            # positive and throughput finite however far past the profile a
            # query lands.
            return max(value, v1 * (b1 / batch))
        return max(0.0, value)

    def _check_gpcs(self, gpcs: int) -> None:
        if gpcs not in self._data:
            raise KeyError(
                f"GPU({gpcs}) not profiled for {self.model_name}; profiled "
                f"sizes: {self.partition_sizes}"
            )

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Serialise the table to a plain dictionary."""
        return {
            "model": self.model_name,
            "entries": [
                asdict(self._data[gpcs][batch])
                for gpcs in self.partition_sizes
                for batch in self._batches[gpcs]
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ProfileTable":
        """Reconstruct a table from :meth:`to_dict` output."""
        entries = [ProfileEntry(**entry) for entry in payload["entries"]]
        return cls(payload["model"], entries)

    def to_json(self) -> str:
        """Serialise the table to a JSON string."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, payload: str) -> "ProfileTable":
        """Reconstruct a table from :meth:`to_json` output."""
        return cls.from_dict(json.loads(payload))

    # ------------------------------------------------------------------ #
    # convenience
    # ------------------------------------------------------------------ #
    def rows(self) -> List[Tuple[int, int, float, float, float]]:
        """All entries as (gpcs, batch, latency_s, utilization, qps) tuples."""
        out = []
        for gpcs in self.partition_sizes:
            for batch in self._batches[gpcs]:
                entry = self._data[gpcs][batch]
                out.append(
                    (gpcs, batch, entry.latency_s, entry.utilization, entry.throughput_qps)
                )
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProfileTable(model={self.model_name!r}, partitions="
            f"{self.partition_sizes}, max_batch={self.max_batch})"
        )


class CachedEstimator:
    """Memoized multi-model latency oracle over profiled lookup tables.

    The simulator's replay loop, ELSA's slack predictor and PARIS's segment
    derivation all ask the same question — *how long does (model, batch)
    take on GPU(gpcs)?* — thousands of times per run, for a small set of
    distinct keys.  This wrapper answers each distinct key once through
    :meth:`ProfileTable.latency` and serves every repeat from a dictionary,
    so the interpolation cost disappears from the hot path while the values
    stay bit-identical to uncached lookups.

    Instances are callables with the ``LatencyFn`` signature
    ``(model, batch, gpcs) -> seconds`` and are safe to share between the
    workers, the scheduler and the analysis layer of one run (the memo only
    ever holds pure functions of the underlying tables).

    Args:
        profiles: profiled lookup tables keyed by model name.
        fallback: table used for models absent from ``profiles`` (e.g. the
            primary model's table, mirroring
            :class:`~repro.core.slack.SlackEstimator` semantics).  Without a
            fallback, unknown models raise ``KeyError``.
    """

    def __init__(
        self,
        profiles: Mapping[str, ProfileTable],
        fallback: Optional[ProfileTable] = None,
    ) -> None:
        if not profiles and fallback is None:
            raise ValueError("CachedEstimator requires at least one profile table")
        self._tables: Dict[str, ProfileTable] = dict(profiles)
        self._fallback = fallback
        self._memo: Dict[Tuple[Optional[str], int, int], float] = {}

    @property
    def models(self) -> List[str]:
        """Model names with a dedicated profile table, sorted."""
        return sorted(self._tables)

    def table_for(self, model: Optional[str]) -> ProfileTable:
        """The profile table answering queries for ``model``.

        Raises:
            KeyError: when the model has no table and no fallback is set.
        """
        table = self._tables.get(model, self._fallback)
        if table is None:
            raise KeyError(
                f"model {model!r} has no profile table; profiled models: "
                f"{sorted(self._tables)}"
            )
        return table

    def __call__(self, model: Optional[str], batch: int, gpcs: int) -> float:
        """Estimated latency in seconds of (``model``, ``batch``) on ``GPU(gpcs)``."""
        key = (model, batch, gpcs)
        memo = self._memo
        value = memo.get(key)
        if value is None:
            value = self.table_for(model).latency(gpcs, batch)
            memo[key] = value
        return value

    #: Alias so the callable also reads naturally as a named method.
    latency = __call__

    def throughput(self, model: Optional[str], batch: int, gpcs: int) -> float:
        """Estimated steady-state queries/sec (``1 / latency``, memoized)."""
        latency = self(model, batch, gpcs)
        return 1.0 / latency if latency > 0 else 0.0

    def cache_info(self) -> Dict[str, int]:
        """Size of the memo (diagnostics for benchmarks and tests)."""
        return {"entries": len(self._memo)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CachedEstimator(models={self.models}, "
            f"fallback={self._fallback.model_name if self._fallback else None!r})"
        )
