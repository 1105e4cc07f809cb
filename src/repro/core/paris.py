"""PARIS: Partitioning Algorithm for Reconfigurable multi-GPU Inference Servers.

Implements Algorithm 1 of the paper.  Inputs (Section IV-B):

1. ``Dist[]`` — the batch-size probability density function (the log-normal
   web-service distribution, or an empirical histogram collected online);
2. ``Util_k[]`` — the profiled GPU utilization of each partition size ``k``
   at each batch size (inside the :class:`~repro.perf.lookup.ProfileTable`);
3. ``Throughput_{k,b}`` — the profiled effective throughput (queries/second)
   of partition size ``k`` executing batch size ``b``.

Steps:

* **Step A** — derive ``MaxBatch_knee`` per partition size (utilization
  threshold 0.8), handled by :mod:`repro.core.knee`.
* **Step B** — split the batch-size range into non-overlapping segments at
  the knees and compute the relative instance requirement
  ``R_k = sum_{b in segment_k} Dist(b) / Throughput_{k,b}``.
* **Step C** — normalise ``R_k`` by the GPC budget to obtain the absolute
  instance counts ``N_k`` (with integer rounding that never exceeds the
  budget and greedily fills leftover GPCs by largest remaining demand).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.knee import derive_knees
from repro.core.plan import BatchSegment, FleetPlan, PartitionPlan
from repro.core.specs import ParisSpec
from repro.perf.lookup import CachedEstimator, ProfileTable

#: Plans memoized per Paris instance; a bisection sweep revisits the same
#: (PDF, budget) pair once per rate point, a scenario session once per
#: trigger checkpoint — far below this bound in practice.
_PLAN_CACHE_LIMIT = 256


@dataclass
class Paris:
    """The PARIS partitioning algorithm.

    Args:
        profile: profiled lookup table of the target model.
        config: algorithm tunables (:class:`~repro.core.specs.ParisSpec`).
    """

    profile: ProfileTable
    config: ParisSpec = field(default_factory=ParisSpec)

    def __post_init__(self) -> None:
        # The online repartitioning loop re-runs plan() against every
        # observed PDF; memoizing the throughput lookups means each distinct
        # (batch, size) pair is interpolated once per Paris instance, not
        # once per replan.
        self._estimator = CachedEstimator({self.profile.model_name: self.profile})
        self._plan_cache: Dict[Tuple, PartitionPlan] = {}

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def plan(self, batch_pdf: Dict[int, float], total_gpcs: int) -> PartitionPlan:
        """Run Algorithm 1 and return the partitioning plan.

        Plans are memoized on (PDF, budget): the plan is a pure function of
        the batch-size distribution and the GPC budget — *not* of the
        arrival rate — so a latency-bounded-throughput search that revisits
        the same design at many rates receives the **identical plan object**
        every time and each bisection step only replays, never
        re-partitions.

        Args:
            batch_pdf: mapping batch size -> probability (``Dist[]``).  Must
                have non-negative values and positive total mass; it is
                normalised internally.
            total_gpcs: the server's GPC budget to divide up.

        Returns:
            The heterogeneous :class:`~repro.core.plan.PartitionPlan`.
        """
        key = (tuple(sorted(batch_pdf.items())), int(total_gpcs))
        cached = self._plan_cache.get(key)
        if cached is not None:
            return cached
        pdf = self._normalise_pdf(batch_pdf)
        sizes = self._candidate_sizes()
        if total_gpcs < min(sizes):
            raise ValueError(
                f"total_gpcs={total_gpcs} is smaller than the smallest "
                f"partition size {min(sizes)}"
            )

        # Step A: MaxBatch_knee per partition size.
        knees = derive_knees(self.profile, sizes, self.config.knee_threshold)

        # Step B: segment the batch range at the knees and accumulate R_k.
        segments = self._segment(pdf, sizes, {k: knees[k].batch for k in sizes})

        # Step C: convert relative ratios into absolute instance counts.
        counts = self._instance_counts(segments, total_gpcs)

        plan = PartitionPlan(
            model=self.profile.model_name,
            counts=counts,
            total_gpcs=total_gpcs,
            strategy="paris",
            knees={k: knees[k].batch for k in sizes},
            segments=segments,
        )
        if len(self._plan_cache) >= _PLAN_CACHE_LIMIT:
            self._plan_cache.pop(next(iter(self._plan_cache)))
        self._plan_cache[key] = plan
        return plan

    # ------------------------------------------------------------------ #
    # Step B: batch-range segmentation and relative ratios
    # ------------------------------------------------------------------ #
    def _segment(
        self,
        pdf: Dict[int, float],
        sizes: Sequence[int],
        knees: Dict[int, int],
    ) -> List[BatchSegment]:
        max_batch = max(pdf)
        segments: List[BatchSegment] = []
        previous_high = 0
        for index, gpcs in enumerate(sizes):
            low = previous_high + 1
            high = knees[gpcs]
            if index == len(sizes) - 1:
                # The largest partition also covers everything beyond its knee:
                # there is no bigger partition to delegate large batches to.
                high = max(high, max_batch)
            high = max(high, low)  # keep segments well-formed even if knees tie
            probability = sum(p for b, p in pdf.items() if low <= b <= high)
            ratio = 0.0
            for batch, prob in pdf.items():
                if low <= batch <= high and prob > 0:
                    throughput = self._estimator.throughput(
                        self.profile.model_name, batch, gpcs
                    )
                    if throughput <= 0:
                        raise ValueError(
                            f"profiled throughput for GPU({gpcs}) batch {batch} "
                            "must be positive"
                        )
                    ratio += prob / throughput
            segments.append(
                BatchSegment(
                    gpcs=gpcs,
                    low=low,
                    high=high,
                    probability=probability,
                    instance_ratio=ratio,
                )
            )
            previous_high = high
        return segments

    # ------------------------------------------------------------------ #
    # Step C: absolute instance counts
    # ------------------------------------------------------------------ #
    def _instance_counts(
        self, segments: List[BatchSegment], total_gpcs: int
    ) -> Dict[int, int]:
        ratios = {seg.gpcs: seg.instance_ratio for seg in segments}
        sum_r = sum(gpcs * ratio for gpcs, ratio in ratios.items())
        if sum_r <= 0:
            raise ValueError(
                "batch size distribution assigns no probability mass to any "
                "profiled batch size"
            )
        scale = total_gpcs / sum_r
        ideal = {gpcs: scale * ratio for gpcs, ratio in ratios.items()}

        # Floor the ideal counts, then greedily spend leftover GPCs on the
        # partition sizes with the largest un-met (fractional) demand.
        counts = {gpcs: int(ideal[gpcs]) for gpcs in ideal}

        # Guarantee coverage of active segments when the budget allows it.
        floor = self.config.min_instances_per_active_segment
        floors: Dict[int, int] = {}
        if floor > 0:
            for segment in segments:
                if segment.probability > 0:
                    floors[segment.gpcs] = floor
                    if counts[segment.gpcs] < floor:
                        counts[segment.gpcs] = floor

        used = sum(gpcs * count for gpcs, count in counts.items())
        if used > total_gpcs:
            counts = self._shrink_to_budget(counts, ideal, total_gpcs, floors)
            used = sum(gpcs * count for gpcs, count in counts.items())

        remaining = total_gpcs - used
        counts = self._spend_leftover(counts, ideal, ratios, remaining)
        return {gpcs: count for gpcs, count in counts.items() if count > 0}

    @staticmethod
    def _shrink_to_budget(
        counts: Dict[int, int],
        ideal: Dict[int, float],
        total_gpcs: int,
        floors: Optional[Dict[int, int]] = None,
    ) -> Dict[int, int]:
        """Remove instances (least-demanded first) until the plan fits the budget.

        Sizes at their configured per-segment floor are only shrunk when no
        size above its floor remains, i.e. when the floors themselves do not
        fit the budget.
        """
        counts = dict(counts)
        floors = floors or {}
        while sum(g * c for g, c in counts.items()) > total_gpcs:
            # drop an instance from the size with the largest surplus vs ideal
            candidates = [g for g, c in counts.items() if c > floors.get(g, 0)]
            if not candidates:
                candidates = [g for g, c in counts.items() if c > 0]
            surplus = {g: counts[g] - ideal[g] for g in candidates}
            victim = max(candidates, key=lambda g: (surplus[g], g))
            counts[victim] -= 1
        return counts

    @staticmethod
    def _spend_leftover(
        counts: Dict[int, int],
        ideal: Dict[int, float],
        ratios: Dict[int, float],
        remaining: int,
    ) -> Dict[int, int]:
        """Spend leftover GPCs on the sizes with the largest unmet demand.

        Preference order: largest fractional shortfall vs the ideal count,
        restricted to sizes that fit in the remaining budget and (when
        possible) have non-zero demand.
        """
        counts = dict(counts)
        while remaining > 0:
            fitting = [g for g in counts if g <= remaining]
            if not fitting:
                break
            demanded = [g for g in fitting if ratios.get(g, 0.0) > 0]
            pool = demanded or fitting
            shortfall = {g: ideal[g] - counts[g] for g in pool}
            best = max(pool, key=lambda g: (shortfall[g], g))
            counts[best] += 1
            remaining -= best
        return counts

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _candidate_sizes(self) -> List[int]:
        sizes = self.config.partition_sizes or self.profile.partition_sizes
        sizes = sorted(set(sizes))
        missing = [s for s in sizes if s not in self.profile.partition_sizes]
        if missing:
            raise ValueError(
                f"partition sizes {missing} were not profiled for "
                f"{self.profile.model_name}"
            )
        return sizes

    @staticmethod
    def _normalise_pdf(batch_pdf: Dict[int, float]) -> Dict[int, float]:
        if not batch_pdf:
            raise ValueError("batch_pdf must be non-empty")
        cleaned = {}
        for batch, prob in batch_pdf.items():
            if batch < 1:
                raise ValueError(f"batch sizes must be >= 1, got {batch}")
            if prob < 0:
                raise ValueError(f"probabilities must be non-negative, got {prob}")
            cleaned[int(batch)] = float(prob)
        total = sum(cleaned.values())
        if total <= 0:
            raise ValueError("batch_pdf must have positive total mass")
        return {batch: prob / total for batch, prob in sorted(cleaned.items())}


#: Process-wide Paris instances keyed by profile identity then config
#: tunables.  The cache is *bounded*, not weak: a cached Paris strongly
#: references its profile (so weak keying could never evict anything — the
#: value would pin the key); instead the oldest profile's planners are
#: evicted once the cap is hit.  Identity keying is safe because a cached
#: entry keeps its profile alive, so a live id is never reused.
_SHARED_PARIS: Dict[int, Dict[Tuple, Paris]] = {}
_SHARED_PARIS_LIMIT = 64


def shared_paris(
    profile: ProfileTable, config: Optional[ParisSpec] = None
) -> Paris:
    """The process-wide memoized :class:`Paris` planner for ``profile``.

    Deployment builds, live repartitions and registry lookups that plan for
    the same (profile, config) pair share one planner — and therefore one
    plan memo — so replanning against a PDF the planner has already seen
    returns the identical :class:`~repro.core.plan.PartitionPlan` object
    without re-running Algorithm 1.  Memory is bounded: at most
    ``_SHARED_PARIS_LIMIT`` profiles keep cached planners, oldest evicted
    first.
    """
    config = config or ParisSpec()
    sizes = config.partition_sizes
    key = (
        config.knee_threshold,
        None if sizes is None else tuple(sizes),
        config.min_instances_per_active_segment,
    )
    profile_id = id(profile)
    per_profile = _SHARED_PARIS.get(profile_id)
    if per_profile is None:
        if len(_SHARED_PARIS) >= _SHARED_PARIS_LIMIT:
            _SHARED_PARIS.pop(next(iter(_SHARED_PARIS)))
        per_profile = _SHARED_PARIS[profile_id] = {}
    paris = per_profile.get(key)
    if paris is None:
        paris = per_profile[key] = Paris(profile, config)
    return paris


@dataclass
class FleetParis:
    """PARIS generalised to heterogeneous (mixed-architecture) budgets.

    Where :class:`Paris` divides one GPC budget among the partition sizes of
    a single architecture, ``FleetParis`` divides **per-architecture
    budgets** among ``(architecture, size)`` *device classes*:

    * **Step A** — derive ``MaxBatch_knee`` per class from each
      architecture's own profile table (a GPU(2) slice of an H100 saturates
      at a much larger batch than a GPU(2) slice of an A30).
    * **Step B** — order all classes by ascending knee (ties: size, then
      architecture name) and segment the batch range at the knees, exactly
      like single-architecture Step B but with the class list merged across
      architectures.  The knee is the natural cross-architecture capability
      order: the class that saturates at batch ``b`` is the right-sized
      owner of batches up to ``b``.
    * **Step C** — normalise each architecture's class ratios by **that
      architecture's own budget** (instances of an A30 class can only be
      placed on A30 servers), reusing the single-architecture rounding
      machinery per architecture.  An architecture whose classes received no
      probability mass falls back to a plain per-architecture PARIS plan
      over the full PDF, so budget is never silently stranded.

    On **one architecture** it delegates to the memoized
    :func:`shared_paris` planner outright and returns that planner's
    :class:`~repro.core.plan.PartitionPlan` itself: for the same tunables,
    the *identical object* :func:`run_paris` and the registry's ``"paris"``
    partitioner return.

    Args:
        profiles: per-architecture profile tables of the target model,
            keyed by architecture name.
        config: algorithm tunables (shared across architectures;
            ``partition_sizes`` is intersected with each architecture's
            profiled sizes).
    """

    profiles: Mapping[str, ProfileTable]
    config: ParisSpec = field(default_factory=ParisSpec)

    def __post_init__(self) -> None:
        if not self.profiles:
            raise ValueError("FleetParis requires at least one architecture profile")
        self.profiles = dict(self.profiles)
        names = {table.model_name for table in self.profiles.values()}
        if len(names) > 1:
            raise ValueError(
                f"all profiles must target one model, got {sorted(names)}"
            )
        self._plan_cache: Dict[Tuple, Union[PartitionPlan, FleetPlan]] = {}

    @property
    def model_name(self) -> str:
        """The model every per-architecture profile targets."""
        return next(iter(self.profiles.values())).model_name

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def plan(
        self,
        batch_pdf: Dict[int, float],
        budgets: Mapping[str, int],
        size_caps: Optional[Mapping[str, int]] = None,
    ) -> Union[PartitionPlan, FleetPlan]:
        """Divide the per-architecture budgets for ``batch_pdf``.

        Args:
            batch_pdf: mapping batch size -> probability (``Dist[]``);
                normalised internally.
            budgets: mapping architecture name -> GPC budget.  Every
                architecture must have a profile table.
            size_caps: optional mapping architecture name -> largest
                partition size any of that architecture's servers can host.
                An aggregate budget can exceed every individual server's cap
                (three 6-GPC servers pool 18 GPCs yet none hosts a 7-GPC
                instance), so callers that pack onto real servers pass the
                caps to keep the plan placeable.

        Returns:
            One architecture's :class:`~repro.core.plan.PartitionPlan` (the
            :func:`shared_paris` plan object) when ``budgets`` names one
            architecture, else the fleet-wide
            :class:`~repro.core.plan.FleetPlan`.

        Raises:
            ValueError: for empty/invalid inputs, unknown architectures, or
                a budget smaller than an architecture's smallest partition.
        """
        if not budgets:
            raise ValueError("budgets must name at least one architecture")
        unknown = sorted(set(budgets) - set(self.profiles))
        if unknown:
            raise ValueError(
                f"no profile table for architecture(s) {unknown}; profiled: "
                f"{sorted(self.profiles)}"
            )
        caps = dict(size_caps or {})
        key = (
            tuple(sorted(batch_pdf.items())),
            tuple(sorted((name, int(b)) for name, b in budgets.items())),
            tuple(sorted((name, int(c)) for name, c in caps.items())),
        )
        cached = self._plan_cache.get(key)
        if cached is not None:
            return cached

        plan: Union[PartitionPlan, FleetPlan]
        if len(budgets) == 1:
            (name, budget), = budgets.items()
            plan = shared_paris(
                self.profiles[name], self._config_for(name, caps.get(name))
            ).plan(dict(batch_pdf), int(budget))
        else:
            plan = self._plan_hetero(batch_pdf, budgets, caps)
        if len(self._plan_cache) >= _PLAN_CACHE_LIMIT:
            self._plan_cache.pop(next(iter(self._plan_cache)))
        self._plan_cache[key] = plan
        return plan

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _config_for(
        self, arch_name: str, size_cap: Optional[int] = None
    ) -> ParisSpec:
        """The per-architecture tunables: explicit candidate sizes are
        intersected with the architecture's profiled sizes, and sizes no
        server of the architecture can host are dropped."""
        sizes = self.config.partition_sizes
        profiled = set(self.profiles[arch_name].partition_sizes)
        if sizes is not None:
            usable = tuple(sorted(set(sizes) & profiled))
            if not usable:
                raise ValueError(
                    f"none of the candidate sizes {sorted(set(sizes))} are "
                    f"profiled for {arch_name} (profiled: {sorted(profiled)})"
                )
        else:
            usable = tuple(sorted(profiled))
        if size_cap is not None:
            capped = tuple(s for s in usable if s <= size_cap)
            if not capped:
                raise ValueError(
                    f"no candidate size for {arch_name} fits on any of its "
                    f"servers (largest hostable: {size_cap} GPCs; "
                    f"candidates: {sorted(usable)})"
                )
            usable = capped
        if sizes is None and len(usable) == len(profiled):
            return self.config
        return replace(self.config, partition_sizes=usable)

    def _plan_hetero(
        self,
        batch_pdf: Dict[int, float],
        budgets: Mapping[str, int],
        size_caps: Mapping[str, int],
    ) -> FleetPlan:
        pdf = Paris._normalise_pdf(batch_pdf)
        max_batch = max(pdf)

        # Step A per class: each architecture's knees from its own table.
        classes: List[Tuple[int, int, str]] = []  # (knee, size, arch name)
        for name in budgets:
            config = self._config_for(name, size_caps.get(name))
            planner = shared_paris(self.profiles[name], config)
            sizes = planner._candidate_sizes()
            if budgets[name] < min(sizes):
                raise ValueError(
                    f"budget {budgets[name]} for {name} is smaller than its "
                    f"smallest partition size {min(sizes)}"
                )
            knees = derive_knees(
                self.profiles[name], sizes, self.config.knee_threshold
            )
            for size in sizes:
                classes.append((knees[size].batch, size, name))
        classes.sort()

        # Step B over the merged class order: segment the batch range at the
        # knees; the most capable class also covers everything beyond its
        # knee (no bigger class to delegate to).
        per_arch_segments: Dict[str, List[BatchSegment]] = {name: [] for name in budgets}
        previous_high = 0
        for index, (knee, size, name) in enumerate(classes):
            low = previous_high + 1
            high = knee
            if index == len(classes) - 1:
                high = max(high, max_batch)
            high = max(high, low)
            table = self.profiles[name]
            probability = 0.0
            ratio = 0.0
            for batch, prob in pdf.items():
                if low <= batch <= high:
                    probability += prob
                    if prob > 0:
                        throughput = table.throughput(size, batch)
                        if throughput <= 0:
                            raise ValueError(
                                f"profiled throughput for {name} GPU({size}) "
                                f"batch {batch} must be positive"
                            )
                        ratio += prob / throughput
            per_arch_segments[name].append(
                BatchSegment(
                    gpcs=size,
                    low=low,
                    high=high,
                    probability=probability,
                    instance_ratio=ratio,
                )
            )
            previous_high = high

        # Step C per architecture: normalise that architecture's class
        # ratios by its own budget.  Architectures whose merged segments got
        # no probability mass are replanned standalone over the full PDF.
        counts: Dict[Tuple[str, int], int] = {}
        sub_plans: Dict[str, PartitionPlan] = {}
        for name in budgets:
            config = self._config_for(name, size_caps.get(name))
            planner = shared_paris(self.profiles[name], config)
            segments = per_arch_segments[name]
            budget = int(budgets[name])
            if sum(seg.instance_ratio for seg in segments) <= 0:
                sub = planner.plan(dict(batch_pdf), budget)
            else:
                arch_counts = planner._instance_counts(segments, budget)
                sub = PartitionPlan(
                    model=self.model_name,
                    counts=arch_counts,
                    total_gpcs=budget,
                    strategy="fleet-paris",
                    knees={seg.gpcs: seg.high for seg in segments},
                    segments=segments,
                )
            sub_plans[name] = sub
            for size, count in sub.counts.items():
                if count > 0:
                    counts[(name, size)] = count
        return FleetPlan(
            model=self.model_name,
            counts=counts,
            budgets={name: int(b) for name, b in budgets.items()},
            strategy="fleet-paris",
            per_architecture=sub_plans,
        )


#: Process-wide FleetParis planners, keyed by per-architecture profile
#: identities plus config tunables.  Identity keying is safe for the same
#: reason as :data:`_SHARED_PARIS`: a cached planner strongly references its
#: tables, so a live id is never reused.
_SHARED_FLEET: Dict[Tuple, FleetParis] = {}
_SHARED_FLEET_LIMIT = 64


def shared_fleet_paris(
    profiles: Mapping[str, ProfileTable], config: Optional[ParisSpec] = None
) -> FleetParis:
    """The process-wide memoized :class:`FleetParis` planner for ``profiles``.

    Fleet deployments and live repartitions that plan for the same
    (per-architecture tables, tunables) pair share one planner — and
    therefore one plan memo — mirroring :func:`shared_paris`.

    Args:
        profiles: per-architecture profile tables of the target model.
        config: optional algorithm tunables.
    """
    config = config or ParisSpec()
    sizes = config.partition_sizes
    key = (
        tuple(sorted((name, id(table)) for name, table in profiles.items())),
        config.knee_threshold,
        None if sizes is None else tuple(sizes),
        config.min_instances_per_active_segment,
    )
    planner = _SHARED_FLEET.get(key)
    if planner is None:
        if len(_SHARED_FLEET) >= _SHARED_FLEET_LIMIT:
            _SHARED_FLEET.pop(next(iter(_SHARED_FLEET)))
        planner = _SHARED_FLEET[key] = FleetParis(dict(profiles), config)
    return planner


def run_fleet_paris(
    profiles: Mapping[str, ProfileTable],
    batch_pdf: Dict[int, float],
    budgets: Mapping[str, int],
    config: Optional[ParisSpec] = None,
) -> Union[PartitionPlan, FleetPlan]:
    """Convenience wrapper: run fleet-PARIS in one call.

    Args:
        profiles: per-architecture profile tables of the target model.
        batch_pdf: batch-size probability density function (``Dist[]``).
        budgets: per-architecture GPC budgets.
        config: optional algorithm tunables.

    Returns:
        The plan chosen by fleet-PARIS (see :meth:`FleetParis.plan`).
    """
    return FleetParis(profiles, config or ParisSpec()).plan(batch_pdf, budgets)


def run_paris(
    profile: ProfileTable,
    batch_pdf: Dict[int, float],
    total_gpcs: int,
    config: Optional[ParisSpec] = None,
) -> PartitionPlan:
    """Convenience wrapper: run PARIS in one call.

    Dispatches through :func:`shared_paris`, so repeated calls for the same
    profile, tunables, PDF and budget return the memoized plan.

    Args:
        profile: profiled lookup table of the target model.
        batch_pdf: batch-size probability density function (``Dist[]``).
        total_gpcs: GPC budget to partition.
        config: optional algorithm tunables.

    Returns:
        The :class:`~repro.core.plan.PartitionPlan` chosen by PARIS.
    """
    return shared_paris(profile, config).plan(batch_pdf, total_gpcs)
