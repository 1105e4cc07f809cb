"""The experiment matrix: every figure/table/sweep as run-table rows.

One adapter per experiment of the paper's evaluation (and of everything
this repo has grown beyond it), each mapping an
:mod:`repro.analysis.experiments`-level runner onto uniform
:class:`~repro.pipeline.table.RunRow` records.  A *suite* is an ordered
subset of the matrix at a scale:

* ``figures`` — the full matrix under the paper's methodology (all five
  models, full design fields, paper workload sizes).  Minutes of compute;
  the artifact tree is the paper's evaluation.
* ``smoke`` — the same matrix reduced (one model, fewer designs/points,
  short traces).  Seconds of compute; its ``run_table.csv`` is committed
  under ``baselines/smoke/`` and diffed by ``pipeline check`` in CI.

Adapters draw replays through the settings' warm
:class:`~repro.analysis.sweep.ParallelRunner` pool, and every row is a
deterministic function of (experiment, design, rate, seed) — ``n_jobs``
never changes a byte of the output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.experiments import (
    ExperimentSettings,
    figure3,
    figure4,
    figure8_example,
    heterogeneous_fleet,
    sla_sensitivity,
    table1,
)
from repro.gpu.cost import GPC_COST
from repro.pipeline.table import RunRow
from repro.serving.session import SessionResult
from repro.workload.scenario import build_scenario


@dataclass
class SuiteContext:
    """Everything an experiment adapter needs to run at the suite's scale."""

    suite: str
    seed: int = 0
    n_jobs: Optional[int] = 1
    reduced: bool = True
    settings: ExperimentSettings = field(init=False)

    def __post_init__(self) -> None:
        if self.reduced:
            self.settings = ExperimentSettings(
                num_queries=150,
                search_iterations=3,
                seed=self.seed,
                n_jobs=self.n_jobs,
            )
        else:
            self.settings = ExperimentSettings(seed=self.seed, n_jobs=self.n_jobs)

    @property
    def scale(self) -> str:
        """The analysis runners' knob-table key: ``reduced`` or ``full``."""
        return "reduced" if self.reduced else "full"

    @property
    def models(self) -> Tuple[str, ...]:
        from repro.models.registry import PAPER_MODELS

        return ("mobilenet",) if self.reduced else tuple(PAPER_MODELS)


Adapter = Callable[[SuiteContext], List[RunRow]]

#: experiment name -> adapter, in canonical (run-table) order.
EXPERIMENTS: Dict[str, Adapter] = {}


def _experiment(name: str) -> Callable[[Adapter], Adapter]:
    def register(adapter: Adapter) -> Adapter:
        if name in EXPERIMENTS:
            raise ValueError(f"duplicate experiment {name!r}")
        EXPERIMENTS[name] = adapter
        return adapter

    return register


#: suite name -> the experiments it runs (order = run-table order).
SUITES: Dict[str, Tuple[str, ...]] = {}


def suite_experiments(suite: str) -> Tuple[str, ...]:
    """The experiment names of ``suite``, in run order."""
    try:
        return SUITES[suite]
    except KeyError:
        raise ValueError(
            f"unknown suite {suite!r}; available: {sorted(SUITES)}"
        ) from None


def make_context(
    suite: str, seed: int = 0, n_jobs: Optional[int] = 1
) -> SuiteContext:
    """A :class:`SuiteContext` for ``suite`` (validating the name)."""
    suite_experiments(suite)
    return SuiteContext(
        suite=suite, seed=seed, n_jobs=n_jobs, reduced=(suite == "smoke")
    )


# --------------------------------------------------------------------------- #
# analytic experiments (no replay): fig 3 / 4 / 8, Table I
# --------------------------------------------------------------------------- #


@_experiment("fig3")
def _fig3(ctx: SuiteContext) -> List[RunRow]:
    sizes = (1, 3, 7) if ctx.reduced else (1, 2, 3, 4, 7)
    rows = figure3(models=ctx.models, partition_sizes=sizes)
    return [
        RunRow(
            experiment="fig3",
            design=f"{row['model']}/gpu({row['gpcs']})/b{row['batch']}",
            seed=ctx.seed,
            metrics={
                "mean_latency_ms": row["latency_ms"],
                "utilization": row["utilization"],
            },
            detail={"normalized_latency": row["normalized_latency"]},
        )
        for row in rows
    ]


@_experiment("fig4")
def _fig4(ctx: SuiteContext) -> List[RunRow]:
    sizes = (1, 3, 7) if ctx.reduced else (1, 2, 3, 4, 7)
    batches = (1, 4, 16) if ctx.reduced else (1, 2, 4, 8, 16, 32, 64)
    rows = figure4(models=ctx.models, partition_sizes=sizes, batch_sizes=batches)
    return [
        RunRow(
            experiment="fig4",
            design=f"{row['model']}/gpu({row['gpcs']})/b{row['batch']}",
            seed=ctx.seed,
            metrics={
                "mean_latency_ms": row["latency_ms"],
                "utilization": row["utilization"],
            },
            detail={"is_knee": row["is_knee"]},
        )
        for row in rows
    ]


@_experiment("fig8")
def _fig8(ctx: SuiteContext) -> List[RunRow]:
    payload = figure8_example()
    return [
        RunRow(
            experiment="fig8",
            design="worked-example",
            seed=ctx.seed,
            detail={
                "ratio_small": payload["ratio_small"],
                "ratio_large": payload["ratio_large"],
                "paper_ratio_small": payload["paper_ratio_small"],
                "paper_ratio_large": payload["paper_ratio_large"],
                "knees": {str(k): v for k, v in payload["knees"].items()},
            },
        )
    ]


@_experiment("table1")
def _table1(ctx: SuiteContext) -> List[RunRow]:
    rows = table1(models=ctx.models, settings=ctx.settings)
    a100 = GPC_COST["A100-SXM4-40GB"]
    return [
        RunRow(
            experiment="table1",
            design=f"{row['model']}/{row['design']}",
            seed=ctx.seed,
            metrics={"cost": row["gpcs"] * a100},
            detail={
                "instances": row["instances"],
                "gpcs": row["gpcs"],
                "num_gpus": row["num_gpus"],
                "description": row["description"],
            },
        )
        for row in rows
    ]


# --------------------------------------------------------------------------- #
# measured experiments: fig 11 / 12 / 13a / 13b, SLA sensitivity
# --------------------------------------------------------------------------- #

_REDUCED_DESIGNS = ("gpu(7)+fifs", "paris+elsa")


@_experiment("fig11")
def _fig11(ctx: SuiteContext) -> List[RunRow]:
    from repro.analysis.experiments import figure11

    designs = (
        _REDUCED_DESIGNS
        if ctx.reduced
        else ("gpu(7)+fifs", "gpu(max)+fifs", "paris+fifs", "paris+elsa")
    )
    num_points = 3 if ctx.reduced else 6
    out: List[RunRow] = []
    for model in ctx.models:
        rows = figure11(
            model, settings=ctx.settings, num_points=num_points, designs=designs
        )
        out.extend(
            RunRow(
                experiment="fig11",
                design=f"{row['model']}/{row['design']}",
                seed=ctx.seed,
                rate_qps=row["rate_qps"],
                metrics={
                    "throughput_qps": row["throughput_qps"],
                    "p95_latency_ms": row["p95_latency_ms"],
                },
                detail={"sla_ms": row["sla_ms"]},
            )
            for row in rows
        )
    return out


@_experiment("fig12")
def _fig12(ctx: SuiteContext) -> List[RunRow]:
    from repro.analysis.experiments import figure12

    rows = figure12(
        models=ctx.models, settings=ctx.settings, include_random=not ctx.reduced
    )
    return [
        RunRow(
            experiment="fig12",
            design=f"{row['model']}/{row['design']}",
            seed=ctx.seed,
            rate_qps=row["throughput_qps"],
            metrics={
                "throughput_qps": row["throughput_qps"],
                "p95_latency_ms": row["p95_latency_ms"],
                "utilization": row["mean_utilization"],
                "normalized_throughput": row["normalized_throughput"],
            },
            detail={"plan": row["plan"]},
        )
        for row in rows
    ]


@_experiment("fig13a")
def _fig13a(ctx: SuiteContext) -> List[RunRow]:
    from repro.analysis.experiments import figure13a

    sigmas = (0.3, 0.9) if ctx.reduced else (0.3, 0.9, 1.8)
    designs = (
        _REDUCED_DESIGNS
        if ctx.reduced
        else (
            "gpu(7)+fifs",
            "gpu(3)+fifs",
            "gpu(2)+fifs",
            "gpu(1)+fifs",
            "paris+fifs",
            "paris+elsa",
        )
    )
    out: List[RunRow] = []
    for model in ctx.models:
        rows = figure13a(
            model=model, sigmas=sigmas, settings=ctx.settings, designs=designs
        )
        out.extend(
            RunRow(
                experiment="fig13a",
                design=f"{row['model']}/sigma={row['sigma']:g}/{row['design']}",
                seed=ctx.seed,
                rate_qps=row["throughput_qps"],
                metrics={
                    "throughput_qps": row["throughput_qps"],
                    "normalized_throughput": row["normalized_throughput"],
                },
            )
            for row in rows
        )
    return out


@_experiment("fig13b")
def _fig13b(ctx: SuiteContext) -> List[RunRow]:
    from repro.analysis.experiments import figure13b

    max_batches = (16, 32) if ctx.reduced else (16, 32, 64)
    rows = figure13b(models=ctx.models, max_batches=max_batches, settings=ctx.settings)
    return [
        RunRow(
            experiment="fig13b",
            design=f"{row['model']}/maxb={row['max_batch']}/{row['design']}",
            seed=ctx.seed,
            rate_qps=row["throughput_qps"],
            metrics={
                "throughput_qps": row["throughput_qps"],
                "normalized_throughput": row["normalized_throughput"],
            },
        )
        for row in rows
    ]


@_experiment("sla_sensitivity")
def _sla_sensitivity(ctx: SuiteContext) -> List[RunRow]:
    multipliers = (1.5,) if ctx.reduced else (1.5, 2.0)
    rows = sla_sensitivity(
        models=ctx.models, multipliers=multipliers, settings=ctx.settings
    )
    out: List[RunRow] = []
    for row in rows:
        prefix = f"{row['model']}/sla={row['sla_multiplier']:g}"
        out.append(
            RunRow(
                experiment="sla_sensitivity",
                design=f"{prefix}/gpu(7)+fifs",
                seed=ctx.seed,
                rate_qps=row["gpu7_qps"],
                metrics={"throughput_qps": row["gpu7_qps"]},
            )
        )
        out.append(
            RunRow(
                experiment="sla_sensitivity",
                design=f"{prefix}/gpu(max)={row['gpu_max']}",
                seed=ctx.seed,
                rate_qps=row["gpu_max_qps"],
                metrics={
                    "throughput_qps": row["gpu_max_qps"],
                    "p95_latency_ms": row["gpu_max_p95_ms"],
                },
            )
        )
        out.append(
            RunRow(
                experiment="sla_sensitivity",
                design=f"{prefix}/paris+elsa",
                seed=ctx.seed,
                rate_qps=row["paris_elsa_qps"],
                metrics={
                    "throughput_qps": row["paris_elsa_qps"],
                    "p95_latency_ms": row["paris_p95_ms"],
                },
                detail={
                    "speedup_vs_gpu7": row["speedup_vs_gpu7"],
                    "speedup_vs_gpu_max": row["speedup_vs_gpu_max"],
                },
            )
        )
    return out


# --------------------------------------------------------------------------- #
# windowed experiments: dynamic scenario, autoscale sweep, fault sweep
# --------------------------------------------------------------------------- #


def _window_rows(result: SessionResult) -> Tuple[Dict[str, Any], ...]:
    """The session's metric windows in the daemon's NDJSON row format."""
    from repro.daemon.jobs import window_to_dict

    return tuple(window_to_dict(w) for w in result.windows)


def _session_metrics(result: SessionResult) -> Dict[str, Any]:
    return {
        "throughput_qps": result.throughput_qps,
        "p95_latency_ms": result.p95_latency * 1e3,
        "mean_latency_ms": result.simulation.statistics.latency.mean * 1e3,
        "violation_rate": result.sla_violation_rate,
        "utilization": result.mean_utilization,
    }


@_experiment("dynamic_scenario")
def _dynamic_scenario(ctx: SuiteContext) -> List[RunRow]:
    from repro.analysis.experiments import dynamic_scenario_results

    model = ctx.models[0] if ctx.reduced else "bert"
    if ctx.reduced:
        scenario = build_scenario(
            "batch-drift",
            model=model,
            rate_qps=300.0,
            phase_duration=2.0,
            start_median=2.0,
            end_median=16.0,
            max_batch=16,
            seed=ctx.seed,
        )
        window = 1.0
    else:
        scenario = build_scenario(
            "batch-drift", model=model, rate_qps=600.0, seed=ctx.seed
        )
        window = 2.0
    runs = dynamic_scenario_results(
        scenario,
        ctx.settings,
        triggers=(("pdf-drift", {"threshold": 0.2, "min_queries": 100}),),
        window=window,
        seed=ctx.seed,
    )
    return [
        RunRow(
            experiment="dynamic_scenario",
            design=f"{model}/{mode}",
            seed=ctx.seed,
            metrics=_session_metrics(result),
            windows=_window_rows(result),
            detail={
                "scenario": scenario.name,
                "reconfigurations": len(result.reconfigurations),
                "trigger_firings": len(result.trigger_firings),
                "plan": result.deployment.plan.describe(),
            },
        )
        for mode, result in runs.items()
    ]


@_experiment("heterogeneous_fleet")
def _heterogeneous_fleet(ctx: SuiteContext) -> List[RunRow]:
    model = ctx.models[0] if ctx.reduced else "resnet"
    fleets: Optional[Dict[str, Sequence]] = None
    if ctx.reduced:
        fleets = {
            "a100-only": ((2, "a100", 12),),
            "a100+h100": ((1, "a100", 6), (1, "h100", 2)),
        }
    rows = heterogeneous_fleet(model=model, settings=ctx.settings, fleets=fleets)
    return [
        RunRow(
            experiment="heterogeneous_fleet",
            design=f"{model}/{row['fleet']}",
            seed=ctx.seed,
            rate_qps=row["throughput_qps"],
            metrics={
                "throughput_qps": row["throughput_qps"],
                "p95_latency_ms": row["p95_latency_ms"],
                "violation_rate": row["violation_rate"],
                "cost": row["gpc_cost"],
            },
            detail={
                "plan": row["plan"],
                "total_gpcs": row["total_gpcs"],
                "instances": row["instances"],
                "throughput_per_cost": row["throughput_per_cost"],
                "sla_ms": row["sla_ms"],
            },
        )
        for row in rows
    ]


@_experiment("autoscale_sweep")
def _autoscale_sweep(ctx: SuiteContext) -> List[RunRow]:
    from repro.analysis.autoscaling import TARGET_VIOLATION_RATE, iso_sla_results

    ranked, result = iso_sla_results(ctx.scale, seed=ctx.seed, n_jobs=ctx.n_jobs)
    rows = [
        RunRow(
            experiment="autoscale_sweep",
            design=f"static-{len(r.specs)}",
            seed=ctx.seed,
            metrics={"violation_rate": r.violation_rate, "cost": r.cost},
            detail={"fleet": r.fleet, "feasible": r.feasible},
        )
        for r in ranked
    ]
    rows.append(
        RunRow(
            experiment="autoscale_sweep",
            design="autoscaled",
            seed=ctx.seed,
            metrics={
                "throughput_qps": result.throughput_qps,
                "p95_latency_ms": result.p95_latency * 1e3,
                "violation_rate": result.sla_violation_rate,
                "cost": result.fleet_cost,
                "availability": result.mean_availability,
            },
            windows=_window_rows(result),
            events=tuple(e.to_dict() for e in result.fleet_events),
            detail={
                "scale_outs": sum(
                    1 for e in result.fleet_events if e.kind == "scale-out"
                ),
                "scale_ins": sum(
                    1 for e in result.fleet_events if e.kind == "scale-in"
                ),
                "target_violation_rate": TARGET_VIOLATION_RATE,
            },
        )
    )
    return rows


@_experiment("fault_sweep")
def _fault_sweep(ctx: SuiteContext) -> List[RunRow]:
    from repro.analysis.faults import fault_sweep_results

    rows: List[RunRow] = []
    for rate, workload, schedule, result in fault_sweep_results(ctx.scale):
        stats = result.simulation.statistics
        records = result.fault_events
        rows.append(
            RunRow(
                experiment="fault_sweep",
                design=f"rate={rate:g}",
                seed=ctx.seed,
                rate_qps=workload.rate_qps,
                metrics={
                    "throughput_qps": result.throughput_qps,
                    "p95_latency_ms": result.p95_latency * 1e3,
                    "violation_rate": result.sla_violation_rate,
                    "availability": result.fault_availability,
                },
                windows=_window_rows(result),
                events=tuple(record.to_dict() for record in records),
                detail={
                    "fault_rate": rate,
                    "scheduled_events": len(schedule),
                    "crashes": sum(1 for r in records if r.kind == "crash"),
                    "restarts": sum(1 for r in records if r.kind == "restart"),
                    "retries": sum(r.requeued for r in records),
                    "failed_queries": stats.failed_queries,
                    "completed_queries": stats.completed_queries,
                    "total_queries": stats.total_queries,
                    "mttr_s": result.fault_mttr,
                },
            )
        )
    return rows


SUITES["figures"] = tuple(EXPERIMENTS)
SUITES["smoke"] = tuple(EXPERIMENTS)


def run_experiment(name: str, ctx: SuiteContext) -> List[RunRow]:
    """Run one experiment adapter by name."""
    try:
        adapter = EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; available: {list(EXPERIMENTS)}"
        ) from None
    return adapter(ctx)


# re-exported so `pipeline run` can report what a suite will execute
__all__ = [
    "EXPERIMENTS",
    "SUITES",
    "Adapter",
    "SuiteContext",
    "make_context",
    "run_experiment",
    "suite_experiments",
]
