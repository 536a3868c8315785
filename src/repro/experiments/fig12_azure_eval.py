"""Fig. 12 — Azure-trace evaluation across all 11 benchmarks.

For a high-load and a low-load 1-hour trace, runs every benchmark
under the baseline (no memory pool), TMO and FaaSMem, and reports
normalized average local memory usage and the P95 latency ratio.

Paper shape: FaaSMem cuts 27.1-71.0 % of memory under high load and
9.9-72.0 % under low load while P95 stays within ~10 % of baseline;
TMO's savings are an order of magnitude smaller; micro-benchmarks
save >= 50 %; Web saves the most of the applications, Graph the least.

Each (load, benchmark) cell is an independent seeded simulation, so
the sweep is enumerated as a :class:`~repro.perf.sweep.SweepGrid` and
can fan out over worker processes (``jobs``/``$REPRO_JOBS``) with
byte-identical per-point trace digests vs. the serial run.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.common import (
    ExperimentResult,
    SweepGrid,
    SweepPoint,
    run_benchmark_trace,
    system_factories,
)
from repro.faas import PlatformConfig
from repro.metrics.summary import SystemComparison
from repro.traces.azure import sample_function_trace
from repro.units import HOUR
from repro.workloads import all_benchmarks


def _sweep_point(
    load: str,
    benchmark: str,
    index: int,
    duration: float,
    seed: int,
    platform_config: Optional[PlatformConfig],
) -> Dict[str, Any]:
    """One grid cell: baseline + TMO + FaaSMem on one seeded trace."""
    trace = sample_function_trace(
        load, duration=duration, seed=seed + index, name=f"{load}-{benchmark}"
    )
    # Reuse-interval priors come from a longer history of the same
    # arrival process, as the paper profiles historical invocation
    # traces offline (§6.1).
    history = sample_function_trace(
        load, duration=6 * duration, seed=seed + index, name="history"
    )
    factories = system_factories(trace=trace, benchmark=benchmark, history=history)
    baseline = run_benchmark_trace(
        factories["baseline"](), benchmark, trace, platform_config, load
    )
    rows: List[Dict[str, Any]] = []
    saving = 0.0
    for system in ("tmo", "faasmem"):
        candidate = run_benchmark_trace(
            factories[system](), benchmark, trace, platform_config, load
        )
        comparison = SystemComparison(baseline=baseline, candidate=candidate)
        if system == "faasmem":
            saving = comparison.memory_saving
        rows.append(
            {
                "load": load,
                "benchmark": benchmark,
                "system": system,
                "norm_mem": round(comparison.memory_ratio, 3),
                "mem_saving_pct": round(100 * comparison.memory_saving, 1),
                "p95_ratio": round(comparison.p95_ratio, 3),
                "baseline_p95_s": round(baseline.latency_p95, 4),
                "p95_s": round(candidate.latency_p95, 4),
            }
        )
    return {"rows": rows, "saving": saving}


def run(
    benchmarks: Optional[Sequence[str]] = None,
    loads: Sequence[str] = ("high", "low"),
    duration: float = 1 * HOUR,
    seed: int = 3,
    jobs: Optional[int] = None,
    platform_config: Optional[PlatformConfig] = None,
) -> ExperimentResult:
    """The full Fig. 12 sweep (optionally parallel over grid points)."""
    result = ExperimentResult(
        experiment="fig12",
        title="Normalized memory usage and P95 latency (Azure traces)",
    )
    bench_list = list(benchmarks or all_benchmarks())
    points = [
        SweepPoint(
            key=(load, benchmark),
            fn=_sweep_point,
            kwargs={
                "load": load,
                "benchmark": benchmark,
                "index": index,
                "duration": duration,
                "seed": seed,
                "platform_config": platform_config,
            },
        )
        for load in loads
        for index, benchmark in enumerate(bench_list)
    ]
    outcomes = SweepGrid("fig12", points).run(jobs=jobs)
    savings: Dict[str, Dict[str, float]] = {load: {} for load in loads}
    for point, outcome in zip(points, outcomes):
        load, benchmark = point.key
        result.rows.extend(outcome.value["rows"])
        savings[load][benchmark] = outcome.value["saving"]
    result.series["faasmem_savings"] = savings
    result.notes.append(
        "paper: FaaSMem saves 27.1-71.0% (high load) / 9.9-72.0% (low "
        "load); TMO saves an order of magnitude less; P95 within ~10%"
    )
    return result
