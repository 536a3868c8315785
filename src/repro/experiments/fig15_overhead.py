"""Fig. 15 — overhead of time-barrier insertion and rollback.

Barrier insertion blocks the container while pages are segregated, so
its cost scales with the segment's footprint: < 2.5 ms for the
micro-benchmarks, up to ~10 ms for Bert's init-exec barrier. Rollback
stays below 7.5 ms, and with the recommended >= 10 s interval its
steady-state overhead is below 0.1 % (§8.5).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core import FaaSMemConfig, FaaSMemPolicy
from repro.experiments.common import ExperimentResult, run_benchmark_trace
from repro.faas import PlatformConfig
from repro.traces.azure import sample_function_trace
from repro.workloads import all_benchmarks


def run(
    benchmarks: Optional[Sequence[str]] = None,
    duration: float = 900.0,
    seed: int = 23,
    platform_config: Optional[PlatformConfig] = None,
) -> ExperimentResult:
    """Measure the modelled Pucket procedure costs per benchmark."""
    result = ExperimentResult(
        experiment="fig15",
        title="Overhead of time barriers and periodic rollback",
    )
    config = FaaSMemConfig(enable_semiwarm=False)
    for index, benchmark in enumerate(benchmarks or all_benchmarks()):
        trace = sample_function_trace(
            "high", duration=duration, seed=seed + index, name=f"ovh-{benchmark}"
        )
        policy = FaaSMemPolicy(config)
        run_benchmark_trace(policy, benchmark, trace, platform_config)
        reports = policy.reports
        if not reports:
            continue
        runtime_barrier = max(r.runtime_init_barrier_s for r in reports)
        init_barrier = max(r.init_exec_barrier_s for r in reports)
        rollback = max(r.max_rollback_s for r in reports)
        total_lifetime = sum(r.lifetime_s for r in reports)
        rollback_total = rollback * sum(
            1 for r in reports if r.max_rollback_s > 0
        )
        result.rows.append(
            {
                "benchmark": benchmark,
                "runtime_init_barrier_ms": round(runtime_barrier * 1e3, 2),
                "init_exec_barrier_ms": round(init_barrier * 1e3, 2),
                "max_rollback_ms": round(rollback * 1e3, 2),
                "rollback_overhead_pct": round(
                    100 * rollback_total / total_lifetime, 4
                )
                if total_lifetime > 0
                else 0.0,
            }
        )
    result.notes.append(
        "paper: barriers < 2.5 ms for micros; init-exec barrier 10/5/5 ms "
        "for Bert/Graph/Web; rollback < 7.5 ms, < 0.1% overhead at a "
        ">= 10 s interval"
    )
    return result
