"""Fig. 2 — response latency when offloading via DAMON.

Runs every benchmark under stage-agnostic DAMON sampling and under the
no-offload baseline on the same trace. DAMON keeps sampling during
keep-alive, misjudges the hot pages as cold, and the next request
pays the full recall — P95 latency inflates by up to ~14x.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.baselines import DamonPolicy, NoOffloadPolicy
from repro.experiments.common import ExperimentResult, run_benchmark_trace
from repro.faas import PlatformConfig
from repro.traces.azure import sample_function_trace
from repro.units import HOUR
from repro.workloads import all_benchmarks


def run(
    benchmarks: Optional[Sequence[str]] = None,
    duration: float = 0.5 * HOUR,
    seed: int = 7,
    platform_config: Optional[PlatformConfig] = None,
) -> ExperimentResult:
    """Baseline-vs-DAMON P95 latency across benchmarks."""
    result = ExperimentResult(
        experiment="fig02",
        title="P95 latency under DAMON offloading (vs no offload)",
    )
    ratios = {}
    for index, benchmark in enumerate(benchmarks or all_benchmarks()):
        trace = sample_function_trace(
            "middle", duration=duration, seed=seed + index, name=f"azure-{benchmark}"
        )
        base = run_benchmark_trace(NoOffloadPolicy(), benchmark, trace, platform_config)
        damon = run_benchmark_trace(DamonPolicy(), benchmark, trace, platform_config)
        ratio = damon.latency_p95 / base.latency_p95
        ratios[benchmark] = ratio
        result.rows.append(
            {
                "benchmark": benchmark,
                "p95_no_offload_s": round(base.latency_p95, 4),
                "p95_damon_s": round(damon.latency_p95, 4),
                "slowdown_x": round(ratio, 2),
            }
        )
    result.series["p95_slowdown"] = ratios
    result.notes.append(
        "paper: DAMON increases response latency by up to 14x because "
        "keep-alive sampling misidentifies hot pages as cold"
    )
    return result
