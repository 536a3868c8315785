"""Fig. 8 — recalls from the Runtime Pucket after its reactive offload.

FaaSMem offloads the Runtime Pucket's inactive pages as soon as the
first request completes (§5.1). This experiment replays each benchmark
and counts how often later requests recall runtime-segment pages from
the pool: the paper measures 0-3 recalled pages per benchmark over a
25 s window, i.e. the runtime segment really is safe to offload early.
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
    duration: float = 600.0,
    seed: int = 11,
    platform_config: Optional[PlatformConfig] = None,
) -> ExperimentResult:
    """Count Runtime-Pucket recalls per benchmark under FaaSMem."""
    result = ExperimentResult(
        experiment="fig08",
        title="Runtime Pucket recalls after first-request offload",
    )
    for index, benchmark in enumerate(benchmarks or all_benchmarks()):
        trace = sample_function_trace(
            "high", duration=duration, seed=seed + index, name=f"recall-{benchmark}"
        )
        # Semi-warm disabled: Fig. 8 isolates the Pucket mechanism.
        policy = FaaSMemPolicy(FaaSMemConfig(enable_semiwarm=False))
        run_benchmark_trace(policy, benchmark, trace, platform_config)
        recalls = sum(report.runtime_recalls for report in policy.reports)
        requests = sum(report.requests_served for report in policy.reports)
        result.rows.append(
            {
                "benchmark": benchmark,
                "requests": requests,
                "runtime_recalls": recalls,
            }
        )
    result.notes.append(
        "paper: subsequent requests hardly recall Runtime Pucket pages "
        "(0-3 recalled pages per benchmark)"
    )
    return result
