"""Table 1 — applications under six diverse high-load traces.

Six 1-hour traces (trace ID 5 contains an extreme short-term surge
that congests the baseline too) drive Bert, Graph and Web under
baseline / TMO / FaaSMem. The paper reports P95 latency and average
memory per cell; FaaSMem's cells offload far more than TMO's while
latency stays at the baseline level — even on the surge trace, where
it still removes 14.4-68.0 % of memory.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.common import (
    ExperimentResult,
    run_benchmark_trace,
    system_factories,
)
from repro.faas import PlatformConfig
from repro.traces.azure import sample_function_trace
from repro.traces.model import FunctionTrace
from repro.units import HOUR

APPLICATIONS = ("bert", "graph", "web")


def make_trace(trace_id: int, duration: float = 1 * HOUR) -> FunctionTrace:
    """Trace IDs 1-6; ID 5 is the extreme-surge trace."""
    if not 1 <= trace_id <= 6:
        raise ValueError(f"trace_id must be 1..6, got {trace_id}")
    if trace_id == 5:
        return sample_function_trace(
            "surge", duration=duration, seed=500, name="ID-5"
        )
    seeds = {1: 101, 2: 202, 3: 303, 4: 404, 6: 606}
    return sample_function_trace(
        "high", duration=duration, seed=seeds[trace_id], name=f"ID-{trace_id}"
    )


def run(
    trace_ids: Sequence[int] = (1, 2, 3, 4, 5, 6),
    applications: Optional[Sequence[str]] = None,
    duration: float = 1 * HOUR,
    platform_config: Optional[PlatformConfig] = None,
) -> ExperimentResult:
    """The full Table 1 grid."""
    result = ExperimentResult(
        experiment="table1",
        title="Applications under diverse traces (P95 latency / avg memory)",
    )
    for trace_id in trace_ids:
        trace = make_trace(trace_id, duration)
        history = make_trace(trace_id, 6 * duration)
        for app in applications or APPLICATIONS:
            factories = system_factories(trace=trace, benchmark=app, history=history)
            row = {"trace": f"ID-{trace_id}", "app": app}
            baseline_mem = None
            for system in ("baseline", "tmo", "faasmem"):
                summary = run_benchmark_trace(
                    factories[system](), app, trace, platform_config, f"ID-{trace_id}"
                )
                mem_gib = summary.memory.average_mib / 1024
                row[f"{system}_p95_s"] = round(summary.latency_p95, 3)
                row[f"{system}_mem_gib"] = round(mem_gib, 2)
                if system == "baseline":
                    baseline_mem = mem_gib
                else:
                    row[f"{system}_offload_pct"] = round(
                        100 * (1 - mem_gib / baseline_mem), 1
                    )
            result.rows.append(row)
    result.notes.append(
        "paper: FaaSMem cells are much darker (more offload) than TMO; "
        "ID-5's surge inflates baseline latency as well; FaaSMem still "
        "saves 14.4-68.0% there"
    )
    return result
