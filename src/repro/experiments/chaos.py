"""Chaos experiment: availability and tail latency vs. fault intensity.

Beyond the paper's figures: FaaSMem assumes a healthy pool and link,
but disaggregated memory is a separately-failing component. This
harness sweeps a deterministic fault schedule (link outages and
degradations, pool-node crashes, container crashes, lossy page-ins)
across intensities and reports how availability (requests completing
without a crash-restart), tail latency and the recovery machinery
(retries, breaker cycles, lost pages) respond. Every run is audited
online; the zero-intensity row doubles as the fault-free baseline.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Optional, Sequence

from repro.errors import ExperimentError
from repro.experiments.common import (
    ExperimentResult,
    SweepGrid,
    SweepPoint,
    faasmem_factory,
)
from repro.faas import PlatformConfig, ServerlessPlatform
from repro.faults import FaultSpec
from repro.traces.azure import sample_function_trace
from repro.workloads import get_profile


def _sweep_point(
    intensity: float,
    benchmark: str,
    duration: float,
    seed: int,
    fault_seed: int,
    platform_config: Optional[PlatformConfig],
) -> Dict[str, Any]:
    """One intensity of the chaos sweep, regenerated from its seeds."""
    trace = sample_function_trace("high", duration=duration, seed=seed)
    history = sample_function_trace("high", duration=4 * duration, seed=seed)
    build_policy = faasmem_factory(trace, benchmark, history=history)
    spec = FaultSpec(
        seed=fault_seed,
        horizon_s=duration,
        intensity=intensity,
        link_outage_rate_per_h=12.0,
        link_outage_duration_s=30.0,
        link_degrade_rate_per_h=18.0,
        link_degrade_duration_s=90.0,
        pool_crash_rate_per_h=6.0,
        container_crash_rate_per_h=12.0,
    )
    platform = ServerlessPlatform(
        build_policy(),
        config=replace(
            platform_config or PlatformConfig(),
            seed=seed,
            audit_events=True,
            faults=spec,
        ),
    )
    platform.register_function(benchmark, get_profile(benchmark))
    platform.run_trace((t, benchmark) for t in trace.timestamps)
    assert platform.auditor is not None
    stats = platform.latencies()
    if stats.count == 0:
        raise ExperimentError("chaos run produced no requests")
    injector = platform.fault_injector
    assert injector is not None
    restarted = sum(1 for r in platform.records if r.restarts > 0)
    return {
        "intensity": intensity,
        "requests": stats.count,
        "availability": 1.0 - restarted / stats.count,
        "restarted": restarted,
        "p50_s": stats.p50,
        "p99_s": stats.p99,
        "retries": injector.stats.page_in_retries,
        "pages_lost": injector.stats.pages_lost,
        "containers_crashed": injector.stats.containers_crashed,
        "breaker_opens": injector.breaker.opens,
        "breaker_recloses": injector.breaker.reclosures,
        "suppressed_offloads": platform.fastswap.stats.suppressed_offloads,
        "violations": len(platform.auditor.violations),
    }


def run(
    benchmark: str = "web",
    duration: float = 1800.0,
    seed: int = 5,
    fault_seed: int = 43,
    intensities: Sequence[float] = (0.0, 0.5, 1.0, 2.0),
    jobs: Optional[int] = None,
    platform_config: Optional[PlatformConfig] = None,
) -> ExperimentResult:
    """Sweep fault intensity; report availability, p99 and recovery."""
    result = ExperimentResult(
        "chaos",
        "Availability and tail latency under injected pool/link faults",
    )
    points = [
        SweepPoint(
            key=(intensity,),
            fn=_sweep_point,
            kwargs={
                "intensity": intensity,
                "benchmark": benchmark,
                "duration": duration,
                "seed": seed,
                "fault_seed": fault_seed,
                "platform_config": platform_config,
            },
        )
        for intensity in intensities
    ]
    outcomes = SweepGrid("chaos", points).run(jobs=jobs)
    result.rows = [outcome.value for outcome in outcomes]
    result.series["intensities"] = list(intensities)
    result.series["availability"] = [row["availability"] for row in result.rows]
    result.series["p99_s"] = [row["p99_s"] for row in result.rows]
    result.notes.append(
        "intensity 0 is the fault-free baseline; every row is audited online "
        "(violations column must be 0)"
    )
    result.notes.append(
        "availability = fraction of requests that completed without a "
        "crash-restart; the restart penalty lands in p99 via end-to-end latency"
    )
    return result
