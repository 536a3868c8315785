"""Overload experiment: goodput and containment near node capacity.

Beyond the paper's figures: FaaSMem's closing argument is that memory
stranding caps deployment density, so the interesting regime is a node
whose steady-state warm-set demand approaches (and then exceeds) its
local DRAM. This harness scales the number of active functions so the
aggregate warm-container footprint sweeps a multiplier of node
capacity, and runs each load under the memory-pressure governor
(:mod:`repro.pressure`) with and without FaaSMem. The governor keeps
local usage at or below ``capacity_pages`` at all times (audited): the
platform degrades — shrunk keep-alive, denied prewarms, queued
launches, typed sheds, OOM kills as the last resort — instead of
silently over-committing.

The paper-shaped outcome: FaaSMem lowers each idle container's local
footprint proactively, so the governor rarely has to engage; the
baseline leans on emergency reclaim and OOM, which shows up as
direct-reclaim stalls in p99 and as shed load.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.baselines import NoOffloadPolicy
from repro.core import FaaSMemPolicy
from repro.errors import ExperimentError
from repro.experiments.common import ExperimentResult, SweepGrid, SweepPoint
from repro.faas import PlatformConfig, ServerlessPlatform
from repro.pressure import PressureConfig
from repro.traces.analysis import reused_intervals
from repro.workloads import get_profile

# Steady-state local footprint of one warm "web" container (runtime +
# init working set), used only to size the sweep.
_WEB_FOOTPRINT_MIB = 350.0


def _arrival_schedule(
    n_functions: int, duration: float, mean_iat_s: float, seed: int
) -> Dict[str, List[float]]:
    """Per-function Poisson arrivals, generated once per load point.

    The same schedule is replayed for every system so the comparison
    is paired; mean inter-arrival well below the keep-alive keeps each
    function's container warm, which is what makes the aggregate
    warm-set footprint track the function count.
    """
    schedule: Dict[str, List[float]] = {}
    for index in range(n_functions):
        rng = np.random.default_rng(seed * 10_007 + index)
        count = rng.poisson(duration / mean_iat_s)
        times = sorted(rng.uniform(0.0, duration, size=count).tolist())
        schedule[f"fn-{index:02d}"] = times
    return schedule


def _sweep_point(
    multiplier: float,
    system: str,
    benchmark: str,
    duration: float,
    node_capacity_mib: float,
    pool_capacity_mib: float,
    keep_alive_s: float,
    mean_iat_s: float,
    seed: int,
    platform_config: Optional[PlatformConfig],
) -> Dict[str, Any]:
    """One (multiplier, system) cell of the overload sweep.

    The arrival schedule and priors are regenerated inside the point
    from the same seeds, so every cell is self-contained (and therefore
    fan-out safe) while both systems of a multiplier still see the
    identical paired trace.
    """
    profile = get_profile(benchmark)
    capacity_containers = node_capacity_mib / _WEB_FOOTPRINT_MIB
    pressure = PressureConfig(
        # Tight admission bounds: the sweep should reach the shed tier
        # at the top multiplier instead of queueing unboundedly.
        admission_queue_limit=6,
        per_function_queue_limit=2,
        # Shrink memory.high below the warm working set so the
        # allocation-throttle ramp is visible under pressure.
        throttle_quota_frac=0.7,
    )
    n_functions = max(1, round(multiplier * capacity_containers))
    schedule = _arrival_schedule(n_functions, duration, mean_iat_s, seed)
    submitted = sum(len(times) for times in schedule.values())
    events = sorted(
        (time, function) for function, times in schedule.items() for time in times
    )
    priors = {
        function: reused_intervals(times, keep_alive_s, profile.exec_time_s)
        for function, times in schedule.items()
    }
    policy = (
        NoOffloadPolicy() if system == "baseline" else FaaSMemPolicy(reuse_priors=priors)
    )
    platform = ServerlessPlatform(
        policy,
        config=replace(
            platform_config or PlatformConfig(),
            seed=seed,
            audit_events=True,
            node_capacity_mib=node_capacity_mib,
            pool_capacity_mib=pool_capacity_mib,
            keep_alive_s=keep_alive_s,
            pressure=pressure,
        ),
    )
    for function in schedule:
        platform.register_function(function, profile)
    platform.run_trace(events)
    assert platform.auditor is not None
    governor = platform.governor
    assert governor is not None
    stats = platform.latencies()
    completed = stats.count
    if completed == 0:
        raise ExperimentError("overload run completed no requests")
    node = platform.node
    return {
        "multiplier": multiplier,
        "system": system,
        "functions": n_functions,
        "submitted": submitted,
        "completed": completed,
        "goodput": round(completed / submitted, 4),
        "shed": governor.stats.shed,
        "shed_frac": round(governor.stats.shed / submitted, 4),
        "queued": governor.stats.queued,
        "throttled": governor.stats.throttle_events,
        "oom_kills": governor.stats.oom_kills,
        "direct_reclaims": governor.stats.direct_reclaims,
        "bg_reclaim_mib": round(
            governor.stats.background_reclaim_pages * 4096 / (1 << 20), 1
        ),
        "p99_s": round(stats.p99, 3),
        "peak_mib": round(node.peak_pages * 4096 / (1 << 20), 1),
        "overcommits": node.overcommit_events,
        "violations": len(platform.auditor.violations),
    }


def run(
    benchmark: str = "web",
    duration: float = 480.0,
    node_capacity_mib: float = 2048.0,
    pool_capacity_mib: Optional[float] = None,
    keep_alive_s: float = 120.0,
    mean_iat_s: float = 30.0,
    multipliers: Sequence[float] = (0.5, 1.0, 1.5, 2.0, 3.0),
    seed: int = 11,
    jobs: Optional[int] = None,
    platform_config: Optional[PlatformConfig] = None,
) -> ExperimentResult:
    """Sweep warm-set demand as a multiplier of node capacity.

    The remote pool is deliberately finite (default: half the node's
    DRAM) so that past ~2x the whole memory hierarchy saturates and
    the governor has to walk the full degradation ladder — reclaim,
    throttle, queue, shed, OOM — rather than swapping forever.
    """
    result = ExperimentResult(
        "overload",
        "Goodput and pressure containment near node capacity "
        "(governed baseline vs. FaaSMem)",
    )
    if pool_capacity_mib is None:
        pool_capacity_mib = node_capacity_mib / 2
    points = [
        SweepPoint(
            key=(multiplier, system),
            fn=_sweep_point,
            kwargs={
                "multiplier": multiplier,
                "system": system,
                "benchmark": benchmark,
                "duration": duration,
                "node_capacity_mib": node_capacity_mib,
                "pool_capacity_mib": pool_capacity_mib,
                "keep_alive_s": keep_alive_s,
                "mean_iat_s": mean_iat_s,
                "seed": seed,
                "platform_config": platform_config,
            },
        )
        for multiplier in multipliers
        for system in ("baseline", "faasmem")
    ]
    outcomes = SweepGrid("overload", points).run(jobs=jobs)
    result.rows = [outcome.value for outcome in outcomes]
    result.series["multipliers"] = list(multipliers)
    for system in ("baseline", "faasmem"):
        rows = [row for row in result.rows if row["system"] == system]
        result.series[f"goodput_{system}"] = [row["goodput"] for row in rows]
        result.series[f"p99_{system}"] = [row["p99_s"] for row in rows]
        result.series[f"shed_frac_{system}"] = [row["shed_frac"] for row in rows]
    result.notes.append(
        "every row runs under the memory-pressure governor with default "
        "watermarks; peak_mib must never exceed node capacity and "
        "overcommits/violations must be 0 (audited)"
    )
    result.notes.append(
        "multiplier = aggregate warm-set footprint / node DRAM; above 1.0 "
        "the platform degrades (shrunk keep-alive, denied prewarm, queued "
        "launches, shed) instead of over-committing"
    )
    result.notes.append(
        "FaaSMem drains idle containers proactively, so the governor engages "
        "less: fewer direct reclaims and OOM kills than the governed baseline"
    )
    return result
