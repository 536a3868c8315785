"""Whole-node mixed-population evaluation (the paper's §8.2 setup).

Instead of replaying one benchmark at a time (Fig. 12), this harness
maps an Azure-like anonymous population onto the 11 benchmarks — as
the paper does — and replays the merged trace on one 64 GiB node under
baseline / TMO / FaaSMem, reporting node-level memory, tail latency
and pool traffic. This is the closest thing to "a day in the life of
one FaaSMem node".
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

from repro.baselines import NoOffloadPolicy, TmoPolicy
from repro.core import FaaSMemPolicy
from repro.experiments.common import ExperimentResult
from repro.faas import PlatformConfig, ServerlessPlatform
from repro.traces.analysis import reused_intervals
from repro.traces.azure import AzureTraceConfig, generate_azure_like
from repro.traces.mapper import binding_table, map_population, merged_events
from repro.units import HOUR, MINUTE
from repro.workloads import get_profile


def run(
    n_functions: int = 60,
    duration: float = 1 * HOUR,
    max_functions: int = 40,
    keep_alive_s: float = 10 * MINUTE,
    seed: int = 77,
    platform_config: Optional[PlatformConfig] = None,
) -> ExperimentResult:
    """Replay a mapped population under the three systems."""
    result = ExperimentResult(
        experiment="node",
        title="Mixed Azure-like population on one node (baseline/TMO/FaaSMem)",
    )
    population = generate_azure_like(
        AzureTraceConfig(n_functions=n_functions, duration=duration, seed=seed)
    )
    bindings = map_population(population, max_functions=max_functions)
    events = merged_events(population, bindings)
    if not events:
        raise ValueError("mapped population produced no invocations")
    # Reuse priors per anonymous function from its own history (the
    # full-duration trace doubles as history at this scale).
    priors: Dict[str, list] = {}
    for binding in bindings:
        trace = population.functions[binding.function]
        profile = get_profile(binding.benchmark)
        priors[binding.function] = reused_intervals(
            trace.timestamps, keep_alive_s, profile.exec_time_s
        )
    baseline_mem = None
    for label, factory in (
        ("baseline", NoOffloadPolicy),
        ("tmo", TmoPolicy),
        ("faasmem", lambda: FaaSMemPolicy(reuse_priors=priors)),
    ):
        platform = ServerlessPlatform(
            factory(),
            config=replace(
                platform_config or PlatformConfig(),
                seed=seed,
                keep_alive_s=keep_alive_s,
            ),
        )
        for binding in bindings:
            platform.register_function(
                binding.function, get_profile(binding.benchmark)
            )
        platform.run_trace(list(events))
        summary = platform.summarize("mixed-node", "azure-like", window=duration)
        if label == "baseline":
            baseline_mem = summary.memory.average_mib
        result.rows.append(
            {
                "system": label,
                "functions": len(bindings),
                "requests": summary.requests,
                "cold_start_pct": round(100 * summary.cold_start_ratio, 1),
                "p95_s": round(summary.latency_p95, 3),
                "avg_node_mem_gib": round(summary.memory.average_mib / 1024, 3),
                "mem_saving_pct": round(
                    100 * (1 - summary.memory.average_mib / baseline_mem), 1
                ),
                "pool_avg_gib": round(summary.remote_avg_mib / 1024, 3),
                "offload_bw_mibps": round(summary.avg_offload_bandwidth_mibps, 3),
            }
        )
    result.series["bindings"] = binding_table(bindings)
    result.notes.append(
        "the paper's evaluation maps anonymous Azure functions onto the 11 "
        "benchmarks and replays them; node-level savings land between the "
        "per-benchmark extremes of Fig. 12"
    )
    return result
