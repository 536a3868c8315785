"""Memory-stranded node: pressure evictions with and without FaaSMem.

The paper's closing motivation: memory limits container deployment
density, and a stranded node must evict idle containers early (forcing
cold starts) to admit new ones. The scenario here: a steady web
service keeps a warm fleet on the node; a bursty ML-inference function
(Bert, 1280 MiB quota) periodically surges and forces the scheduler to
evict idle web containers. FaaSMem shrinks both functions' committed
quotas by their measured stable offload, so the same node rides out
the same load with fewer pressure evictions and fewer cold starts.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

from repro.baselines import NoOffloadPolicy
from repro.core import FaaSMemPolicy
from repro.experiments.common import ExperimentResult, make_reuse_priors
from repro.faas import PlatformConfig, ServerlessPlatform
from repro.faas.density import estimate_density
from repro.traces.azure import sample_function_trace
from repro.units import HOUR
from repro.workloads import get_profile


def _traces(duration: float, seed: int):
    """A steady web stream plus small periodic Bert bursts.

    Each Bert burst lands 3 near-simultaneous requests, enough to
    spawn a few concurrent 1280 MiB containers — the admission event
    that forces evictions on a small node.
    """
    from repro.traces.model import FunctionTrace

    burst_times = []
    for fraction in (0.25, 0.5, 0.75):
        start = duration * fraction
        burst_times.extend(start + 0.2 * i for i in range(3))
    bursty = FunctionTrace(
        name="bert", timestamps=sorted(burst_times), duration=duration
    )
    steady = sample_function_trace(
        "middle", duration=duration, seed=seed + 1, name="web"
    )
    return bursty, steady


def run(
    node_capacity_mib: float = 4 * 1024,
    duration: float = 0.5 * HOUR,
    seed: int = 47,
    platform_config: Optional[PlatformConfig] = None,
) -> ExperimentResult:
    """Steady web + surging Bert on a deliberately small node."""
    result = ExperimentResult(
        experiment="pressure",
        title=f"Memory-stranded node ({node_capacity_mib / 1024:.0f} GiB, web + bert)",
    )
    base = platform_config or PlatformConfig()
    bert_trace, web_trace = _traces(duration, seed)
    events = sorted(
        [(t, "bert") for t in bert_trace.timestamps]
        + [(t, "web") for t in web_trace.timestamps]
    )
    priors = {}
    priors.update(make_reuse_priors(bert_trace, "bert"))
    priors.update(make_reuse_priors(web_trace, "web"))

    # Profiling pass on an untight node measures FaaSMem's stable
    # offload per function, which shrinks the scheduling quota (§8.6).
    scales: Dict[str, float] = {}
    profiling = ServerlessPlatform(
        FaaSMemPolicy(reuse_priors=priors), config=replace(base, seed=seed)
    )
    for name in ("bert", "web"):
        profiling.register_function(name, get_profile(name))
    profiling.run_trace(events)
    for name in ("bert", "web"):
        density = estimate_density(profiling, name, window=duration)
        scales[name] = 1.0 / density.improvement

    for label, policy_factory, scaled in (
        ("baseline", NoOffloadPolicy, False),
        ("faasmem", lambda: FaaSMemPolicy(reuse_priors=priors), True),
    ):
        platform = ServerlessPlatform(
            policy_factory(),
            config=replace(
                base,
                seed=seed,
                node_capacity_mib=node_capacity_mib,
                evict_on_pressure=True,
            ),
        )
        for name in ("bert", "web"):
            profile = get_profile(name)
            if scaled:
                profile = replace(
                    profile, quota_mib=profile.quota_mib * scales[name]
                )
            platform.register_function(name, profile)
        platform.run_trace(events)
        summary = platform.summarize("mixed", "surge", window=duration)
        result.rows.append(
            {
                "system": label,
                "bert_quota_mib": round(
                    get_profile("bert").quota_mib * (scales["bert"] if scaled else 1.0),
                    1,
                ),
                "requests": summary.requests,
                "pressure_evictions": platform.controller.pressure_evictions,
                "cold_starts": summary.cold_starts,
                "p95_s": round(summary.latency_p95, 3),
                "avg_mem_mib": round(summary.memory.average_mib, 1),
            }
        )
    result.notes.append(
        "quota reduction keeps the committed capacity below the eviction "
        "threshold for longer: FaaSMem suffers fewer pressure evictions "
        "and cold starts on the same load"
    )
    return result
