"""Fig. 11 — the semi-warm design overview, regenerated from data.

The paper's Fig. 11 is a design illustration: (left) the CDF of one
function's container reused intervals with the chosen (99 %-ile) start
timing, and (right) a container's local memory stepping down during
the gradual semi-warm offload until a request arrives. This experiment
produces both panels from an actual simulation.

The whole figure is one seeded simulation, so its grid has a single
point — it rides the same :class:`~repro.perf.sweep.SweepGrid` API as
the larger sweeps, which keeps the serial-vs-parallel differential
test uniform across experiments.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Optional

import numpy as np

from repro.core import FaaSMemPolicy
from repro.experiments.common import (
    ExperimentResult,
    SweepGrid,
    SweepPoint,
    make_reuse_priors,
)
from repro.faas import PlatformConfig, ServerlessPlatform
from repro.traces.analysis import cdf
from repro.traces.azure import sample_function_trace
from repro.units import PAGE_SIZE, MIB
from repro.workloads import get_profile


def _sweep_point(
    benchmark: str,
    history_duration: float,
    reuse_after_s: float,
    seed: int,
    platform_config: Optional[PlatformConfig],
) -> Dict[str, Any]:
    """Both panels: the historical CDF and one live drain timeline."""
    # Left panel: historical reused-interval CDF and the chosen timing.
    history = sample_function_trace("high", duration=history_duration, seed=seed)
    profile = get_profile(benchmark)
    priors = make_reuse_priors(history, benchmark, exec_time_s=profile.exec_time_s)
    intervals = priors[benchmark]
    xs, fs = cdf(intervals)
    timing = float(np.percentile(np.asarray(intervals), 99.0)) if intervals else 60.0

    # Right panel: one container's local memory through idle -> drain
    # -> reuse, sampled from a live run.
    policy = FaaSMemPolicy(reuse_priors=priors)
    platform = ServerlessPlatform(
        policy, config=replace(platform_config or PlatformConfig(), seed=seed)
    )
    platform.register_function(benchmark, profile)
    platform.submit(benchmark, 0.0)
    platform.submit(benchmark, profile.cold_start_s + reuse_after_s)
    platform.engine.run(until=profile.cold_start_s + reuse_after_s + 30.0)
    timeline = [
        {"time_s": round(t, 2), "local_mib": round(v * PAGE_SIZE / MIB, 1)}
        for t, v in platform.node.usage_samples()
    ]
    reuse_record = platform.records[-1]
    return {
        "reuse_cdf": list(zip(xs.tolist(), fs.tolist())),
        "timing": timing,
        "timeline": timeline,
        "reuse_samples": len(intervals),
        "recalled_pages": reuse_record.recalled_pages,
        "reuse_latency_s": reuse_record.latency,
    }


def run(
    benchmark: str = "bert",
    history_duration: float = 4 * 3600.0,
    reuse_after_s: float = 180.0,
    seed: int = 19,
    jobs: Optional[int] = None,
    platform_config: Optional[PlatformConfig] = None,
) -> ExperimentResult:
    """Produce the two panels of Fig. 11 from simulation data."""
    result = ExperimentResult(
        experiment="fig11",
        title="Semi-warm overview: reused-interval CDF and gradual offload",
    )
    points = [
        SweepPoint(
            key=(benchmark,),
            fn=_sweep_point,
            kwargs={
                "benchmark": benchmark,
                "history_duration": history_duration,
                "reuse_after_s": reuse_after_s,
                "seed": seed,
                "platform_config": platform_config,
            },
        )
    ]
    (outcome,) = SweepGrid("fig11", points).run(jobs=jobs)
    panel = outcome.value
    result.series["reuse_cdf"] = panel["reuse_cdf"]
    result.series["semiwarm_start_s"] = panel["timing"]
    result.series["memory_timeline"] = panel["timeline"]
    result.rows = [
        {
            "benchmark": benchmark,
            "reuse_samples": panel["reuse_samples"],
            "semiwarm_start_s": round(panel["timing"], 1),
            "drained_before_reuse_mib": round(
                panel["recalled_pages"] * PAGE_SIZE / MIB, 1
            ),
            "semiwarm_start_latency_s": round(panel["reuse_latency_s"], 3),
        }
    ]
    result.notes.append(
        "left panel: semi-warm begins at the 99%-ile of the reused-interval "
        "CDF; right panel: local memory steps down gradually until the next "
        "request stops the drain and recalls what it touches"
    )
    return result
