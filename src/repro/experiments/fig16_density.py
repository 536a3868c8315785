"""Fig. 16 — remote bandwidth and deployment-density improvement.

The paper randomly selects 20 Azure traces, replays Bert / Graph / Web
under FaaSMem, and projects the same scatter onto two x-axes: request
load (req/min) and the standard deviation of request intervals. Load
and dispersion anticorrelate in real traces, which is where the
negative sigma-density correlation comes from.

Paper shape: remote bandwidth grows ~linearly with load (with an
uptick at very low load, where semi-warm starts earlier); density
improvement correlates positively with load and negatively with IAT
sigma; peak improvements ~1.4x / 1.4x / 2.2x for Bert / Graph / Web.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.experiments.common import ExperimentResult, faasmem_factory
from repro.faas import PlatformConfig, ServerlessPlatform
from repro.faas.density import estimate_density
from repro.sim.randomness import RandomStreams
from repro.traces.model import FunctionTrace
from repro.traces.patterns import bursty_arrivals, poisson_arrivals
from repro.units import HOUR
from repro.workloads import get_profile

APPLICATIONS = ("bert", "graph", "web")


def _random_traces(
    n_traces: int, duration: float, seed: int
) -> List[tuple]:
    """Random traces of diverse load and burstiness (the paper's "20
    randomly selected Azure traces").

    Returns ``(trace, history)`` pairs: the history is a longer sample
    of the same arrival process, standing in for the weeks of
    historical trace the paper profiles for semi-warm timings.
    """
    traces: List[tuple] = []
    streams = RandomStreams(seed=seed)
    for index in range(n_traces):
        picker = streams.fork(index).get("fig16-kind")
        rate_per_min = float(np.exp(picker.uniform(np.log(0.15), np.log(120.0))))
        bursty = picker.random() >= 0.5
        mean_gap = float(picker.uniform(30.0, 120.0))
        mean_burst = float(picker.uniform(10.0, 40.0))

        def generate(span: float, stream_name: str) -> List[float]:
            rng = streams.fork(index).get(stream_name)
            if not bursty:
                return poisson_arrivals(rng, rate_per_min / 60.0, span)
            # Bursty variant: same mean rate, higher IAT dispersion.
            # Gaps stay well below the keep-alive so dispersion delays
            # the (pessimistic) semi-warm start instead of stranding
            # whole fleets.
            duty = mean_burst / (mean_burst + mean_gap)
            return bursty_arrivals(
                rng,
                span,
                burst_rate_per_s=rate_per_min / 60.0 / max(duty, 1e-6),
                mean_burst_s=mean_burst,
                mean_gap_s=mean_gap,
            )

        timestamps = generate(duration, "fig16")
        history = generate(8 * duration, "fig16-history")
        if timestamps:
            traces.append(
                (
                    FunctionTrace(
                        name=f"trace-{index:02d}",
                        timestamps=timestamps,
                        duration=duration,
                    ),
                    FunctionTrace(
                        name=f"history-{index:02d}",
                        timestamps=history,
                        duration=8 * duration,
                    ),
                )
            )
    return traces


def run(
    applications: Optional[Sequence[str]] = None,
    n_traces: int = 20,
    duration: float = 0.5 * HOUR,
    seed: int = 9,
    platform_config: Optional[PlatformConfig] = None,
) -> ExperimentResult:
    """Replay the random trace set under FaaSMem for each application."""
    result = ExperimentResult(
        experiment="fig16",
        title="Remote bandwidth and density improvement under FaaSMem",
    )
    traces = _random_traces(n_traces, duration, seed)
    for app in applications or APPLICATIONS:
        for trace, history in traces:
            policy = faasmem_factory(trace, app, history=history)()
            platform = ServerlessPlatform(policy, config=platform_config)
            platform.register_function(app, get_profile(app))
            platform.run_trace((t, app) for t in trace.timestamps)
            report = estimate_density(platform, app, window=trace.duration)
            result.rows.append(
                {
                    "app": app,
                    "trace": trace.name,
                    "req_per_min": round(trace.requests_per_minute(), 1),
                    "iat_sigma_s": round(trace.iat_std, 1),
                    "bandwidth_mibps": round(report.avg_remote_bandwidth_mibps, 3),
                    "density_x": round(report.improvement, 3),
                }
            )
    _annotate_correlations(result)
    result.notes.append(
        "paper: bandwidth ~linear in load; density positively correlated "
        "with load, negatively with IAT sigma; up to 1.4x/1.4x/2.2x for "
        "Bert/Graph/Web"
    )
    return result


def _annotate_correlations(result: ExperimentResult) -> None:
    """Attach the paper's two scatter correlations per application."""
    correlations = {}
    for app in {row["app"] for row in result.rows}:
        rows = [r for r in result.rows if r["app"] == app]
        if len(rows) < 3:
            continue
        loads = [r["req_per_min"] for r in rows]
        sigmas = [r["iat_sigma_s"] for r in rows]
        densities = [r["density_x"] for r in rows]
        bandwidths = [r["bandwidth_mibps"] for r in rows]
        correlations[f"{app}/load_density"] = float(np.corrcoef(loads, densities)[0, 1])
        correlations[f"{app}/load_bandwidth"] = float(
            np.corrcoef(loads, bandwidths)[0, 1]
        )
        correlations[f"{app}/sigma_density"] = float(
            np.corrcoef(sigmas, densities)[0, 1]
        )
    result.series["correlations"] = correlations
