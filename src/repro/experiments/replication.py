"""Seed-replication harness: run a comparison across many seeds.

A single trace replay is one draw from the workload distribution; this
harness repeats a (benchmark, load) comparison across seeds and
reports mean and a bootstrap confidence interval for the quantities
the paper's claims rest on — memory saving and P95 ratio — so a
reader can see how stable each headline number is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.common import (
    ExperimentResult,
    run_benchmark_trace,
    system_factories,
)
from repro.faas import PlatformConfig
from repro.traces.azure import sample_function_trace
from repro.units import HOUR


@dataclass
class ReplicatedMetric:
    """Mean and bootstrap CI of one metric across seeds."""

    name: str
    samples: List[float]

    @property
    def mean(self) -> float:
        return float(np.mean(self.samples))

    def ci(self, level: float = 0.95, resamples: int = 2000, seed: int = 0) -> Tuple[float, float]:
        """Percentile-bootstrap confidence interval for the mean."""
        if not 0 < level < 1:
            raise ValueError(f"level must be in (0, 1), got {level}")
        data = np.asarray(self.samples, dtype=float)
        if data.size == 1:
            return (float(data[0]), float(data[0]))
        rng = np.random.default_rng(seed)
        means = rng.choice(data, size=(resamples, data.size), replace=True).mean(axis=1)
        alpha = (1 - level) / 2
        return (
            float(np.quantile(means, alpha)),
            float(np.quantile(means, 1 - alpha)),
        )

    def row(self) -> Dict[str, float]:
        low, high = self.ci()
        return {
            "metric": self.name,
            "mean": round(self.mean, 4),
            "ci95_low": round(low, 4),
            "ci95_high": round(high, 4),
            "n": len(self.samples),
        }


def replicate(
    benchmark: str = "bert",
    load: str = "high",
    seeds: Sequence[int] = tuple(range(8)),
    duration: float = 0.5 * HOUR,
    platform_config: Optional[PlatformConfig] = None,
) -> ExperimentResult:
    """Baseline-vs-FaaSMem across several trace seeds."""
    savings: List[float] = []
    p95_ratios: List[float] = []
    for seed in seeds:
        trace = sample_function_trace(load, duration=duration, seed=seed)
        history = sample_function_trace(load, duration=4 * duration, seed=seed)
        factories = system_factories(trace=trace, benchmark=benchmark, history=history)
        baseline = run_benchmark_trace(factories["baseline"](), benchmark, trace, platform_config)
        faasmem = run_benchmark_trace(factories["faasmem"](), benchmark, trace, platform_config)
        savings.append(1 - faasmem.memory.average_mib / baseline.memory.average_mib)
        p95_ratios.append(faasmem.latency_p95 / baseline.latency_p95)
    result = ExperimentResult(
        experiment="replication",
        title=f"Seed replication: {benchmark} under {load} load ({len(list(seeds))} seeds)",
    )
    metrics = [
        ReplicatedMetric("memory_saving", savings),
        ReplicatedMetric("p95_ratio", p95_ratios),
    ]
    result.rows = [metric.row() for metric in metrics]
    result.series["savings"] = savings
    result.series["p95_ratios"] = p95_ratios
    result.notes.append(
        "per-seed spread of the Fig. 12 headline quantities; the paper "
        "reports single-trace numbers"
    )
    return result
