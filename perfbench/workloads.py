"""The benchmark's workloads: which experiment runs, at what scale, and
how its paper-level (model) metrics are read off the run.

Every workload is one registered experiment at its defaults, driven
serially in one process (``jobs=1``); ``tiny`` overrides give the
scale the self-test uses. Seeds are the experiments' own defaults
unless ``--seed`` overrides them.

Model metrics
-------------
Every workload reports all four model metrics, so each is defined on
every workload, each from one source. Where the experiment reports the
metric as a row field (``row_metrics``), the row value is used, so the
headline numbers are the experiment's own. Only the others are computed
from platform runs: ``candidate`` selects the runs the metric is about
(FaaSMem, or the tiered FaaSMem runs on ``tiering-audited``), each
paired with the most recent no-offload run before it, which is the
same cell's baseline in all three experiments.
"""

from __future__ import annotations

import inspect
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

SIZE_BAND = 0.1

#: (row filter, row field) per model metric, where the experiment has it.
RowMetric = Tuple[Callable[[Dict[str, Any]], bool], str]


@dataclass(frozen=True)
class Workload:
    name: str
    module: str  # repro.experiments.<module>
    seed: int
    tiny: Dict[str, Any]
    candidate: Callable[[Dict[str, Any]], bool]
    row_metrics: Dict[str, RowMetric] = field(default_factory=dict)
    #: Input seeds per run: --seed, --seed + 1, ... A workload whose
    #: size varies with its seed covers several, so a run's medians
    #: do not hang on one draw.
    seeds_per_run: int = 1
    #: Input size of a seed, cheap to compute. When set, a run's seeds
    #: must lie within SIZE_BAND of the default seed's size: a stated
    #: input size, so wall time does not follow the draw of trace size.
    size_of: Optional[Callable[[int], int]] = None
    #: (module, attribute) pairs timed as set-up: trace synthesis and
    #: reuse priors. Platform construction is timed for every workload.
    setup_calls: Tuple[Tuple[str, str], ...] = ()

    def seeds(self, first: int, tiny: bool) -> List[int]:
        """The run's input seeds: ``first`` and the next ones in the size band."""
        count = min(self.seeds_per_run, 2) if tiny else self.seeds_per_run
        if self.size_of is None or tiny:
            return [first + i for i in range(count)]
        target = self.size_of(self.seed)
        chosen: List[int] = []
        seed = first
        while len(chosen) < count:
            if abs(self.size_of(seed) - target) <= SIZE_BAND * target:
                chosen.append(seed)
            seed += 1
        return chosen

    def kwargs(self, tiny: bool, seed: Optional[int]) -> Dict[str, Any]:
        chosen = dict(self.tiny) if tiny else {}
        chosen["seed"] = self.seed if seed is None else seed
        chosen["jobs"] = 1
        return chosen


def _tiering_arrivals(seed: int) -> int:
    """Arrivals in the trace the tiering experiment draws for ``seed``."""
    from repro.experiments import tiering
    from repro.traces import sample_function_trace

    defaults = inspect.signature(tiering.run).parameters
    trace = sample_function_trace(
        defaults["load"].default, duration=defaults["duration"].default, seed=seed
    )
    return len(trace.timestamps)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fig12-azure",
            module="fig12_azure_eval",
            seed=3,
            tiny={"benchmarks": ["web", "bert"], "duration": 240.0},
            candidate=lambda p: p["faasmem"],
            row_metrics={
                "mem_saving_pct": (lambda r: r["system"] == "faasmem", "mem_saving_pct"),
                "p95_ratio": (lambda r: r["system"] == "faasmem", "p95_ratio"),
            },
            setup_calls=(
                ("repro.experiments.fig12_azure_eval", "sample_function_trace"),
                ("repro.experiments.common", "make_reuse_priors"),
            ),
        ),
        Workload(
            name="tiering-audited",
            module="tiering",
            seed=7,
            tiny={"duration": 180.0, "near_shares": (0.25,)},
            seeds_per_run=6,
            size_of=_tiering_arrivals,
            candidate=lambda p: p["faasmem"] and p["tiered"],
            row_metrics={
                "p99_s": (lambda r: r["system"] == "hierarchy", "p99_s"),
                "mem_saving_pct": (lambda r: r["system"] == "hierarchy", "savings_pct"),
            },
            setup_calls=(
                ("repro.experiments.tiering", "sample_function_trace"),
                ("repro.experiments.tiering", "make_reuse_priors"),
            ),
        ),
        Workload(
            name="overload-audited",
            module="overload",
            seed=11,
            tiny={"duration": 120.0, "multipliers": (0.5, 1.5)},
            seeds_per_run=3,
            candidate=lambda p: p["faasmem"],
            row_metrics={
                "p99_s": (lambda r: r["system"] == "faasmem", "p99_s"),
                "goodput": (lambda r: r["system"] == "faasmem", "goodput"),
            },
            setup_calls=(
                ("repro.experiments.overload", "_arrival_schedule"),
                ("repro.experiments.overload", "reused_intervals"),
            ),
        ),
    )
}


MODEL_METRICS = ("mem_saving_pct", "p95_ratio", "p99_s", "goodput")

#: Model metric -> its value for one (candidate, baseline) pair of
#: platform runs, for the metrics an experiment does not report.
FROM_PAIRS: Dict[str, Callable[[Dict[str, Any], Dict[str, Any]], float]] = {
    "mem_saving_pct": lambda c, r: 100.0 * (1.0 - c["avg_local_mib"] / r["avg_local_mib"]),
    "p95_ratio": lambda c, r: c["p95_s"] / r["p95_s"],
    "p99_s": lambda c, _: c["p99_s"],
    "goodput": lambda c, _: c["completed"] / c["submitted"],
}


def _platform_metrics(
    platforms: List[Dict[str, Any]], workload: Workload, names: List[str]
) -> Dict[str, float]:
    """``names`` from candidate platform runs and their baselines."""
    pairs = []
    reference = None
    for record in platforms:
        if not record["offload"]:
            reference = record
        elif workload.candidate(record) and reference is not None:
            pairs.append((record, reference))
    if not pairs:
        raise ValueError(f"{workload.name}: no candidate platform run with a baseline")
    return {name: statistics.fmean(FROM_PAIRS[name](c, r) for c, r in pairs) for name in names}


def model_metrics(
    workload: Workload, rows: List[Dict[str, Any]], platforms: List[Dict[str, Any]]
) -> Dict[str, float]:
    """The four model metrics of one run of ``workload``."""
    metrics = {
        name: statistics.fmean(row[column] for row in rows if keep(row))
        for name, (keep, column) in workload.row_metrics.items()
    }
    missing = [name for name in MODEL_METRICS if name not in metrics]
    if missing:
        metrics.update(_platform_metrics(platforms, workload, missing))
    return {name: metrics[name] for name in MODEL_METRICS}
