"""Fig. 6 — Access-bit scan of the Bert ML-inference benchmark.

One Bert container: memory climbs to ~1000 MB during the 5 s
initialization, part of it is released, and each subsequent request
accesses ~610 MB — of which ~400 MB are init-segment hot pages reused
on every request.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.experiments.common import ExperimentResult
from repro.faas import PlatformConfig, ServerlessPlatform
from repro.faas.policy import OffloadPolicy
from repro.units import MIB, PAGE_SIZE


class _AccessRecorder(OffloadPolicy):
    """Tallies the pages each request touches, by segment."""

    name = "access-recorder"

    def __init__(self) -> None:
        super().__init__()
        self._current_init_pages = 0
        self._current_runtime_pages = 0
        self.per_request: List[dict] = []

    def on_request_start(self, container) -> None:
        self._current_init_pages = 0
        self._current_runtime_pages = 0

    def on_region_touched(self, container, region, was_remote: bool = False) -> None:
        if region.segment.value == "init":
            self._current_init_pages += region.pages
        elif region.segment.value == "runtime":
            self._current_runtime_pages += region.pages

    def on_request_complete(self, container, record) -> None:
        exec_pages = int(container.profile.exec_mib * MIB / PAGE_SIZE)
        self.per_request.append(
            {
                "time_s": round(record.completion, 2),
                "init_hot_mib": round(self._current_init_pages * PAGE_SIZE / MIB, 1),
                "runtime_mib": round(self._current_runtime_pages * PAGE_SIZE / MIB, 1),
                "exec_mib": round(exec_pages * PAGE_SIZE / MIB, 1),
                "total_accessed_mib": round(
                    (self._current_init_pages + self._current_runtime_pages + exec_pages)
                    * PAGE_SIZE
                    / MIB,
                    1,
                ),
            }
        )


def run(
    request_times: Sequence[float] = (8.0, 12.0, 16.0),
    platform_config: Optional[PlatformConfig] = None,
) -> ExperimentResult:
    """Trace one Bert container's footprint and per-request access."""
    from repro.workloads import get_profile

    recorder = _AccessRecorder()
    platform = ServerlessPlatform(recorder, config=platform_config)
    platform.register_function("bert", get_profile("bert"))
    for at in request_times:
        platform.submit("bert", at)
    platform.submit("bert", 0.0)  # the request that cold-starts the container
    platform.engine.run(until=max(request_times) + 5.0)

    timeline = [
        {"time_s": round(t, 2), "resident_mib": round(pages * PAGE_SIZE / MIB, 1)}
        for t, pages in platform.node.usage_samples()
    ]
    peak = max(point["resident_mib"] for point in timeline)
    result = ExperimentResult(
        experiment="fig06",
        title="Bert memory footprint and per-request access (Access-bit scan)",
        rows=recorder.per_request,
    )
    result.series["timeline"] = timeline
    result.series["peak_mib"] = peak
    result.notes.append(
        "paper: init allocates ~1000 MB then partially releases; each "
        "request accesses ~610 MB of which ~400 MB are init-segment hot pages"
    )
    return result
