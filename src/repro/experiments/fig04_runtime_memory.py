"""Fig. 4 — inactive runtime-segment memory per platform and language.

Launches a hello-world function on each (platform, language) runtime
and measures the runtime-segment pages whose Access bit stays clear
after the first execution — i.e. the cold runtime memory a memory pool
could absorb.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines import NoOffloadPolicy
from repro.experiments.common import ExperimentResult
from repro.faas import PlatformConfig, ServerlessPlatform
from repro.mem.page import Segment
from repro.workloads.profile import UniformInit, WorkloadProfile
from repro.workloads.runtimes import RUNTIME_FOOTPRINTS, make_runtime_profile


def _hello_world(platform_name: str, language: str) -> WorkloadProfile:
    """A hello-world function: negligible init and exec footprint."""
    return WorkloadProfile(
        name=f"hello-{platform_name}-{language}",
        runtime=make_runtime_profile(platform_name, language),
        init_layout=UniformInit(hot_mib=1.0, cold_mib=0.0),
        init_time_s=0.1,
        exec_time_s=0.05,
        exec_mib=1.0,
        quota_mib=128.0,
        cpu_share=0.1,
        exec_time_cv=0.0,
    )


def run(platform_config: Optional[PlatformConfig] = None) -> ExperimentResult:
    """Measure inactive runtime memory after one hello-world request."""
    result = ExperimentResult(
        experiment="fig04",
        title="Inactive runtime-segment memory (hello-world containers)",
    )
    for footprint in RUNTIME_FOOTPRINTS:
        profile = _hello_world(footprint.platform, footprint.language)
        platform = ServerlessPlatform(NoOffloadPolicy(), config=platform_config)
        platform.register_function("hello", profile)
        platform.submit("hello", 0.0)
        platform.engine.run(until=30.0)
        container = platform.controller.all_containers()[0]
        inactive_pages = 0
        for region in container.cgroup.space.regions(Segment.RUNTIME):
            # The Access-bit criterion from the paper: pages untouched
            # since the hello-world execution are inactive.
            if not region.clear_access_bit():
                inactive_pages += region.pages
            elif region.access_count <= 1:
                # Touched only at launch, never by the request.
                inactive_pages += region.pages
        result.rows.append(
            {
                "platform": footprint.platform,
                "language": footprint.language,
                "inactive_mib": round(inactive_pages * 4096 / 2**20, 1),
                "expected_mib": footprint.inactive_mib,
            }
        )
    result.notes.append(
        "paper: OpenWhisk Python/Java = 24/57 MiB inactive; all Azure "
        "runtimes exceed 100 MiB; Java largest (JVM)"
    )
    return result
