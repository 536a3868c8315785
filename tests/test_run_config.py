"""A platform's run depends only on its own configuration and seed.

* Interleaving: platform A runs to t=300 s, a second platform B is
  built and run to completion, then A finishes. A's trace digest and
  records must equal those of A run alone — region and invocation ids
  are per-platform sequences, not process-wide counters that building
  B would restart.
* Shipping: a gridded experiment hands its ``platform_config`` to
  every sweep point, including points run in worker processes, so a
  traced, faulted fig12 has one digest at ``jobs=1`` and ``jobs=2``,
  and that digest differs from the fault-free one.
"""

from __future__ import annotations

from repro.core import FaaSMemPolicy
from repro.experiments.common import make_reuse_priors
from repro.faas import PlatformConfig, ServerlessPlatform
from repro.faults import FaultSpec
from repro.obs import runtime as obs
from repro.traces import sample_function_trace
from repro.workloads import get_profile

DURATION = 600.0


def _web_platform() -> ServerlessPlatform:
    """A traced FaaSMem ``web`` platform with its arrivals submitted."""
    trace = sample_function_trace("high", duration=DURATION, seed=1)
    priors = make_reuse_priors(trace, "web", exec_time_s=get_profile("web").exec_time_s)
    platform = ServerlessPlatform(
        FaaSMemPolicy(reuse_priors=priors), config=PlatformConfig(trace_events=True)
    )
    platform.register_function("web", get_profile("web"))
    for timestamp in trace.timestamps:
        platform.submit("web", timestamp)
    return platform


def _records(platform):
    return [
        (r.invocation_id, r.container_id, r.arrival, r.latency) for r in platform.records
    ]


class TestInterleavedPlatforms:
    def test_interleaved_platform_keeps_its_solo_digest(self):
        solo = _web_platform()
        solo.run()

        first = _web_platform()
        first.engine.run(until=DURATION / 2)
        second = _web_platform()
        second.run()
        first.run()

        assert len(first.records) == len(solo.records) > 0
        assert _records(first) == _records(solo)
        assert first.tracer.digest() == solo.tracer.digest()
        assert second.tracer.digest() == solo.tracer.digest()


def _fig12_digest(config: PlatformConfig, jobs: int) -> str:
    from repro.experiments import fig12_azure_eval

    obs.reset_sessions()
    try:
        fig12_azure_eval.run(
            benchmarks=["web", "bert"],
            loads=("high",),
            duration=200.0,
            jobs=jobs,
            platform_config=config,
        )
        return obs.combined_digest()
    finally:
        obs.reset_sessions()


class TestConfigReachesWorkers:
    def test_faulted_sweep_digest_matches_across_jobs(self):
        faulted = PlatformConfig(
            trace_events=True,
            faults=FaultSpec(
                seed=43, intensity=2.0, horizon_s=200.0, link_outage_rate_per_h=24.0
            ),
        )
        serial = _fig12_digest(faulted, jobs=1)
        parallel = _fig12_digest(faulted, jobs=2)
        fault_free = _fig12_digest(PlatformConfig(trace_events=True), jobs=1)
        assert serial == parallel
        assert serial != fault_free
