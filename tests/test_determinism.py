"""Determinism and differential tests over the traced event stream.

* Two runs of the same seeded experiment must produce byte-identical
  trace streams (compared by SHA-256 digest) — including across
  processes with different ``PYTHONHASHSEED``, which catches
  accidental reliance on set/dict hash ordering.
* Under zero memory pressure, FaaSMem must be a latency no-op: it
  offloads only never-touched pages, so per-request latencies are
  identical to the no-offload baseline on the same seeded trace.
"""

from __future__ import annotations

import os
import subprocess
import sys

from repro.baselines import NoOffloadPolicy
from repro.core.manager import FaaSMemPolicy
from repro.faas import PlatformConfig, ServerlessPlatform
from repro.obs import runtime as obs
from repro.traces.azure import sample_function_trace
from repro.workloads.profile import RuntimeProfile, UniformInit, WorkloadProfile

_REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_DIGEST_SCRIPT = """
from repro.experiments import fig12_azure_eval
from repro.faas import PlatformConfig
from repro.obs import runtime as obs
fig12_azure_eval.run(
    benchmarks=["web"],
    loads=("high",),
    duration=300.0,
    platform_config=PlatformConfig(trace_events=True),
)
print(obs.combined_digest())
"""


def _digest_in_subprocess(hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = _REPO_SRC
    env["PYTHONHASHSEED"] = hash_seed
    out = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip().splitlines()[-1]


class TestTraceDeterminism:
    def test_same_seed_same_digest_in_process(self):
        from repro.experiments import fig12_azure_eval

        digests = []
        for _ in range(2):
            obs.reset_sessions()
            try:
                fig12_azure_eval.run(
                    benchmarks=["web"],
                    loads=("high",),
                    duration=300.0,
                    platform_config=PlatformConfig(trace_events=True),
                )
                digests.append(obs.combined_digest())
            finally:
                obs.reset_sessions()
        assert digests[0] == digests[1]

    def test_same_seed_same_digest_across_processes(self):
        """Different hash salts must not change the event stream."""
        first = _digest_in_subprocess("1")
        second = _digest_in_subprocess("2")
        assert first == second


def _zero_pressure_profile() -> WorkloadProfile:
    """A benchmark whose working set is never offloadable.

    ``cold_touch_prob=0`` and a tail-free uniform init mean requests
    only ever touch the hot core, which FaaSMem promotes to the hot
    pool before any Pucket offload fires — so offloading moves only
    never-touched pages and cannot stall any request.
    """
    return WorkloadProfile(
        name="zp",
        runtime=RuntimeProfile(
            name="zp-rt",
            hot_mib=20.0,
            cold_mib=40.0,
            launch_time_s=0.5,
            cold_touch_prob=0.0,
        ),
        init_layout=UniformInit(hot_mib=30.0, cold_mib=60.0),
        init_time_s=0.5,
        exec_time_s=0.2,
        exec_mib=10.0,
        quota_mib=256.0,
    )


class TestZeroPressureDifferential:
    def test_faasmem_matches_no_offload_latencies(self):
        profile = _zero_pressure_profile()
        trace = sample_function_trace("low", duration=1800.0, seed=7)

        def run_system(policy):
            platform = ServerlessPlatform(
                policy, config=PlatformConfig(seed=11, audit_events=True)
            )
            platform.register_function("zp", profile)
            platform.run_trace((t, "zp") for t in trace.timestamps)
            assert platform.auditor is not None
            assert platform.auditor.clean, platform.auditor.report()
            return platform

        # Huge reuse priors keep the semi-warm start timing beyond any
        # idle gap, so only Pucket offloads of cold pages happen.
        faasmem = run_system(FaaSMemPolicy(reuse_priors={"zp": [1e9] * 50}))
        baseline = run_system(NoOffloadPolicy())

        assert len(trace.timestamps) > 5
        assert faasmem.fastswap.stats.offloaded_pages > 0  # not vacuous
        assert faasmem.fastswap.stats.recalled_pages == 0

        def key(r):
            return (r.arrival, r.invocation_id)

        base_records = sorted(baseline.records, key=key)
        faas_records = sorted(faasmem.records, key=key)
        assert len(base_records) == len(faas_records)
        for base, faas in zip(base_records, faas_records):
            assert base.arrival == faas.arrival
            assert base.latency == faas.latency, (
                f"latency diverged at arrival={base.arrival}: "
                f"{base.latency} != {faas.latency}"
            )
            assert faas.fault_stall_s == 0.0


class TestExperimentDeterminism:
    """The beyond-the-paper harnesses are reproducible run to run."""

    def _digest_of(self, runner) -> str:
        obs.reset_sessions()
        try:
            runner(PlatformConfig(trace_events=True))
            return obs.combined_digest()
        finally:
            obs.reset_sessions()

    def test_pressure_experiment_digest_stable(self):
        from repro.experiments import pressure

        def runner(config):
            pressure.run(duration=600.0, platform_config=config)

        assert self._digest_of(runner) == self._digest_of(runner)

    def test_node_mixed_experiment_digest_stable(self):
        from repro.experiments import node_mixed

        def runner(config):
            node_mixed.run(
                n_functions=25, duration=900.0, max_functions=15, platform_config=config
            )

        assert self._digest_of(runner) == self._digest_of(runner)

    def test_overload_experiment_digest_stable(self):
        """Governor machinery (reclaim, OOM tie-breaks, queues) included."""
        from repro.experiments import overload

        def runner(config):
            overload.run(duration=120.0, multipliers=(0.5, 2.0), platform_config=config)

        assert self._digest_of(runner) == self._digest_of(runner)
