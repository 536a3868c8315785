"""Differential tests: parallel sweeps are byte-identical to serial.

The contract of :mod:`repro.perf.sweep` is that ``--jobs N`` is purely
an execution strategy: the merged rows, the combined trace digest and
the audit report of every grid-based experiment must be exactly what a
serial run produces. These tests run the ported experiments both ways
and compare the evidence.
"""

from __future__ import annotations

from repro.faas import PlatformConfig
from repro.obs import runtime as obs


def _audited(runner):
    """Run under trace+audit; return (combined digest, rows, violations)."""
    obs.reset_sessions()
    try:
        result = runner(PlatformConfig(audit_events=True))
        return obs.combined_digest(), result.rows, obs.total_violations()
    finally:
        obs.reset_sessions()


def _assert_parallel_matches_serial(make_runner):
    serial_digest, serial_rows, serial_violations = _audited(make_runner(1))
    par_digest, par_rows, par_violations = _audited(make_runner(4))
    assert par_digest == serial_digest, "trace streams diverged across processes"
    assert par_rows == serial_rows, "merged rows diverged across processes"
    assert par_violations == serial_violations == 0


class TestParallelDifferential:
    def test_fig12_jobs4_matches_serial(self):
        from repro.experiments import fig12_azure_eval

        def make_runner(jobs):
            return lambda config: fig12_azure_eval.run(
                benchmarks=["web", "bert"],
                loads=("high",),
                duration=200.0,
                jobs=jobs,
                platform_config=config,
            )

        _assert_parallel_matches_serial(make_runner)

    def test_fig11_jobs4_matches_serial(self):
        from repro.experiments import fig11_semiwarm_overview

        def make_runner(jobs):
            return lambda config: fig11_semiwarm_overview.run(
                history_duration=3600.0, jobs=jobs, platform_config=config
            )

        _assert_parallel_matches_serial(make_runner)

    def test_tiering_jobs4_matches_serial(self):
        from repro.experiments import tiering

        def make_runner(jobs):
            return lambda config: tiering.run(
                duration=150.0, near_shares=(0.25,), jobs=jobs, platform_config=config
            )

        _assert_parallel_matches_serial(make_runner)

    def test_overload_jobs4_matches_serial(self):
        from repro.experiments import overload

        def make_runner(jobs):
            return lambda config: overload.run(
                duration=120.0, multipliers=(0.5, 2.0), jobs=jobs, platform_config=config
            )

        _assert_parallel_matches_serial(make_runner)

    def test_chaos_jobs4_matches_serial(self):
        from repro.experiments import chaos

        def make_runner(jobs):
            return lambda config: chaos.run(
                duration=240.0, intensities=(0.0, 1.0), jobs=jobs, platform_config=config
            )

        _assert_parallel_matches_serial(make_runner)
