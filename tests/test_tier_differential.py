"""Golden digests for the one-tier pool: the paper's flat memory node.

``PlatformConfig(tiers=None)`` builds :meth:`TierTopology.flat`, a
:class:`TieredPool` with one tier and one shard. The digests below
were pinned from the original flat ``RemotePool`` datapath, and a
one-tier run must still emit exactly that stream: pool name
``mempool-0``, an unnamed link subject, no ``tier.*`` events, no
demotion daemon and no extra random draws. The four runs cover fig12
and fig11 traffic, pool-node crashes (chaos) and synchronous governor
write-back (overload). fig12 runs audited: the auditor only reads the
stream, so the digest is the traced one, with no violations.
"""

from __future__ import annotations

from repro.core import FaaSMemPolicy
from repro.experiments.common import make_reuse_priors
from repro.faas import PlatformConfig, ServerlessPlatform
from repro.obs import runtime as obs
from repro.pool.tier import TieredPool, TierSpec, TierTopology
from repro.traces import sample_function_trace
from repro.workloads import get_profile

FIG12_DIGEST = "ea7e6dfbf0a8aa97504ac75bf02f4b43844cc38f4ef27aef2a8ae172ca5b54a7"
FIG11_DIGEST = "4f1a91f207a209520e0fd2d3e9936f6c61756ad65ee13629e4bd1a7ab983b951"
CHAOS_DIGEST = "43ee99be8ef47593b9dc90095c0959ad5001ad79ab004d3a823aaec1076435ee"
OVERLOAD_DIGEST = "3c59af064d96a785886fa2e1719482cf0fbbeb939342304f95db49f10a703155"
FIG12_EVENTS = 2714


def _digest(runner) -> str:
    obs.reset_sessions()
    try:
        runner(PlatformConfig(trace_events=True))
        return obs.combined_digest()
    finally:
        obs.reset_sessions()


def _run_fig12(config):
    from repro.experiments import fig12_azure_eval

    fig12_azure_eval.run(
        benchmarks=["web"], loads=("high",), duration=300.0, platform_config=config
    )


def _run_semiwarm(config):
    from repro.experiments import fig11_semiwarm_overview

    fig11_semiwarm_overview.run(history_duration=3600.0, platform_config=config)


def _run_chaos(config):
    from repro.experiments import chaos

    chaos.run(duration=600.0, intensities=(0.0, 2.0), platform_config=config)


def _run_overload(config):
    from repro.experiments import overload

    overload.run(duration=240.0, multipliers=(0.5, 1.5, 3.0), platform_config=config)


def _web_platform(tiers) -> ServerlessPlatform:
    """One traced FaaSMem run of ``web`` on the given pool topology."""
    trace = sample_function_trace("high", duration=300.0, seed=1)
    priors = make_reuse_priors(trace, "web", exec_time_s=get_profile("web").exec_time_s)
    platform = ServerlessPlatform(
        FaaSMemPolicy(reuse_priors=priors),
        config=PlatformConfig(trace_events=True, tiers=tiers),
    )
    platform.register_function("web", get_profile("web"))
    platform.run_trace((t, "web") for t in trace.timestamps)
    return platform


class TestDegenerateHierarchyDifferential:
    def test_fig12_digest_identical(self):
        """Audited: auditing reads the stream and must not change it."""
        obs.reset_sessions()
        try:
            _run_fig12(PlatformConfig(audit_events=True))
            sessions = obs.sessions()
            assert sessions and all(s.auditor is not None for s in sessions)
            assert obs.combined_digest() == FIG12_DIGEST
            assert sum(s.tracer.emitted for s in sessions) == FIG12_EVENTS
            assert obs.total_violations() == 0
        finally:
            obs.reset_sessions()

    def test_semiwarm_digest_identical(self):
        assert _digest(_run_semiwarm) == FIG11_DIGEST

    def test_chaos_digest_identical(self):
        assert _digest(_run_chaos) == CHAOS_DIGEST

    def test_overload_digest_identical(self):
        assert _digest(_run_overload) == OVERLOAD_DIGEST

    def test_differential_is_not_vacuous(self):
        """``tiers=None`` and an explicit flat topology are one stack."""
        default = _web_platform(None)
        explicit = _web_platform(TierTopology.flat())
        for platform in (default, explicit):
            assert isinstance(platform.pool, TieredPool)
            assert platform.pool.degenerate
            assert platform.fastswap.stats.offloaded_pages > 0
        assert default.tracer.digest() == explicit.tracer.digest()

    def test_real_hierarchy_does_change_the_stream(self):
        """Sanity check on the instrument: two tiers diverge.

        A genuine CXL+RDMA topology emits ``tier.*`` events and routes
        semi-warm drains over the near link, so its digest cannot match
        the flat run.
        """
        flat = _web_platform(None)
        tiered = _web_platform(TierTopology.cxl_rdma(total_capacity_mib=64 * 1024))
        assert flat.tracer.digest() != tiered.tracer.digest()
        assert any(e.kind.startswith("tier.") for e in tiered.tracer.events)

    def test_multi_shard_single_tier_is_not_degenerate(self):
        """Sharding alone already leaves the provable-flat regime."""
        topo = TierTopology(tiers=[TierSpec(name="pool", shards=2)])
        assert not topo.degenerate
        assert TierTopology.flat().degenerate


class TestOneTierSurface:
    """From outside, a one-tier run looks exactly like the flat pool."""

    def test_default_platform_is_the_flat_pool(self):
        platform = _web_platform(None)
        fastswap = platform.fastswap
        assert fastswap.tier_stats is None
        assert fastswap.demotions == 0
        assert len(fastswap.crash_domains()) == 1
        assert platform.pool.name == "mempool-0"
        assert platform.link.name == ""
        assert [link.name for link in fastswap.links()] == [""]
        assert not any(e.kind.startswith("tier.") for e in platform.tracer.events)

    def test_tiering_flat_row_keeps_no_ledger(self):
        from repro.experiments import tiering

        rows = tiering.run(duration=300.0, near_shares=(0.25,)).rows
        flat = next(row for row in rows if row["system"] == "flat")
        hierarchy = next(row for row in rows if row["system"] == "hierarchy")
        assert flat["near_resident_pk"] == 0
        assert flat["spills"] == 0
        assert flat["demotions"] == 0
        assert hierarchy["near_resident_pk"] > 0
