"""Unit tests for the invariant auditor (repro.obs.audit)."""

import pytest

from repro.errors import AuditError
from repro.obs.audit import InvariantAuditor
from repro.obs.trace import EventKind, Tracer


@pytest.fixture
def traced():
    clock = {"now": 0.0}
    tracer = Tracer(clock=lambda: clock["now"])
    auditor = InvariantAuditor().attach(tracer)
    return clock, tracer, auditor


class TestLifecycle:
    def test_legal_walk_is_clean(self, traced):
        _, tracer, auditor = traced
        for src, dst in (
            ("", "launching"),
            ("launching", "initializing"),
            ("initializing", "idle"),
            ("idle", "busy"),
            ("busy", "busy"),
            ("busy", "idle"),
            ("idle", "reclaimed"),
        ):
            tracer.emit(EventKind.CONTAINER_STATE, "c-1", **{"from": src, "to": dst})
        assert auditor.clean, auditor.report()

    def test_illegal_edge_flagged(self, traced):
        _, tracer, auditor = traced
        tracer.emit(EventKind.CONTAINER_STATE, "c-1", **{"from": "", "to": "launching"})
        tracer.emit(
            EventKind.CONTAINER_STATE, "c-1", **{"from": "launching", "to": "busy"}
        )
        assert not auditor.clean
        assert "illegal transition" in auditor.report()

    def test_mismatched_source_flagged(self, traced):
        _, tracer, auditor = traced
        tracer.emit(EventKind.CONTAINER_STATE, "c-1", **{"from": "idle", "to": "busy"})
        assert not auditor.clean
        assert "ledger has" in auditor.report()

    def test_nothing_leaves_reclaimed(self, traced):
        _, tracer, auditor = traced
        for src, dst in (
            ("", "launching"),
            ("launching", "reclaimed"),
            ("reclaimed", "idle"),
        ):
            tracer.emit(EventKind.CONTAINER_STATE, "c-1", **{"from": src, "to": dst})
        assert not auditor.clean


class TestPucketPlacement:
    def test_promote_demote_cycle_clean(self, traced):
        _, tracer, auditor = traced
        tracer.emit(
            EventKind.PUCKET_SEAL, "cg", pucket="runtime",
            barrier_time=0.0, regions=[1, 2], pages=8,
        )
        tracer.emit(
            EventKind.PUCKET_PROMOTE, "cg", pucket="runtime",
            region=1, pages=4, src="inactive",
        )
        tracer.emit(
            EventKind.PUCKET_DEMOTE, "cg", pucket="runtime",
            region=2, pages=4, src="inactive",
        )
        tracer.emit(
            EventKind.PUCKET_PROMOTE, "cg", pucket="runtime",
            region=2, pages=4, src="offloaded",
        )
        assert auditor.clean, auditor.report()

    def test_double_seal_flagged(self, traced):
        _, tracer, auditor = traced
        for _ in range(2):
            tracer.emit(
                EventKind.PUCKET_SEAL, "cg", pucket="runtime",
                barrier_time=0.0, regions=[1], pages=4,
            )
        assert not auditor.clean
        assert "sealed while already" in auditor.report()

    def test_promote_from_wrong_state_flagged(self, traced):
        _, tracer, auditor = traced
        tracer.emit(
            EventKind.PUCKET_PROMOTE, "cg", pucket="runtime",
            region=9, pages=4, src="inactive",
        )
        assert not auditor.clean  # never sealed: ledger has None

    def test_barrier_must_be_monotone(self, traced):
        clock, tracer, auditor = traced
        tracer.emit(
            EventKind.PUCKET_SEAL, "cg", pucket="runtime",
            barrier_time=10.0, regions=[], pages=0,
        )
        tracer.emit(
            EventKind.PUCKET_SEAL, "cg", pucket="init",
            barrier_time=5.0, regions=[], pages=0,
        )
        assert not auditor.clean
        assert "barrier" in auditor.report()

    def test_rollback_requires_hot(self, traced):
        _, tracer, auditor = traced
        tracer.emit(
            EventKind.PUCKET_SEAL, "cg", pucket="runtime",
            barrier_time=0.0, regions=[1], pages=4,
        )
        tracer.emit(EventKind.PUCKET_ROLLBACK, "cg", regions=[1], pages=4)
        assert not auditor.clean
        assert "not hot" in auditor.report()

    def test_forget_clears_ledger(self, traced):
        _, tracer, auditor = traced
        tracer.emit(
            EventKind.PUCKET_SEAL, "cg", pucket="runtime",
            barrier_time=0.0, regions=[1], pages=4,
        )
        tracer.emit(EventKind.PUCKET_FORGET, "cg", region=1, src="inactive")
        tracer.emit(
            EventKind.PUCKET_SEAL, "cg", pucket="init",
            barrier_time=1.0, regions=[1], pages=4,
        )
        assert auditor.clean, auditor.report()


class TestSwapConservation:
    def test_balanced_flow_clean(self, traced):
        _, tracer, auditor = traced
        tracer.emit(EventKind.OFFLOAD_ISSUE, "cg", region=1, pages=10)
        tracer.emit(EventKind.OFFLOAD_COMPLETE, "cg", region=1, pages=10)
        tracer.emit(EventKind.RECALL, "cg", region=1, pages=10)
        assert auditor.clean
        assert auditor.swap.remote_resident == 0

    def test_recall_exceeding_offload_flagged(self, traced):
        _, tracer, auditor = traced
        tracer.emit(EventKind.RECALL, "cg", region=1, pages=10)
        assert not auditor.clean
        assert "negative" in auditor.report()

    def test_more_completions_than_issues_flagged(self, traced):
        _, tracer, auditor = traced
        tracer.emit(EventKind.OFFLOAD_ABORT, "cg", region=1, pages=4, reason="freed")
        assert not auditor.clean


class TestLink:
    def test_fcfs_respected(self, traced):
        _, tracer, auditor = traced
        tracer.emit(
            EventKind.LINK_TRANSFER, "out",
            pages=256, start=0.0, completion=1.0, capacity=256 * 4096,
        )
        tracer.emit(
            EventKind.LINK_TRANSFER, "out",
            pages=256, start=1.0, completion=2.0, capacity=256 * 4096,
        )
        assert auditor.clean, auditor.report()

    def test_overlap_flagged(self, traced):
        _, tracer, auditor = traced
        tracer.emit(
            EventKind.LINK_TRANSFER, "out",
            pages=256, start=0.0, completion=2.0, capacity=256 * 4096 / 2,
        )
        tracer.emit(
            EventKind.LINK_TRANSFER, "out",
            pages=256, start=1.0, completion=3.0, capacity=256 * 4096 / 2,
        )
        assert not auditor.clean
        assert "overlaps" in auditor.report()

    def test_beating_the_wire_flagged(self, traced):
        _, tracer, auditor = traced
        tracer.emit(
            EventKind.LINK_TRANSFER, "out",
            pages=1000, start=0.0, completion=0.001, capacity=4096,
        )
        assert not auditor.clean
        assert "wire floor" in auditor.report()

    def test_directions_independent(self, traced):
        _, tracer, auditor = traced
        cap = 1 << 30
        tracer.emit(
            EventKind.LINK_TRANSFER, "out",
            pages=1, start=0.0, completion=1.0, capacity=cap,
        )
        tracer.emit(
            EventKind.LINK_TRANSFER, "in",
            pages=1, start=0.5, completion=1.5, capacity=cap,
        )
        assert auditor.clean, auditor.report()


class TestReporting:
    def test_assert_clean_raises_audit_error(self, traced):
        _, tracer, auditor = traced
        tracer.emit(EventKind.RECALL, "cg", region=1, pages=10)
        with pytest.raises(AuditError):
            auditor.assert_clean()

    def test_violations_truncated(self):
        clock = {"now": 0.0}
        tracer = Tracer(clock=lambda: clock["now"])
        auditor = InvariantAuditor(max_violations=3)
        auditor.attach(tracer)
        for i in range(10):
            tracer.emit(EventKind.RECALL, "cg", region=i, pages=1)
        assert len(auditor.violations) == 3
        assert "truncated" in auditor.report()

    def test_engine_clock_monotonicity(self, traced):
        clock, tracer, auditor = traced
        clock["now"] = 5.0
        tracer.emit(EventKind.ENGINE_EVENT, "a")
        clock["now"] = 4.0
        tracer.emit(EventKind.ENGINE_EVENT, "b")
        assert not auditor.clean
        assert "monotone" in auditor.report()


class TestFinalize:
    def test_finalize_cross_checks_platform(self, monkeypatch):
        from repro.core.manager import FaaSMemPolicy
        from repro.faas import PlatformConfig, ServerlessPlatform
        from repro.workloads import get_profile

        policy = FaaSMemPolicy()
        platform = ServerlessPlatform(
            policy, config=PlatformConfig(seed=5, audit_events=True)
        )
        platform.register_function("web", get_profile("web"))
        for i in range(4):
            platform.submit("web", at_time=i * 30.0)
        # Mid-run the containers are alive: finalize scans the Pucket
        # state the policy reports for each of them.
        platform.engine.run(until=100.0)
        live = [c.container_id for c in platform.controller.all_containers()]
        scanned = []
        check = platform.auditor.check_memory_state

        def recording(state, subject="", now=0.0):
            scanned.append(subject)
            check(state, subject=subject, now=now)

        monkeypatch.setattr(platform.auditor, "check_memory_state", recording)
        platform.auditor.finalize(platform)
        assert live and scanned == live
        platform.run()  # run() calls auditor.finalize()
        assert all(policy.memory_state(cid) is None for cid in live)
        assert platform.auditor._finalized
        assert platform.auditor.clean, platform.auditor.report()
        assert platform.auditor.checks > 0

    def test_finalize_detects_cooked_stats(self):
        from repro.baselines import NoOffloadPolicy
        from repro.faas import PlatformConfig, ServerlessPlatform

        platform = ServerlessPlatform(
            NoOffloadPolicy(), config=PlatformConfig(audit_events=True)
        )
        platform.fastswap.stats.offloaded_pages = 999  # corrupt
        platform.auditor.finalize(platform)
        assert not platform.auditor.clean
        assert "disagrees" in platform.auditor.report()
