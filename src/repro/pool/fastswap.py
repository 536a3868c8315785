"""Fastswap-style swap datapath between node DRAM and the pool.

Mirrors the two paths the paper ports onto Linux 6.1 (§7):

* **page-out** (:meth:`Fastswap.offload`) — asynchronous: the pipe is
  reserved, and the pages leave local DRAM when the write-out
  completes. A region touched while its write-out is in flight has
  its offload aborted, like the kernel skipping a re-dirtied page.
* **page-in** (:meth:`Fastswap.fault`) — synchronous: a request that
  touches remote pages stalls for the queueing + transfer time, which
  the caller adds to its service time.

The pool is a :class:`~repro.pool.tier.TieredPool`. The paper's one
RDMA node behind one link is its shallowest case,
:meth:`TierTopology.flat() <repro.pool.tier.TierTopology.flat>`.
Deeper hierarchies route each region to a (tier, shard) pair:

* **Tier selection** — offloads target the nearest tier by default;
  pages whose last access is older than the topology's
  ``far_direct_age_s`` go straight to the bottom tier (temperature),
  and policies can force a tier with ``tier_hint`` ("near"/"far").
* **Spill** — a tier whose stripe shard is full (counting in-flight
  write-outs) spills the page one tier down, emitting one
  ``tier.spill`` event per single-level step so the auditor can check
  legality.
* **Promotion** — a page-in recalls the page from whichever tier holds
  it directly into local DRAM.
* **Demotion** — a background daemon migrates pages resident in a
  non-bottom tier for longer than ``demote_after_s`` one tier down,
  a bounded batch per tick, oldest first.

A one-tier/one-shard pool keeps no per-tier ledgers
(``tier_stats is None``), emits no ``tier.*`` events and never arms
the daemon, so its trace is the flat single-node pool's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import MemoryError_
from repro.mem.cgroup import Cgroup
from repro.mem.page import PageRegion
from repro.obs.trace import EventKind
from repro.pool.link import Link, LinkDirection
from repro.pool.tier import TieredPool
from repro.sim.engine import Engine
from repro.sim.process import PeriodicTask
from repro.units import PAGE_SIZE, MIB, pages_from_mib


@dataclass
class FastswapConfig:
    """Datapath cost knobs.

    ``fault_cpu_per_page_s`` is the kernel swap-in CPU work per page
    (pagefault, RDMA doorbell, page-table fixup). It is divided by the
    faulting container's CPU share: a 0.1-core container handles
    faults 10x slower, which is why sampling-based offloading hurts
    micro-benchmarks the most (Fig. 2).
    """

    fault_cpu_per_page_s: float = 8e-6


@dataclass
class SwapStats:
    """Cumulative datapath statistics.

    The counters satisfy a conservation identity the invariant auditor
    (:mod:`repro.obs.audit`) checks continuously::

        offloaded_pages == recalled_pages + remote_freed_pages
                           + remote_lost_pages
                           + remote-resident pages (== pool usage)

    ``remote_lost_pages`` counts pages destroyed by injected pool-node
    crashes (:mod:`repro.faults`); it stays zero in fault-free runs.
    Every counter is monotonically non-decreasing; derived balances
    (:attr:`remote_resident_pages`) must never go negative.
    """

    offloaded_pages: int = 0
    recalled_pages: int = 0
    remote_freed_pages: int = 0
    remote_lost_pages: int = 0
    aborted_offloads: int = 0
    suppressed_offloads: int = 0
    offload_ops: int = 0
    fault_ops: int = 0

    @property
    def offloaded_mib(self) -> float:
        return self.offloaded_pages * PAGE_SIZE / MIB

    @property
    def recalled_mib(self) -> float:
        return self.recalled_pages * PAGE_SIZE / MIB

    @property
    def remote_resident_pages(self) -> int:
        """Pages currently parked in the pool, by conservation."""
        return (
            self.offloaded_pages
            - self.recalled_pages
            - self.remote_freed_pages
            - self.remote_lost_pages
        )

    def check_conservation(self, pool_used_pages: int) -> None:
        """Raise if the conservation identity does not hold."""
        for name in ("offloaded_pages", "recalled_pages", "remote_freed_pages",
                     "remote_lost_pages", "aborted_offloads",
                     "suppressed_offloads", "offload_ops", "fault_ops"):
            value = getattr(self, name)
            if value < 0:
                raise MemoryError_(f"SwapStats.{name} went negative: {value}")
        if self.remote_resident_pages < 0:
            raise MemoryError_(
                f"swap conservation broken: offloaded={self.offloaded_pages} < "
                f"recalled={self.recalled_pages} + freed={self.remote_freed_pages} "
                f"+ lost={self.remote_lost_pages}"
            )
        if self.remote_resident_pages != pool_used_pages:
            raise MemoryError_(
                f"swap conservation broken: remote-resident balance "
                f"{self.remote_resident_pages} != pool usage {pool_used_pages}"
            )


@dataclass
class TierLedger:
    """Cumulative page flow through one tier (audited per level).

    The per-tier conservation identity generalises the flat swap law::

        placed + demoted_in == recalled + freed + lost + demoted_out
                               + resident (== shard pool usage summed)
    """

    placed: int = 0
    demoted_in: int = 0
    recalled: int = 0
    freed: int = 0
    lost: int = 0
    demoted_out: int = 0
    spills: int = 0

    @property
    def resident(self) -> int:
        return (
            self.placed
            + self.demoted_in
            - self.recalled
            - self.freed
            - self.lost
            - self.demoted_out
        )


class _Residence:
    """Where one remote region's pages live right now."""

    __slots__ = ("tier_index", "shard_index", "region", "placed_at")

    def __init__(
        self, tier_index: int, shard_index: int, region: PageRegion, placed_at: float
    ) -> None:
        self.tier_index = tier_index
        self.shard_index = shard_index
        self.region = region
        self.placed_at = placed_at


class Fastswap:
    """The swap datapath shared by every policy in the library."""

    def __init__(
        self,
        engine: Engine,
        pool: TieredPool,
        config: Optional[FastswapConfig] = None,
    ) -> None:
        self.engine = engine
        self.pool = pool
        # The representative link (nearest tier, shard 0): what the
        # bandwidth monitor throttles against and what single-link
        # call sites observe.
        self.link = pool.tiers[0].shards[0].link
        self.config = config or FastswapConfig()
        self.stats = SwapStats()
        self._per_cgroup_offloaded: Dict[str, int] = {}
        self._per_cgroup_recalled: Dict[str, int] = {}
        # Optional repro.obs.Tracer; None keeps the datapath untraced.
        self.tracer = None
        # Optional repro.faults.FaultInjector; None keeps the datapath
        # fault-free (a single ``is not None`` check per operation).
        self.injector = None
        self._cgroups: List[Cgroup] = []
        # Region ids whose remote pages were destroyed by a pool-node
        # crash: their pool pages are already accounted in
        # ``remote_lost_pages``, so later frees/recalls must not
        # release or transfer them again.
        self._lost_region_ids: set = set()
        self._bottom = len(pool.tiers) - 1
        # region_id -> (tier_index, shard_index, pending_pages) chosen
        # at issue time; moved to _residence when the write-out lands.
        self._routes: Dict[int, tuple] = {}
        self._residence: Dict[int, _Residence] = {}
        # Per-tier ledgers, keyed by level. The one-tier/one-shard pool
        # is the flat pool: it keeps none (the tiering experiment's flat
        # row reports no near-tier pages) and emits no tier.* events.
        self.tier_stats: Optional[Dict[int, TierLedger]] = (
            None
            if pool.degenerate
            else {tier.level: TierLedger() for tier in pool.tiers}
        )
        self.demotions = 0
        self._daemon: Optional[PeriodicTask] = None

    def attach(self, cgroup: Cgroup) -> None:
        """Wire a cgroup so freeing remote regions releases pool pages."""
        cgroup.on_remote_freed.append(self._handle_remote_freed)
        self._cgroups.append(cgroup)

    def attached_cgroups(self) -> List[Cgroup]:
        """Every cgroup ever attached (pool-crash loss enumeration)."""
        return list(self._cgroups)

    def links(self) -> List[Link]:
        """Every link the datapath may transfer over."""
        return self.pool.links()

    def resident_regions(self, tier_index: int, shard_index: int) -> List[PageRegion]:
        """Regions currently resident on one shard (tests/debugging)."""
        return [
            placement.region
            for placement in self._residence.values()
            if placement.tier_index == tier_index
            and placement.shard_index == shard_index
        ]

    @property
    def suspended(self) -> bool:
        """Whether the offload path is in local-only fallback.

        True while the link is down or the circuit breaker refuses
        traffic. Policies consult this before picking victims; the
        datapath additionally suppresses any offload issued while
        suspended (counted in ``suppressed_offloads``).
        """
        if self.injector is None:
            return False
        return (not self.link.up) or (not self.injector.breaker.allow(self.engine.now))

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _target_tier_index(
        self, region: PageRegion, tier_hint: Optional[str]
    ) -> int:
        if tier_hint == "far":
            return self._bottom
        if tier_hint == "near":
            return 0
        age_bar = self.pool.topology.far_direct_age_s
        if age_bar is not None and region.last_access is not None:
            if self.engine.now - region.last_access >= age_bar:
                # Page temperature: long-cold pages skip the near tier.
                return self._bottom
        return 0

    def _route(self, region: PageRegion, tier_hint: Optional[str] = None) -> tuple:
        """The (tier, shard, pending pages) a write-out of ``region`` targets."""
        route = self._routes.get(region.region_id)
        if route is not None:
            return route
        tiers = self.pool.tiers
        tier_index = self._target_tier_index(region, tier_hint)
        while tier_index < self._bottom:
            tier = tiers[tier_index]
            shard = tier.shards[tier.shard_for(region.region_id)]
            if shard.room_for(region.pages):
                break
            # Tier pressure: the stripe shard is full (counting
            # in-flight write-outs), so the page spills one tier down.
            self.tier_stats[tier.level].spills += 1
            if self.tracer is not None:
                self.tracer.emit(
                    EventKind.TIER_SPILL,
                    region.name,
                    from_tier=tier.level,
                    to_tier=tier.level + 1,
                    region=region.region_id,
                    pages=region.pages,
                )
            tier_index += 1
        tier = tiers[tier_index]
        shard_index = tier.shard_for(region.region_id)
        route = (tier_index, shard_index, region.pages)
        self._routes[region.region_id] = route
        tier.shards[shard_index].pending_pages += region.pages
        return route

    def _unroute(self, region: PageRegion) -> Optional[Tuple[int, int]]:
        """Forget ``region``'s issue-time route; return its (tier, shard)."""
        route = self._routes.pop(region.region_id, None)
        if route is None:
            return None
        tier_index, shard_index, pending = route
        shard = self.pool.shard(tier_index, shard_index)
        shard.pending_pages = max(0, shard.pending_pages - pending)
        return tier_index, shard_index

    def _account(
        self,
        field: str,
        kind: EventKind,
        subject: str,
        placement: _Residence,
        region: PageRegion,
    ) -> None:
        """Add ``region``'s pages to one tier ledger; emit its tier.* event."""
        if self.tier_stats is None:
            return
        level = self.pool.tiers[placement.tier_index].level
        ledger = self.tier_stats[level]
        setattr(ledger, field, getattr(ledger, field) + region.pages)
        if self.tracer is not None:
            self.tracer.emit(
                kind,
                subject,
                tier=level,
                shard=placement.shard_index,
                region=region.region_id,
                pages=region.pages,
            )

    # Pool-crash domains (repro.faults): one per (tier, shard) pool
    # node, so the injector can fail a single node.

    def crash_domains(self) -> List[Tuple[int, int]]:
        """Independent pool-node failure domains."""
        return [
            (tier_index, shard_index)
            for tier_index, tier in enumerate(self.pool.tiers)
            for shard_index in range(len(tier.shards))
        ]

    def regions_in_domain(
        self, cgroup: Cgroup, domain: Tuple[int, int]
    ) -> List[PageRegion]:
        """Live remote regions of ``cgroup`` resident in ``domain``."""
        out = []
        for region in cgroup.remote_regions():
            placement = self._residence.get(region.region_id)
            if (
                not region.freed
                and placement is not None
                and (placement.tier_index, placement.shard_index) == domain
            ):
                out.append(region)
        return out

    def drop_pool(self, domain: Tuple[int, int], pages: int) -> None:
        """Destroy ``pages`` pages in the crashed domain's pool."""
        self.pool.drop_at(*domain, pages)

    def domain_pool_name(self, domain: Tuple[int, int]) -> str:
        """Display name of the crashed pool node."""
        return self.pool.shard(*domain).pool.name

    # ------------------------------------------------------------------
    # Page-out
    # ------------------------------------------------------------------

    def offload(
        self,
        cgroup: Cgroup,
        regions: Iterable[PageRegion],
        tier_hint: Optional[str] = None,
    ) -> float:
        """Asynchronously write regions out to the pool.

        Returns the completion time of the last write-out. Regions that
        get touched before their write-out completes are skipped
        (abort), matching kernel swap semantics. ``tier_hint``
        ("near"/"far") lets policies steer a tiered pool; a one-tier
        pool ignores it.
        """
        completion = self.engine.now
        if self.suspended:
            # Local-only fallback: the link is down or the breaker is
            # open. The regions simply stay local; policy ledgers
            # reconcile exactly as they do for aborted offloads.
            for region in regions:
                if region.freed or region.is_remote:
                    continue
                self.stats.suppressed_offloads += 1
                if self.tracer is not None:
                    self.tracer.emit(
                        EventKind.OFFLOAD_SUPPRESSED,
                        cgroup.name,
                        region=region.region_id,
                        pages=region.pages,
                    )
            return completion
        for region in regions:
            if region.freed or region.is_remote:
                continue
            issue_access_count = region.access_count
            issue_pages = region.pages
            tier_index, shard_index, _ = self._route(region, tier_hint)
            _, completion = self.pool.shard(tier_index, shard_index).link.transfer(
                self.engine.now, issue_pages, LinkDirection.OUT
            )
            self.engine.schedule_at(
                completion,
                lambda r=region, c=cgroup, a=issue_access_count, p=issue_pages: (
                    self._complete_offload(c, r, a, p)
                ),
                name=f"offload:{region.name}",
            )
            self.stats.offload_ops += 1
            if self.tracer is not None:
                self.tracer.emit(
                    EventKind.OFFLOAD_ISSUE,
                    cgroup.name,
                    region=region.region_id,
                    pages=issue_pages,
                )
        return completion

    def _complete_offload(
        self,
        cgroup: Cgroup,
        region: PageRegion,
        issue_access_count: int,
        issue_pages: int,
    ) -> None:
        reason = ""
        if region.freed:
            reason = "freed"
        elif region.is_remote:
            reason = "already-remote"
        elif region.access_count != issue_access_count:
            # Re-dirtied while the write-out was in flight: abort.
            reason = "re-dirtied"
        elif region.pages != issue_pages:
            # Partially cancelled: the region was split while its
            # write-out was in flight, so the written-out image no
            # longer matches the region. Abort rather than account
            # pages that were never transferred.
            reason = "resized"
        else:
            tier_index, shard_index, _ = self._route(region)
            if region.pages > self.pool.shard(tier_index, shard_index).pool.free_pages:
                # The shard filled up while the write-out was in
                # flight: the store bounces and the pages stay local,
                # like a swap-out failing against a full swap device.
                reason = "pool-full"
        if reason:
            self._unroute(region)
            self.stats.aborted_offloads += 1
            if self.tracer is not None:
                self.tracer.emit(
                    EventKind.OFFLOAD_ABORT,
                    cgroup.name,
                    region=region.region_id,
                    pages=issue_pages,
                    reason=reason,
                )
            return
        self._land(cgroup, region)

    def _land(self, cgroup: Cgroup, region: PageRegion) -> None:
        """Account a finished write-out in its routed shard."""
        tier_index, shard_index = self._unroute(region)
        self.pool.store_at(tier_index, shard_index, region.pages)
        placement = _Residence(tier_index, shard_index, region, self.engine.now)
        self._residence[region.region_id] = placement
        self._account("placed", EventKind.TIER_PLACE, cgroup.name, placement, region)
        if tier_index < self._bottom:
            self._kick_daemon()
        cgroup.mark_offloaded(region)
        self.stats.offloaded_pages += region.pages
        self._per_cgroup_offloaded[cgroup.name] = (
            self._per_cgroup_offloaded.get(cgroup.name, 0) + region.pages
        )
        if self.tracer is not None:
            self.tracer.emit(
                EventKind.OFFLOAD_COMPLETE,
                cgroup.name,
                region=region.region_id,
                pages=region.pages,
            )

    def writeback(
        self,
        cgroup: Cgroup,
        regions: Iterable[PageRegion],
        tier_hint: Optional[str] = None,
    ) -> Tuple[List[PageRegion], float]:
        """Synchronously write regions out (direct-reclaim page-out).

        Unlike :meth:`offload`, the pages leave local DRAM immediately
        — the caller (the pressure governor) is stalling an allocation
        on this reclaim, so there is no in-flight window to re-dirty.
        Returns ``(regions moved, completion time of the last
        transfer)``; the caller charges ``completion - now`` to the
        faulting request. Suspended datapaths move nothing.
        """
        if self.suspended:
            return [], self.engine.now
        moved: List[PageRegion] = []
        completion = self.engine.now
        for region in regions:
            if region.freed or region.is_remote:
                continue
            tier_index, shard_index, _ = self._route(region, tier_hint)
            shard = self.pool.shard(tier_index, shard_index)
            if region.pages > shard.pool.free_pages:
                # Full shard: skip, like a swap-out bouncing off a full
                # swap device. The governor falls through to OOM.
                self._unroute(region)
                continue
            _, completion = shard.link.transfer(
                self.engine.now, region.pages, LinkDirection.OUT
            )
            self.stats.offload_ops += 1
            if self.tracer is not None:
                self.tracer.emit(
                    EventKind.OFFLOAD_ISSUE,
                    cgroup.name,
                    region=region.region_id,
                    pages=region.pages,
                )
            self._land(cgroup, region)
            moved.append(region)
        return moved, completion

    # ------------------------------------------------------------------
    # Page-in
    # ------------------------------------------------------------------

    def fault(
        self,
        cgroup: Cgroup,
        regions: Iterable[PageRegion],
        cpu_share: float = 1.0,
    ) -> float:
        """Synchronously fetch remote regions; return the stall time.

        All listed regions become local immediately (the caller then
        touches them); the returned latency covers queueing behind
        in-flight recalls, wire time, and per-page fault CPU work
        scaled by the container's ``cpu_share``.
        """
        if cpu_share <= 0:
            raise MemoryError_(f"cpu_share must be positive, got {cpu_share}")
        # Fault-injection retry loop: timeouts, backoff and outage
        # waits accrue before the transfer is issued. With no injector
        # attached, issue_at is exactly engine.now.
        retry_stall = 0.0
        issue_at = self.engine.now
        if self.injector is not None:
            retry_stall = self.injector.page_in_penalty(cgroup.name)
            issue_at = self.engine.now + retry_stall
        total_pages = 0
        completion = issue_at
        for region in regions:
            if region.freed:
                raise MemoryError_(f"fault on freed region {region.name!r}")
            if region.is_local:
                continue
            if region.region_id in self._lost_region_ids:
                # The pool lost this page image in a node crash; it is
                # re-materialized locally (the disk-image re-read a
                # restarted container performs). Its pool pages are
                # already accounted in remote_lost_pages, so there is
                # no transfer and no recall to count.
                self._lost_region_ids.discard(region.region_id)
                cgroup.mark_fetched(region)
                continue
            placement = self._residence.pop(region.region_id)
            _, completion = self.pool.shard(
                placement.tier_index, placement.shard_index
            ).link.transfer(issue_at, region.pages, LinkDirection.IN)
            self.pool.release_at(
                placement.tier_index, placement.shard_index, region.pages
            )
            self._account(
                "recalled", EventKind.TIER_RECALL, cgroup.name, placement, region
            )
            self._kick_daemon()
            cgroup.mark_fetched(region)
            total_pages += region.pages
            self.stats.fault_ops += 1
            if self.tracer is not None:
                self.tracer.emit(
                    EventKind.RECALL,
                    cgroup.name,
                    region=region.region_id,
                    pages=region.pages,
                )
        if total_pages == 0:
            return retry_stall
        self.stats.recalled_pages += total_pages
        self._per_cgroup_recalled[cgroup.name] = (
            self._per_cgroup_recalled.get(cgroup.name, 0) + total_pages
        )
        wire_stall = max(0.0, completion - self.engine.now)
        cpu_stall = total_pages * self.config.fault_cpu_per_page_s / cpu_share
        if self.injector is not None:
            self.injector.note_page_in_success()
        return wire_stall + cpu_stall

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def _handle_remote_freed(self, region: PageRegion) -> None:
        if region.region_id in self._lost_region_ids:
            # The pool pages behind this region were destroyed by a
            # node crash and already accounted in remote_lost_pages;
            # there is nothing left to release.
            self._lost_region_ids.discard(region.region_id)
            return
        placement = self._residence.pop(region.region_id)
        self.pool.release_at(
            placement.tier_index, placement.shard_index, region.pages
        )
        self._account("freed", EventKind.TIER_FREE, region.name, placement, region)
        self._kick_daemon()
        self.stats.remote_freed_pages += region.pages
        if self.tracer is not None:
            self.tracer.emit(
                EventKind.REMOTE_FREED,
                region.name,
                region=region.region_id,
                pages=region.pages,
            )

    def declare_lost(self, cgroup: Cgroup, regions: Iterable[PageRegion]) -> int:
        """Mark remote regions destroyed by a pool-node crash.

        Returns the number of pages newly declared lost. The caller
        (the fault injector) drops the same count from the pool, so
        conservation holds: the pages move from the remote-resident
        balance into ``remote_lost_pages``.
        """
        total = 0
        for region in regions:
            if (
                region.freed
                or region.is_local
                or region.region_id in self._lost_region_ids
            ):
                continue
            self._lost_region_ids.add(region.region_id)
            self.stats.remote_lost_pages += region.pages
            total += region.pages
            if self.tracer is not None:
                self.tracer.emit(
                    EventKind.PAGE_LOST,
                    cgroup.name,
                    region=region.region_id,
                    pages=region.pages,
                )
            placement = self._residence.pop(region.region_id, None)
            if placement is not None:
                self._account("lost", EventKind.TIER_LOST, cgroup.name, placement, region)
        return total

    def offloaded_pages_of(self, cgroup_name: str) -> int:
        return self._per_cgroup_offloaded.get(cgroup_name, 0)

    def recalled_pages_of(self, cgroup_name: str) -> int:
        return self._per_cgroup_recalled.get(cgroup_name, 0)

    # ------------------------------------------------------------------
    # Background demotion daemon
    # ------------------------------------------------------------------

    def _kick_daemon(self) -> None:
        """(Re)arm the demotion ticker if there is anything to demote.

        Re-kicked on recalls/frees too: those open room in lower tiers
        that may unblock a previously-stuck demotion.
        """
        if self._bottom == 0 or self._daemon is not None:
            return
        if any(p.tier_index < self._bottom for p in self._residence.values()):
            self._daemon = PeriodicTask(
                self.engine,
                self.pool.topology.demote_tick_s,
                self._demote_tick,
                name="tier:demote",
            )

    def _stop_daemon(self) -> None:
        if self._daemon is not None:
            self._daemon.stop()
            self._daemon = None

    def _demote_tick(self) -> None:
        now = self.engine.now
        topology = self.pool.topology
        upper = [
            p for p in self._residence.values() if p.tier_index < self._bottom
        ]
        if not upper:
            self._stop_daemon()
            return
        if self.suspended:
            # Interconnect outage / open breaker: pause, keep ticking.
            return
        ripe = sorted(
            (p for p in upper if now - p.placed_at >= topology.demote_after_s),
            key=lambda p: (p.placed_at, p.region.region_id),
        )
        budget = pages_from_mib(topology.demote_batch_mib)
        progressed = False
        for placement in ripe:
            if budget <= 0:
                break
            region = placement.region
            pages = region.pages
            dst_tier_index = placement.tier_index + 1
            dst_tier = self.pool.tiers[dst_tier_index]
            dst_shard_index = dst_tier.shard_for(region.region_id)
            dst_shard = dst_tier.shards[dst_shard_index]
            if not dst_shard.room_for(pages):
                # Destination full: the page stays put; a later recall
                # or free below re-kicks the daemon.
                continue
            src_level = self.pool.tiers[placement.tier_index].level
            dst_shard.link.transfer(now, pages, LinkDirection.OUT)
            self.pool.migrate(
                (placement.tier_index, placement.shard_index),
                (dst_tier_index, dst_shard_index),
                pages,
            )
            self.tier_stats[src_level].demoted_out += pages
            self.tier_stats[dst_tier.level].demoted_in += pages
            self.demotions += 1
            if self.tracer is not None:
                self.tracer.emit(
                    EventKind.TIER_DEMOTE,
                    region.name,
                    from_tier=src_level,
                    to_tier=dst_tier.level,
                    shard=dst_shard_index,
                    region=region.region_id,
                    pages=pages,
                )
            placement.tier_index = dst_tier_index
            placement.shard_index = dst_shard_index
            placement.placed_at = now
            budget -= pages
            progressed = True
        if not progressed and all(
            now - p.placed_at >= topology.demote_after_s for p in upper
        ):
            # Every upper-tier page is ripe but blocked on full lower
            # tiers; ticking again changes nothing. Recalls and frees
            # re-kick the daemon when room opens up.
            self._stop_daemon()
