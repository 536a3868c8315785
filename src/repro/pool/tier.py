"""Hierarchical, sharded memory pool: the swap datapath's data plane.

The paper's memory pool is one flat RDMA node; its §9 discussion (and
the memory-pool architectures it targets) assume richer topologies. A
:class:`TierTopology` describes a hierarchy below local DRAM — by
convention tier 1 is a CXL-style near pool (sub-µs fault, high
bandwidth, small capacity) and tier 2 the familiar 56 Gbps Fastswap
far pool — where each tier is sharded across multiple pool nodes.
Pages stripe deterministically across a tier's shards by region id,
and every shard owns its own capacity-tracked
:class:`~repro.pool.remote_pool.RemotePool` and contended
:class:`~repro.pool.link.Link`.

:class:`TieredPool` aggregates the shards behind the same read surface
as a single ``RemotePool`` (``used_pages``, ``peak_pages``,
``average_mib`` …) so platform summaries and the invariant auditor
work unchanged. The routing logic lives in
:class:`repro.pool.fastswap.Fastswap`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.errors import CapacityError
from repro.metrics.timeweighted import TimeWeightedAccumulator
from repro.pool.link import Link, LinkConfig
from repro.pool.remote_pool import RemotePool
from repro.units import mib_from_pages


@dataclass
class TierSpec:
    """One tier of the hierarchy.

    ``capacity_mib`` and ``link`` of ``None`` inherit the platform's
    ``pool_capacity_mib`` and link config, which is how the degenerate
    one-tier/one-shard topology reproduces the flat pool exactly.
    ``capacity_mib`` is the whole tier's capacity, split evenly across
    its shards.
    """

    name: str
    capacity_mib: Optional[float] = None
    shards: int = 1
    link: Optional[LinkConfig] = None

    def validate(self) -> None:
        if self.shards < 1:
            raise CapacityError(
                f"tier {self.name!r} needs at least one shard, got {self.shards}"
            )
        if self.capacity_mib is not None and self.capacity_mib <= 0:
            raise CapacityError(
                f"tier {self.name!r} capacity must be positive, got "
                f"{self.capacity_mib}"
            )


@dataclass
class TierTopology:
    """The full pool hierarchy plus its migration policy knobs.

    Tiers are ordered nearest first; tier levels are 1-based (tier 0
    is local DRAM). ``demote_after_s`` is the cold barrier: a page
    resident in a non-bottom tier longer than this without a recall is
    migrated one tier down by the background demotion daemon.
    ``far_direct_age_s`` (when set) sends pages whose last access is
    at least that old straight to the bottom tier at offload time —
    the page-temperature half of tier selection.
    """

    tiers: List[TierSpec] = field(default_factory=list)
    demote_after_s: float = 60.0
    demote_tick_s: float = 5.0
    demote_batch_mib: float = 64.0
    far_direct_age_s: Optional[float] = None

    def validate(self) -> None:
        if not self.tiers:
            raise CapacityError("topology needs at least one tier")
        for spec in self.tiers:
            spec.validate()
        if self.demote_after_s < 0:
            raise CapacityError(
                f"demote_after_s must be non-negative, got {self.demote_after_s}"
            )
        if self.demote_tick_s <= 0:
            raise CapacityError(
                f"demote_tick_s must be positive, got {self.demote_tick_s}"
            )
        if self.demote_batch_mib <= 0:
            raise CapacityError(
                f"demote_batch_mib must be positive, got {self.demote_batch_mib}"
            )

    @property
    def degenerate(self) -> bool:
        """One tier, one shard: indistinguishable from the flat pool."""
        return len(self.tiers) == 1 and self.tiers[0].shards == 1

    @classmethod
    def flat(cls) -> "TierTopology":
        """The provably-equivalent single-tier single-shard topology."""
        return cls(tiers=[TierSpec(name="pool")])

    @classmethod
    def cxl_rdma(
        cls,
        total_capacity_mib: float,
        near_share: float = 0.25,
        near_shards: int = 2,
        far_shards: int = 2,
        demote_after_s: float = 60.0,
        far_direct_age_s: Optional[float] = 300.0,
    ) -> "TierTopology":
        """CXL-near + RDMA-far hierarchy at a given total capacity."""
        if not 0.0 < near_share < 1.0:
            raise CapacityError(
                f"near_share must be in (0, 1), got {near_share}"
            )
        near_mib = total_capacity_mib * near_share
        far_mib = total_capacity_mib - near_mib
        return cls(
            tiers=[
                TierSpec(
                    name="cxl-near",
                    capacity_mib=near_mib,
                    shards=near_shards,
                    link=LinkConfig.cxl(),
                ),
                TierSpec(
                    name="rdma-far",
                    capacity_mib=far_mib,
                    shards=far_shards,
                    link=LinkConfig.infiniband_fdr(),
                ),
            ],
            demote_after_s=demote_after_s,
            far_direct_age_s=far_direct_age_s,
        )


class PoolShard:
    """One pool node: a capacity-tracked store behind its own link."""

    def __init__(
        self,
        clock: Callable[[], float],
        level: int,
        index: int,
        capacity_mib: float,
        link_config: LinkConfig,
        name: str,
        link_name: str = "",
    ) -> None:
        self.level = level
        self.index = index
        self.pool = RemotePool(clock, capacity_mib, name=name)
        self.link = Link(link_config, name=link_name)
        # Pages issued toward this shard whose write-out has not landed
        # yet; tier-pressure spill decisions count them so concurrent
        # in-flight offloads cannot oversubscribe a small near tier.
        self.pending_pages = 0

    def room_for(self, pages: int) -> bool:
        return (
            self.pool.used_pages + self.pending_pages + pages
            <= self.pool.capacity_pages
        )


class Tier:
    """An ordered shard group with deterministic page striping."""

    def __init__(self, level: int, name: str, shards: List[PoolShard]) -> None:
        self.level = level
        self.name = name
        self.shards = shards

    def shard_for(self, region_id: int) -> int:
        """Deterministic stripe: the shard index for a region id."""
        return region_id % len(self.shards)

    @property
    def used_pages(self) -> int:
        return sum(shard.pool.used_pages for shard in self.shards)

    @property
    def capacity_pages(self) -> int:
        return sum(shard.pool.capacity_pages for shard in self.shards)

    @property
    def lost_pages(self) -> int:
        return sum(shard.pool.lost_pages for shard in self.shards)


class TieredPool:
    """Every shard of every tier, plus a RemotePool-compatible view.

    Aggregate occupancy is tracked both as an exact integer and in a
    time-weighted accumulator, mirroring :class:`RemotePool`, so
    ``platform.pool`` can be a ``TieredPool`` without touching the
    summary or audit code paths. Internal tier-to-tier migrations
    change shard occupancies but not the aggregate.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        topology: TierTopology,
        default_capacity_mib: float,
        default_link: Optional[LinkConfig] = None,
    ) -> None:
        topology.validate()
        self.topology = topology
        self.degenerate = topology.degenerate
        self._clock = clock
        self.tiers: List[Tier] = []
        for i, spec in enumerate(topology.tiers):
            level = i + 1
            capacity = (
                spec.capacity_mib
                if spec.capacity_mib is not None
                else default_capacity_mib
            )
            per_shard = capacity / spec.shards
            link_config = (
                spec.link if spec.link is not None else (default_link or LinkConfig())
            )
            shards = []
            for j in range(spec.shards):
                if self.degenerate:
                    # Byte-identical to the flat pool: same pool name,
                    # same (empty) link name in trace subjects.
                    pool_name, link_name = "mempool-0", ""
                else:
                    pool_name = f"{spec.name}-{level}.{j}"
                    link_name = pool_name
                shards.append(
                    PoolShard(
                        clock, level, j, per_shard, link_config, pool_name, link_name
                    )
                )
            self.tiers.append(Tier(level, spec.name, shards))
        self.name = "mempool-0" if self.degenerate else "tiered-pool"
        self._usage = TimeWeightedAccumulator(start_time=clock(), value=0.0)
        self._used_pages = 0
        self.lost_pages = 0
        self.capacity_pages = sum(tier.capacity_pages for tier in self.tiers)

    # ------------------------------------------------------------------
    # Shard addressing
    # ------------------------------------------------------------------

    def shard(self, tier_index: int, shard_index: int) -> PoolShard:
        return self.tiers[tier_index].shards[shard_index]

    def all_shards(self) -> List[PoolShard]:
        return [shard for tier in self.tiers for shard in tier.shards]

    def links(self) -> List[Link]:
        return [shard.link for shard in self.all_shards()]

    # ------------------------------------------------------------------
    # Page accounting (called by Fastswap)
    # ------------------------------------------------------------------

    def store_at(self, tier_index: int, shard_index: int, pages: int) -> None:
        self.shard(tier_index, shard_index).pool.store(pages)
        self._used_pages += pages
        self._usage.add(self._clock(), pages)

    def release_at(self, tier_index: int, shard_index: int, pages: int) -> None:
        self.shard(tier_index, shard_index).pool.release(pages)
        self._used_pages -= pages
        self._usage.add(self._clock(), -pages)

    def drop_at(self, tier_index: int, shard_index: int, pages: int) -> None:
        self.shard(tier_index, shard_index).pool.drop(pages)
        self._used_pages -= pages
        self._usage.add(self._clock(), -pages)
        self.lost_pages += pages

    def migrate(
        self,
        src: Tuple[int, int],
        dst: Tuple[int, int],
        pages: int,
    ) -> None:
        """Move pages between shards; the aggregate does not change."""
        self.shard(*dst).pool.store(pages)
        self.shard(*src).pool.release(pages)

    # ------------------------------------------------------------------
    # RemotePool-compatible aggregate surface
    # ------------------------------------------------------------------

    @property
    def used_pages(self) -> int:
        return self._used_pages

    @property
    def used_mib(self) -> float:
        return mib_from_pages(self._used_pages)

    @property
    def free_pages(self) -> int:
        return self.capacity_pages - self._used_pages

    @property
    def peak_pages(self) -> int:
        return int(self._usage.peak)

    def average_pages(self, now: Optional[float] = None) -> float:
        return self._usage.average(now)

    def average_pages_between(self, start: float, end: float) -> float:
        return self._usage.average_between(start, end)

    def average_mib(self, now: Optional[float] = None) -> float:
        return mib_from_pages(self.average_pages(now))
