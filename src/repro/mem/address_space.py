"""Per-container address space split into lifecycle segments."""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from repro.errors import MemoryError_
from repro.mem.page import Location, PageRegion, Segment

RegionCallback = Callable[[PageRegion], None]


class AddressSpace:
    """All memory of one container, organised by segment.

    The address space is deliberately policy-agnostic: it tracks which
    regions exist, which are touched, and where they live, and notifies
    observers (cgroup accounting, offload policies) of allocations,
    touches and frees. It never decides anything.
    """

    def __init__(self, owner: str = "", ids: Optional[Iterator[int]] = None) -> None:
        self.owner = owner
        # Region-id sequence, shared by every cgroup on a compute node
        # (a standalone space numbers its own regions from 1).
        self._ids = ids if ids is not None else itertools.count(1)
        self._regions: Dict[int, PageRegion] = {}
        self._by_segment: Dict[Segment, List[PageRegion]] = {
            segment: [] for segment in Segment
        }
        self.on_alloc: List[RegionCallback] = []
        self.on_touch: List[RegionCallback] = []
        self.on_free: List[RegionCallback] = []

    # ------------------------------------------------------------------
    # Allocation / deallocation
    # ------------------------------------------------------------------

    def allocate(
        self,
        name: str,
        segment: Segment,
        pages: int,
        now: float,
        touched: bool = True,
    ) -> PageRegion:
        """Allocate a region; newly allocated pages are local.

        ``touched`` mirrors reality: an allocation is normally written
        immediately, which sets its Access bit.
        """
        region = PageRegion(
            name=name,
            segment=segment,
            pages=pages,
            allocated_at=now,
            region_id=next(self._ids),
        )
        if touched:
            region.touch(now)
        self._insert(region)
        for callback in self.on_alloc:
            callback(region)
        return region

    def split(self, region: PageRegion, pages: int) -> PageRegion:
        """Carve ``pages`` pages off ``region`` into a new live region."""
        sibling = region.split(pages, region_id=next(self._ids))
        self._insert(sibling)
        return sibling

    def free(self, region: PageRegion) -> None:
        """Release a region (e.g. exec scratch at request completion)."""
        if region.region_id not in self._regions:
            raise MemoryError_(f"free of unknown region {region.name!r}")
        del self._regions[region.region_id]
        self._by_segment[region.segment].remove(region)
        region.mark_freed()
        for callback in self.on_free:
            callback(region)

    def free_segment(self, segment: Segment) -> int:
        """Free every region in ``segment``; return pages released."""
        released = 0
        for region in list(self._by_segment[segment]):
            released += region.pages
            self.free(region)
        return released

    def free_all(self) -> int:
        """Free everything (container reclaim); return pages released."""
        released = 0
        for segment in Segment:
            released += self.free_segment(segment)
        return released

    def _insert(self, region: PageRegion) -> None:
        self._regions[region.region_id] = region
        self._by_segment[region.segment].append(region)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def touch(self, region: PageRegion, now: float) -> None:
        """Record a CPU access to ``region`` and notify observers.

        Touching a remote region does *not* migrate it — the swap
        datapath (:mod:`repro.pool.fastswap`) owns migration; callers
        are expected to fault the region in first and account the
        latency.
        """
        if region.region_id not in self._regions:
            raise MemoryError_(f"touch of unknown region {region.name!r}")
        region.touch(now)
        for callback in self.on_touch:
            callback(region)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def regions(self, segment: Optional[Segment] = None) -> Iterator[PageRegion]:
        """Iterate live regions, optionally restricted to one segment."""
        if segment is None:
            # Iterate in allocation order for determinism.
            yield from sorted(self._regions.values(), key=lambda r: r.region_id)
        else:
            yield from list(self._by_segment[segment])

    def get(self, region_id: int) -> PageRegion:
        """Look a region up by id."""
        try:
            return self._regions[region_id]
        except KeyError:
            raise MemoryError_(f"no region with id {region_id}") from None

    def find(self, name: str, segment: Optional[Segment] = None) -> List[PageRegion]:
        """Return live regions whose name matches exactly."""
        return [r for r in self.regions(segment) if r.name == name]

    def pages(
        self,
        segment: Optional[Segment] = None,
        location: Optional[Location] = None,
    ) -> int:
        """Total pages, optionally filtered by segment and location."""
        total = 0
        for region in self.regions(segment):
            if location is None or region.location is location:
                total += region.pages
        return total

    @property
    def local_pages(self) -> int:
        """Pages currently resident in node DRAM."""
        return self.pages(location=Location.LOCAL)

    @property
    def remote_pages(self) -> int:
        """Pages currently offloaded to the pool."""
        return self.pages(location=Location.REMOTE)

    @property
    def total_pages(self) -> int:
        """All live pages regardless of location."""
        return self.pages()

    def __len__(self) -> int:
        return len(self._regions)

    def __contains__(self, region: PageRegion) -> bool:
        return region.region_id in self._regions


def total_pages(regions: Iterable[PageRegion]) -> int:
    """Sum the page counts of an iterable of regions."""
    return sum(region.pages for region in regions)
