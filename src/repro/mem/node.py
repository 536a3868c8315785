"""Compute-node local memory accounting."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import CapacityError
from repro.metrics.timeweighted import TimeWeightedAccumulator
from repro.units import mib_from_pages, pages_from_mib


@dataclass(frozen=True)
class Watermarks:
    """Zone watermarks, in **free** pages (kernel convention).

    ``free < low_pages`` wakes the background reclaimer; an allocation
    that would leave ``free < min_pages`` triggers synchronous direct
    reclaim; the reclaimer rests once ``free >= high_pages``.
    """

    min_pages: int
    low_pages: int
    high_pages: int

    def __post_init__(self) -> None:
        if not 0 <= self.min_pages <= self.low_pages <= self.high_pages:
            raise CapacityError(
                f"watermarks must satisfy 0 <= min <= low <= high, got "
                f"min={self.min_pages} low={self.low_pages} high={self.high_pages}"
            )


class ComputeNode:
    """Tracks the aggregate local DRAM footprint of all containers.

    The node integrates local usage over time (the paper's "average
    local memory usage" metric) and can optionally enforce a hard
    capacity, raising :class:`CapacityError` on overflow — useful for
    density experiments.

    A memory-pressure governor may install :class:`Watermarks` plus
    reclaim hooks: allocations that would breach the *min* watermark
    first stall in the direct-reclaim hook, and any allocation landing
    below the *low* watermark pings the low-watermark hook. Without a
    governor both are ``None`` and ``add_local`` behaves as before,
    except that over-capacity growth is now counted in
    :attr:`overcommit_events` instead of passing silently.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        capacity_mib: float = 64 * 1024,
        strict: bool = False,
        name: str = "compute-0",
    ) -> None:
        if capacity_mib <= 0:
            raise CapacityError(f"capacity must be positive, got {capacity_mib}")
        self.name = name
        self._clock = clock
        # The node's region-id sequence: every cgroup's address space
        # draws from it, so a platform's ids start at 1.
        self.region_ids = itertools.count(1)
        self.capacity_pages = pages_from_mib(capacity_mib)
        self.strict = strict
        self._usage = TimeWeightedAccumulator(start_time=clock(), value=0.0)
        self.watermarks: Optional[Watermarks] = None
        self.overcommit_events = 0
        self._direct_reclaim: Optional[Callable[[int, Optional[str]], int]] = None
        self._on_low_watermark: Optional[Callable[[], None]] = None

    @property
    def local_pages(self) -> int:
        """Pages currently resident in node DRAM."""
        return int(self._usage.value)

    @property
    def local_mib(self) -> float:
        return mib_from_pages(self.local_pages)

    @property
    def peak_pages(self) -> int:
        return int(self._usage.peak)

    @property
    def free_pages(self) -> int:
        return self.capacity_pages - self.local_pages

    def set_watermarks(self, watermarks: Optional[Watermarks]) -> None:
        """Install (or clear) pressure watermarks."""
        if watermarks is not None and watermarks.high_pages > self.capacity_pages:
            raise CapacityError(
                f"node {self.name}: high watermark {watermarks.high_pages} exceeds "
                f"capacity {self.capacity_pages}"
            )
        self.watermarks = watermarks

    def install_pressure_hooks(
        self,
        direct_reclaim: Optional[Callable[[int, Optional[str]], int]],
        on_low_watermark: Optional[Callable[[], None]],
    ) -> None:
        """Install governor callbacks.

        ``direct_reclaim(needed_pages, owner)`` must synchronously free
        memory and return the page count actually freed;
        ``on_low_watermark()`` is pinged after any allocation that
        leaves free pages below the low watermark.
        """
        self._direct_reclaim = direct_reclaim
        self._on_low_watermark = on_low_watermark

    def add_local(self, pages: int, owner: Optional[str] = None) -> None:
        """Account ``pages`` newly resident pages.

        ``owner`` names the cgroup on whose behalf the allocation is
        made, so a governor can charge direct-reclaim stalls to the
        faulting request.
        """
        if pages < 0:
            raise ValueError(f"pages must be non-negative, got {pages}")
        watermarks = self.watermarks
        if (
            watermarks is not None
            and self._direct_reclaim is not None
            and self.free_pages - pages < watermarks.min_pages
        ):
            needed = watermarks.min_pages - (self.free_pages - pages)
            self._direct_reclaim(needed, owner)
        if self.local_pages + pages > self.capacity_pages:
            if self.strict:
                raise CapacityError(
                    f"node {self.name}: allocating {pages} pages exceeds capacity "
                    f"({self.local_pages}/{self.capacity_pages})"
                )
            # Non-strict nodes still over-commit (the pre-governor
            # regime many experiments rely on) but no longer silently:
            # the auditor flags any overcommit under an enforcing
            # governor.
            self.overcommit_events += 1
        self._usage.add(self._clock(), pages)
        if (
            watermarks is not None
            and self._on_low_watermark is not None
            and self.free_pages < watermarks.low_pages
        ):
            self._on_low_watermark()

    def sub_local(self, pages: int) -> None:
        """Account ``pages`` pages leaving local DRAM (free or offload)."""
        if pages < 0:
            raise ValueError(f"pages must be non-negative, got {pages}")
        if pages > self.local_pages:
            raise ValueError(
                f"node {self.name}: releasing {pages} pages but only "
                f"{self.local_pages} resident"
            )
        self._usage.add(self._clock(), -pages)

    def average_pages(self, now: Optional[float] = None) -> float:
        """Time-weighted average local pages over the run so far."""
        return self._usage.average(now)

    def average_pages_between(self, start: float, end: float) -> float:
        """Time-weighted average local pages over [start, end]."""
        return self._usage.average_between(start, end)

    def peak_pages_between(self, start: float, end: float) -> float:
        """Maximum local pages within [start, end]."""
        return self._usage.peak_between(start, end)

    def average_mib(self, now: Optional[float] = None) -> float:
        return self.average_pages(now) * 4096 / (1024 * 1024)

    def usage_samples(self):
        """(time, pages) change points of local usage."""
        return self._usage.samples
