"""Unit tests for page regions."""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.errors import MemoryError_
from repro.mem.address_space import AddressSpace
from repro.mem.page import Location, PageRegion, Segment

_IDS = itertools.count(1)


def region(pages=10, segment=Segment.INIT, name="r"):
    return PageRegion(name=name, segment=segment, pages=pages, region_id=next(_IDS))


class TestConstruction:
    def test_defaults_local_untouched(self):
        r = region()
        assert r.is_local and not r.is_remote
        assert not r.accessed
        assert r.access_count == 0

    def test_zero_pages_rejected(self):
        with pytest.raises(MemoryError_):
            region(pages=0)

    def test_negative_pages_rejected(self):
        with pytest.raises(MemoryError_):
            region(pages=-5)

    def test_unique_ids(self):
        space = AddressSpace()
        a = space.allocate("a", Segment.INIT, 2, now=0.0)
        b = space.allocate("b", Segment.INIT, 1, now=0.0)
        sibling = space.split(a, 1)
        assert len({a.region_id, b.region_id, sibling.region_id}) == 3

    def test_mib_property(self):
        assert region(pages=256).mib == 1.0


class TestTouch:
    def test_touch_sets_access_bit_and_counters(self):
        r = region()
        r.touch(now=3.0)
        assert r.accessed
        assert r.last_access == 3.0
        assert r.access_count == 1

    def test_touch_freed_region_rejected(self):
        r = region()
        r.mark_freed()
        with pytest.raises(MemoryError_):
            r.touch(1.0)

    def test_clear_access_bit_reports_prior_state(self):
        r = region()
        assert r.clear_access_bit() is False
        r.touch(1.0)
        assert r.clear_access_bit() is True
        assert r.clear_access_bit() is False


class TestSplit:
    def test_split_conserves_pages(self):
        r = region(pages=10)
        sibling = r.split(3, next(_IDS))
        assert r.pages == 7
        assert sibling.pages == 3

    def test_split_inherits_state(self):
        r = region(pages=10)
        r.touch(2.0)
        r.location = Location.REMOTE
        sibling = r.split(4, next(_IDS))
        assert sibling.segment is r.segment
        assert sibling.location is Location.REMOTE
        assert sibling.accessed
        assert sibling.last_access == 2.0
        assert sibling.name == r.name

    def test_split_whole_region_rejected(self):
        with pytest.raises(MemoryError_):
            region(pages=5).split(5, next(_IDS))

    def test_split_zero_rejected(self):
        with pytest.raises(MemoryError_):
            region(pages=5).split(0, next(_IDS))

    def test_split_freed_rejected(self):
        r = region()
        r.mark_freed()
        with pytest.raises(MemoryError_):
            r.split(1, next(_IDS))

    @given(
        total=st.integers(min_value=2, max_value=10**6),
        data=st.data(),
    )
    def test_split_always_conserves(self, total, data):
        take = data.draw(st.integers(min_value=1, max_value=total - 1))
        r = region(pages=total)
        sibling = r.split(take, next(_IDS))
        assert r.pages + sibling.pages == total
        assert r.pages > 0 and sibling.pages > 0


class TestSegmentsAndLocations:
    def test_segment_values(self):
        assert Segment.RUNTIME.value == "runtime"
        assert Segment.INIT.value == "init"
        assert Segment.EXEC.value == "exec"

    def test_location_flip(self):
        r = region()
        r.location = Location.REMOTE
        assert r.is_remote and not r.is_local
