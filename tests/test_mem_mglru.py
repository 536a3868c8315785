"""Unit tests for the multi-generational LRU."""

import itertools

import pytest

from repro.errors import MemoryError_
from repro.mem.mglru import MultiGenLru
from repro.mem.page import PageRegion, Segment

_IDS = itertools.count(1)


def region(pages=4, name="r"):
    return PageRegion(name=name, segment=Segment.INIT, pages=pages, region_id=next(_IDS))


@pytest.fixture
def lru():
    return MultiGenLru()


class TestGenerations:
    def test_starts_with_one_generation(self, lru):
        assert len(lru.generations) == 1
        assert lru.youngest is lru.oldest

    def test_new_generation_becomes_youngest(self, lru):
        gen = lru.new_generation(1.0, label="barrier")
        assert lru.youngest is gen
        assert gen.label == "barrier"
        assert len(lru.generations) == 2

    def test_generation_sequence_increases(self, lru):
        first = lru.new_generation(1.0)
        second = lru.new_generation(2.0)
        assert second.seq > first.seq

    def test_generation_pages(self, lru):
        r = region(pages=7)
        lru.insert(r)
        assert lru.youngest.pages == 7


class TestTracking:
    def test_insert_defaults_to_youngest(self, lru):
        r = region()
        lru.insert(r)
        assert lru.generation_of(r) is lru.youngest
        assert lru.tracked(r)

    def test_double_insert_rejected(self, lru):
        r = region()
        lru.insert(r)
        with pytest.raises(MemoryError_):
            lru.insert(r)

    def test_access_promotes_to_youngest(self, lru):
        r = region()
        lru.insert(r)
        old = lru.youngest
        lru.new_generation(1.0)
        origin = lru.note_access(r)
        assert origin is old
        assert lru.generation_of(r) is lru.youngest
        assert r not in old

    def test_access_untracked_returns_none(self, lru):
        assert lru.note_access(region()) is None

    def test_move_explicit(self, lru):
        r = region()
        lru.insert(r)
        target = lru.new_generation(1.0)
        lru.move(r, target)
        assert lru.generation_of(r) is target

    def test_move_untracked_rejected(self, lru):
        target = lru.new_generation(1.0)
        with pytest.raises(MemoryError_):
            lru.move(region(), target)

    def test_remove_stops_tracking(self, lru):
        r = region()
        lru.insert(r)
        lru.remove(r)
        assert not lru.tracked(r)
        assert lru.generation_of(r) is None
        # idempotent
        lru.remove(r)

    def test_tracked_pages(self, lru):
        lru.insert(region(pages=3))
        lru.new_generation(1.0)
        lru.insert(region(pages=5))
        assert lru.tracked_pages == 8
        assert len(lru) == 2

    def test_aging_merges_oldest(self, lru):
        regions = []
        for index in range(6):
            region_obj = region(name=f"r{index}")
            lru.insert(region_obj)
            regions.append(region_obj)
            lru.new_generation(float(index))
        assert len(lru.generations) == 7
        merges = lru.age(max_generations=4)
        assert merges == 3
        assert len(lru.generations) == 4
        # Every region is still tracked after the merge.
        assert all(lru.tracked(r) for r in regions)
        assert lru.tracked_pages == sum(r.pages for r in regions)

    def test_aging_noop_when_under_limit(self, lru):
        assert lru.age(max_generations=4) == 0

    def test_aging_invalid_limit(self, lru):
        import pytest as _pytest

        from repro.errors import MemoryError_

        with _pytest.raises(MemoryError_):
            lru.age(max_generations=0)

    def test_access_after_aging_promotes_correctly(self, lru):
        r = region()
        lru.insert(r)
        for index in range(5):
            lru.new_generation(float(index))
        lru.age(max_generations=2)
        lru.note_access(r)
        assert lru.generation_of(r) is lru.youngest

    def test_barrier_segregates_old_from_new(self, lru):
        """The Pucket primitive: pages before a barrier stay in the
        sealed generation; later pages join the new one."""
        before = region(name="before")
        lru.insert(before)
        sealed = lru.youngest
        lru.new_generation(1.0, label="runtime-init-barrier")
        after = region(name="after")
        lru.insert(after)
        assert lru.generation_of(before) is sealed
        assert lru.generation_of(after) is lru.youngest
        assert lru.generation_of(before) is not lru.generation_of(after)
