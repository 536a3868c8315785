"""Unit tests for workload profiles and the registry."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.mem.page import Segment
from repro.sim.randomness import RandomStreams
from repro.workloads import (
    all_benchmarks,
    application_names,
    get_profile,
    micro_benchmark_names,
)
from repro.workloads.profile import (
    FullScanInit,
    ParetoInit,
    RuntimeProfile,
    UniformInit,
)
from repro.workloads.runtimes import (
    RUNTIME_FOOTPRINTS,
    make_runtime_profile,
    runtime_footprint,
)


@pytest.fixture
def rng():
    return RandomStreams(seed=1).get("workloads")


class TestRegistry:
    def test_eleven_benchmarks(self):
        assert len(all_benchmarks()) == 11

    def test_split_micro_and_apps(self):
        assert len(micro_benchmark_names()) == 8
        assert set(application_names()) == {"bert", "graph", "web"}

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(WorkloadError):
            get_profile("nope")

    def test_profiles_have_positive_parameters(self):
        for name in all_benchmarks():
            profile = get_profile(name)
            assert profile.exec_time_s > 0
            assert profile.quota_mib > 0
            assert profile.base_footprint_mib > 0
            assert 0 < profile.cpu_share <= 1.0

    def test_paper_cpu_assignments(self):
        assert get_profile("bert").cpu_share == 1.0
        assert get_profile("graph").cpu_share == 0.5
        assert get_profile("web").cpu_share == 0.2
        assert get_profile("json").cpu_share == 0.1

    def test_paper_quotas(self):
        assert get_profile("bert").quota_mib == 1280
        assert get_profile("graph").quota_mib == 256
        assert get_profile("web").quota_mib == 384

    def test_base_footprint_fits_quota(self):
        for name in all_benchmarks():
            profile = get_profile(name)
            assert profile.base_footprint_mib <= profile.quota_mib


class TestRuntimeProfiles:
    def test_fig4_anchors(self):
        assert runtime_footprint("openwhisk", "python").inactive_mib == 24.0
        assert runtime_footprint("openwhisk", "java").inactive_mib == 57.0
        for language in ("nodejs", "python", "java"):
            assert runtime_footprint("azure", language).inactive_mib > 100

    def test_java_largest_per_platform(self):
        for platform in ("openwhisk", "azure"):
            java = runtime_footprint(platform, "java").inactive_mib
            for language in ("nodejs", "python"):
                assert java > runtime_footprint(platform, language).inactive_mib

    def test_make_runtime_profile(self):
        profile = make_runtime_profile("openwhisk", "python")
        assert profile.cold_mib == 24.0
        assert profile.launch_time_s > 0

    def test_unknown_runtime_rejected(self):
        with pytest.raises(KeyError):
            runtime_footprint("openwhisk", "rust")

    def test_cold_chunks_cover_cold_mib(self):
        profile = RuntimeProfile("x", hot_mib=10, cold_mib=24.5, launch_time_s=1.0)
        assert sum(profile.cold_chunks()) == pytest.approx(24.5)

    def test_cold_chunks_empty_when_no_cold(self):
        profile = RuntimeProfile("x", hot_mib=10, cold_mib=0, launch_time_s=1.0)
        assert profile.cold_chunks() == []


class TestExecTimeSampling:
    def test_mean_close_to_nominal(self, rng):
        profile = get_profile("bert")
        samples = [profile.sample_exec_time(rng) for _ in range(2000)]
        assert np.mean(samples) == pytest.approx(profile.exec_time_s, rel=0.05)

    def test_zero_cv_is_deterministic(self, rng):
        from dataclasses import replace

        profile = replace(get_profile("json"), exec_time_cv=0.0)
        assert profile.sample_exec_time(rng) == profile.exec_time_s

    def test_samples_positive(self, rng):
        profile = get_profile("web")
        assert all(profile.sample_exec_time(rng) > 0 for _ in range(100))


class _FakeCgroup:
    """Minimal allocator for layout tests without a full platform."""

    def __init__(self):
        self.regions = []

    def allocate(self, name, segment, pages):
        from repro.mem.page import PageRegion

        region = PageRegion(
            name=name, segment=segment, pages=pages, region_id=len(self.regions) + 1
        )
        self.regions.append(region)
        return region


class TestUniformInit:
    def test_allocates_hot_cold_tail(self, rng):
        layout = UniformInit(hot_mib=10, cold_mib=8, tail_chunks=3, tail_chunk_mib=1)
        state = layout.allocate(_FakeCgroup(), rng)
        assert len(state.hot) == 1
        assert len(state.tail) == 3
        assert sum(r.pages for r in state.cold) == 8 * 256

    def test_requests_touch_hot(self, rng):
        layout = UniformInit(hot_mib=10, cold_mib=8)
        state = layout.allocate(_FakeCgroup(), rng)
        touched = layout.request_regions(state, rng)
        assert touched == state.hot

    def test_tail_probability_zero_never_touches(self, rng):
        layout = UniformInit(hot_mib=1, cold_mib=0, tail_chunks=5, tail_touch_prob=0.0)
        state = layout.allocate(_FakeCgroup(), rng)
        for _ in range(50):
            assert all(r not in state.tail for r in layout.request_regions(state, rng))

    def test_tail_probability_one_touches_all(self, rng):
        layout = UniformInit(hot_mib=1, cold_mib=0, tail_chunks=5, tail_touch_prob=1.0)
        state = layout.allocate(_FakeCgroup(), rng)
        touched = layout.request_regions(state, rng)
        assert set(state.tail).issubset(set(touched))

    def test_total_mib(self):
        layout = UniformInit(hot_mib=10, cold_mib=8, tail_chunks=2, tail_chunk_mib=3)
        assert layout.total_mib == 24


class TestParetoInit:
    def test_allocates_objects(self, rng):
        layout = ParetoInit(common_hot_mib=5, cold_mib=4, n_objects=10, object_mib=2)
        state = layout.allocate(_FakeCgroup(), rng)
        assert len(state.objects) == 10

    def test_request_touches_hot_plus_one_object(self, rng):
        layout = ParetoInit(common_hot_mib=5, cold_mib=4, n_objects=10, object_mib=2)
        state = layout.allocate(_FakeCgroup(), rng)
        touched = layout.request_regions(state, rng)
        assert state.hot[0] in touched
        assert sum(1 for r in touched if r in state.objects) == 1

    def test_popularity_is_skewed(self, rng):
        layout = ParetoInit(common_hot_mib=0.1, cold_mib=0, n_objects=50, object_mib=1)
        picks = [layout.sample_object(rng) for _ in range(3000)]
        top_decile = sum(1 for p in picks if p < 5) / len(picks)
        assert top_decile > 0.3  # heavy head

    def test_sample_in_range(self, rng):
        layout = ParetoInit(common_hot_mib=1, cold_mib=0, n_objects=7, object_mib=1)
        assert all(0 <= layout.sample_object(rng) < 7 for _ in range(500))

    def test_zero_objects_rejected(self, rng):
        layout = ParetoInit(common_hot_mib=1, cold_mib=0, n_objects=0, object_mib=1)
        with pytest.raises(WorkloadError):
            layout.allocate(_FakeCgroup(), rng)


class TestFullScanInit:
    def test_every_request_touches_all_data(self, rng):
        layout = FullScanInit(data_mib=16, cold_mib=4, data_chunks=4)
        state = layout.allocate(_FakeCgroup(), rng)
        touched = layout.request_regions(state, rng)
        assert set(touched) == set(state.hot)
        assert len(touched) == 4

    def test_cold_part_never_touched(self, rng):
        layout = FullScanInit(data_mib=16, cold_mib=4)
        state = layout.allocate(_FakeCgroup(), rng)
        for _ in range(10):
            touched = layout.request_regions(state, rng)
            assert not set(touched) & set(state.cold)

    def test_total_mib(self):
        assert FullScanInit(data_mib=16, cold_mib=4).total_mib == 20


class TestSegmentAssignment:
    def test_all_init_layout_regions_in_init_segment(self, rng):
        for name in all_benchmarks():
            cg = _FakeCgroup()
            get_profile(name).init_layout.allocate(cg, rng)
            assert all(r.segment is Segment.INIT for r in cg.regions)
