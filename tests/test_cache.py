"""Unit + property tests for the cache subsystem."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import AccessType, CacheLevel
from repro.cache.mshr import PRUNE_GRACE
from repro.cache.prefetcher import (
    NullPrefetcher,
    StridePrefetcher,
    StreamPrefetcher,
    make_prefetcher,
)
from repro.common.config import CacheConfig


class _FlatMemory:
    """Constant-latency downstream for cache-in-isolation tests."""

    def __init__(self, latency=100):
        self.latency = latency
        self.accesses = []

    def access(self, cycle, line, acc_type, pc=0):
        self.accesses.append((cycle, line, acc_type))
        return cycle + self.latency


def small_cache(**overrides) -> CacheLevel:
    defaults = dict(name="T", size_bytes=1024, ways=2, latency=2,
                    prefetcher="none", mshr_request=4, mshr_write=4,
                    mshr_eviction=4)
    defaults.update(overrides)
    return CacheLevel(CacheConfig(**defaults), _FlatMemory())


class TestMshrFile:
    def test_completed_fills_pruned(self):
        """A fill that already completed is not ridden again, and fills
        older than PRUNE_GRACE leave the merge table."""
        cache = small_cache()
        first = cache.access(0, 0x2000, AccessType.LOAD)
        # Once the line is gone, a miss after its fill fetches it anew.
        cache.invalidate(0x2000)
        again = cache.access(first + 1, 0x2000, AccessType.LOAD)
        assert again > first + 1
        assert len(cache.next_level.accesses) == 2
        # A miss PRUNE_GRACE past both fills leaves only its own entry.
        late = cache.access(again + PRUNE_GRACE + 1, 0x9000, AccessType.LOAD)
        assert list(cache.mshr._in_flight.values()) == [late]


class TestCacheLevel:
    def test_miss_then_hit(self):
        cache = small_cache()
        miss = cache.access(0, 0x1000, AccessType.LOAD)
        assert miss >= 100
        hit = cache.access(miss, 0x1000, AccessType.LOAD)
        assert hit == miss + 2  # hit latency only
        assert cache.stats.get("hits") == 1
        assert cache.stats.get("misses") == 1

    def test_same_line_different_offsets_hit(self):
        cache = small_cache()
        cache.access(0, 0x1000, AccessType.LOAD)
        t = cache.access(500, 0x1020, AccessType.LOAD)
        assert t == 502

    def test_store_allocates_and_dirties(self):
        cache = small_cache()
        cache.access(0, 0x40, AccessType.STORE)
        assert cache.contains(0x40)
        assert cache.is_dirty(0x40)

    def test_dirty_eviction_writes_back(self):
        cache = small_cache()
        # 2-way sets; three lines mapping to the same set evict one.
        sets = cache.num_sets
        stride = sets * 64
        cache.access(0, 0, AccessType.STORE)
        cache.access(1000, stride, AccessType.LOAD)
        cache.access(2000, 2 * stride, AccessType.LOAD)
        assert cache.stats.get("writebacks") == 1
        wb = [a for a in cache.next_level.accesses if a[2] == AccessType.WRITEBACK]
        assert len(wb) == 1 and wb[0][1] == 0

    def test_writeback_install_needs_no_fetch(self):
        cache = small_cache()
        before = len(cache.next_level.accesses)
        cache.access(0, 0x80, AccessType.WRITEBACK)
        assert len(cache.next_level.accesses) == before
        assert cache.contains(0x80)
        assert cache.is_dirty(0x80)

    def test_miss_merge_rides_first_fill(self):
        cache = small_cache()
        first = cache.access(0, 0x2000, AccessType.LOAD)
        second = cache.access(1, 0x2000, AccessType.LOAD)
        assert second <= first
        assert len([a for a in cache.next_level.accesses]) == 1

    def test_invalidate(self):
        cache = small_cache()
        cache.access(0, 0x3000, AccessType.LOAD)
        cache.invalidate(0x3000)
        assert not cache.contains(0x3000)

    def test_prefetch_drop_on_mshr_pressure(self):
        cache = small_cache(mshr_request=1)
        cache.access(0, 0x1000, AccessType.LOAD)  # occupies the only MSHR
        cache.access(1, 0x9000, AccessType.PREFETCH)  # must be dropped
        assert cache.stats.get("prefetches_dropped") == 1

    @given(st.lists(st.integers(0, 7), min_size=1, max_size=64))
    @settings(max_examples=50)
    def test_lru_never_evicts_most_recent(self, picks):
        """In a random access sequence within one 2-way set, an access
        never evicts the line touched just before it."""
        cache = small_cache()
        stride = cache.num_sets * 64
        previous = None
        for cycle, pick in enumerate(picks):
            cache.access(cycle * 1000, pick * stride, AccessType.LOAD)
            if previous is not None:
                assert cache.contains(previous * stride)
            previous = pick

    def test_lru_within_set(self):
        cache = small_cache()
        stride = cache.num_sets * 64
        cache.access(0, 0, AccessType.LOAD)
        cache.access(200, stride, AccessType.LOAD)
        cache.access(400, 0, AccessType.LOAD)  # touch line 0 again
        cache.access(600, 2 * stride, AccessType.LOAD)  # evicts `stride`
        assert cache.contains(0)
        assert not cache.contains(stride)


class TestPrefetchers:
    def test_stride_trains_after_two_strides(self):
        pf = StridePrefetcher(line_bytes=64, degree=2)
        assert list(pf.observe(1, 0, True)) == []
        assert list(pf.observe(1, 64, True)) == []
        out = pf.observe(1, 128, True)
        assert out == [192, 256]

    def test_stride_is_pc_indexed(self):
        pf = StridePrefetcher(line_bytes=64, degree=1)
        pf.observe(1, 0, True)
        pf.observe(2, 1000, True)  # other pc does not disturb pc 1
        pf.observe(1, 64, True)
        assert pf.observe(1, 128, True) == [192]

    def test_stride_handles_negative(self):
        pf = StridePrefetcher(line_bytes=64, degree=1)
        pf.observe(1, 512, True)
        pf.observe(1, 448, True)
        assert pf.observe(1, 384, True) == [320]

    def test_stream_trains_on_adjacent_lines(self):
        pf = StreamPrefetcher(line_bytes=64, degree=4)
        pf.observe(0, 0, True)
        out = pf.observe(0, 64, True)
        assert out  # trained: issues ahead of the head
        assert all(addr > 64 for addr in out)

    def test_stream_advances_with_demand(self):
        pf = StreamPrefetcher(line_bytes=64, degree=2)
        pf.observe(0, 0, True)
        first = pf.observe(0, 64, True)
        second = pf.observe(0, 128, True)
        assert second and max(second) > max(first)

    def test_null(self):
        assert NullPrefetcher().observe(0, 0, True) == []

    def test_factory(self):
        assert isinstance(make_prefetcher("stride", 64, 2), StridePrefetcher)
        assert isinstance(make_prefetcher("stream", 64, 4), StreamPrefetcher)
        assert isinstance(make_prefetcher("none", 64, 0), NullPrefetcher)
        with pytest.raises(ValueError):
            make_prefetcher("oracle", 64, 1)
