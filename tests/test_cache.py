"""Unit + property tests for the cache subsystem."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import AccessType, CacheLevel
from repro.cache.mshr import MshrFile
from repro.cache.prefetcher import (
    NullPrefetcher,
    StridePrefetcher,
    StreamPrefetcher,
    make_prefetcher,
)
from repro.cache.replacement import LruPolicy, FifoPolicy, RandomPolicy, make_policy
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


class TestReplacementPolicies:
    def test_lru_stack_property(self):
        lru = LruPolicy()
        for tag in ("a", "b", "c"):
            lru.insert(tag)
        lru.touch("a")
        assert lru.evict() == "b"  # least recently used

    def test_fifo_ignores_touch(self):
        fifo = FifoPolicy()
        for tag in ("a", "b", "c"):
            fifo.insert(tag)
        fifo.touch("a")
        assert fifo.evict() == "a"

    def test_random_deterministic_per_seed(self):
        seq = []
        for _ in range(2):
            rnd = RandomPolicy(seed=7)
            for tag in range(8):
                rnd.insert(tag)
            seq.append([rnd.evict() for _ in range(8)])
        assert seq[0] == seq[1]

    def test_factory(self):
        assert isinstance(make_policy("lru"), LruPolicy)
        assert isinstance(make_policy("fifo"), FifoPolicy)
        assert isinstance(make_policy("random"), RandomPolicy)
        with pytest.raises(ValueError):
            make_policy("clairvoyant")

    @given(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=64))
    @settings(max_examples=50)
    def test_lru_never_evicts_most_recent(self, tags):
        lru = LruPolicy()
        for tag in tags:
            if tag in lru:
                lru.touch(tag)
            else:
                lru.insert(tag)
        last = tags[-1]
        if len(lru) > 1:
            assert lru.evict() != last


class TestMshrFile:
    def setup_method(self):
        self.mshr = MshrFile(CacheConfig(name="t", size_bytes=1024, ways=2,
                                         latency=1, mshr_request=2))

    def test_merge_in_flight(self):
        self.mshr.record_fill(0x100, 500)
        assert self.mshr.lookup_in_flight(0x100, 10) == 500
        assert self.mshr.merges == 1

    def test_completed_fills_pruned(self):
        self.mshr.record_fill(0x100, 50)
        assert self.mshr.lookup_in_flight(0x100, 100) is None

    def test_unknown_line(self):
        assert self.mshr.lookup_in_flight(0x200, 0) is None


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
        pf.observe(0, 64, True)
        first = pf.issued
        pf.observe(0, 128, True)
        assert pf.issued > first

    def test_null(self):
        assert NullPrefetcher().observe(0, 0, True) == []

    def test_factory(self):
        assert isinstance(make_prefetcher("stride", 64, 2), StridePrefetcher)
        assert isinstance(make_prefetcher("stream", 64, 4), StreamPrefetcher)
        assert isinstance(make_prefetcher("none", 64, 0), NullPrefetcher)
        with pytest.raises(ValueError):
            make_prefetcher("oracle", 64, 1)
