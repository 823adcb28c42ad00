"""Unit + property tests for the timing-resource algebra."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.resources import (
    BandwidthResource,
    BusyResource,
    MultiChannelBandwidth,
    OccupancyResource,
    SlottedResource,
    UnitPool,
)


class TestSlottedResource:
    def test_width_one_serialises(self):
        res = SlottedResource(1)
        assert res.reserve(10) == 10
        assert res.reserve(10) == 11
        assert res.reserve(10) == 12

    def test_width_n_shares_cycle(self):
        res = SlottedResource(4)
        grants = [res.reserve(5) for _ in range(5)]
        assert grants == [5, 5, 5, 5, 6]

    def test_out_of_order_requests_clamped(self):
        res = SlottedResource(1)
        res.reserve(100)
        # A request to the past gets the next free slot, never < history.
        assert res.reserve(50) >= 50

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            SlottedResource(0)

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                    max_size=60), st.integers(min_value=1, max_value=4))
    @settings(max_examples=50)
    def test_never_overbooks(self, cycles, width):
        res = SlottedResource(width)
        grants = [res.reserve(c) for c in sorted(cycles)]
        for g in set(grants):
            assert grants.count(g) <= width
        for c, g in zip(sorted(cycles), grants):
            assert g >= c


class TestOccupancyResource:
    def test_grants_immediately_when_free(self):
        res = OccupancyResource(2)
        assert res.acquire(10, 20) == 10
        assert res.acquire(10, 30) == 10

    def test_waits_for_earliest_release(self):
        res = OccupancyResource(2)
        res.acquire(0, 100)
        res.acquire(0, 50)
        # Pool full until cycle 50.
        assert res.acquire(10, 200) == 50

    def test_released_entries_reusable(self):
        res = OccupancyResource(1)
        res.acquire(0, 5)
        assert res.acquire(6, 10) == 6

    def test_earliest_free(self):
        res = OccupancyResource(1)
        res.acquire(0, 42)
        assert res.earliest_free(10) == 42
        assert res.earliest_free(50) == 50

    @given(st.lists(st.tuples(st.integers(0, 100), st.integers(1, 50)),
                    min_size=1, max_size=40),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=50)
    def test_occupancy_never_exceeds_entries(self, requests, entries):
        res = OccupancyResource(entries)
        intervals = []
        for cycle, duration in sorted(requests):
            granted = res.acquire(cycle, cycle + duration)
            end = max(cycle + duration, granted)
            intervals.append((granted, end))
            assert granted >= cycle
        # At any grant instant, no more than `entries` intervals overlap.
        for start, __ in intervals:
            live = sum(1 for s, e in intervals if s <= start < e)
            assert live <= entries


class TestBandwidthResource:
    def test_serialises_back_to_back(self):
        pipe = BandwidthResource(4.0)  # 4 B/cycle
        assert pipe.transfer(0, 16) == (0, 4)
        assert pipe.transfer(0, 16) == (4, 8)

    def test_idle_gap_respected(self):
        pipe = BandwidthResource(4.0)
        pipe.transfer(0, 4)
        assert pipe.transfer(100, 4) == (100, 101)

    def test_minimum_one_cycle(self):
        pipe = BandwidthResource(64.0)
        start, end = pipe.transfer(0, 1)
        assert end - start == 1

    def test_counts_bytes(self):
        pipe = BandwidthResource(8.0)
        pipe.transfer(0, 24)
        pipe.transfer(0, 8)
        assert pipe.bytes_moved == 32

    def test_rejects_negative(self):
        pipe = BandwidthResource(8.0)
        with pytest.raises(ValueError):
            pipe.transfer(0, -1)


class TestMultiChannelBandwidth:
    def test_channels_parallelise(self):
        lanes = MultiChannelBandwidth(2, 4.0)
        a = lanes.transfer(0, 16)
        b = lanes.transfer(0, 16)
        assert a == (0, 4)
        assert b == (0, 4)  # second channel
        c = lanes.transfer(0, 16)
        assert c == (4, 8)  # back to a busy channel

    def test_total_bytes(self):
        lanes = MultiChannelBandwidth(4, 8.0)
        for _ in range(4):
            lanes.transfer(0, 10)
        assert sum(ch.bytes_moved for ch in lanes.channels) == 40


class TestBusyResource:
    def test_sequential_occupancy(self):
        server = BusyResource()
        assert server.occupy(0, 10) == (0, 10)
        assert server.occupy(5, 10) == (10, 20)
        assert server.next_free == 20

    def test_push_next_free(self):
        server = BusyResource()
        server.push_next_free(100)
        assert server.occupy(0, 1) == (100, 101)


class TestUnitPool:
    def test_picks_soonest_free_unit(self):
        pool = UnitPool(2)
        assert pool.occupy(0, 10) == (0, 10)
        assert pool.occupy(0, 10) == (0, 10)
        assert pool.occupy(0, 10)[0] == 10

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            UnitPool(0)


class TestSlottedRing:
    """Ring-buffer edge cases: wraparound, long stalls, time shifts."""

    def test_wraparound_under_long_stall_matches_reference(self):
        """Grants across several prune windows equal the unbounded model."""
        res = SlottedResource(2, window=64)

        class Unbounded:
            def __init__(self, slots):
                self.slots = slots
                self.used = {}

            def reserve(self, cycle):
                while self.used.get(cycle, 0) >= self.slots:
                    cycle += 1
                self.used[cycle] = self.used.get(cycle, 0) + 1
                return cycle

        reference = Unbounded(2)
        cycle = 0
        for step in [1, 1, 0, 3, 150, 1, 0, 700, 2, 2, 5000, 1, 1]:
            cycle += step
            # Monotone requests never look behind the horizon, so the
            # bounded ring must agree with the unbounded model exactly,
            # however many times the ring has wrapped.
            assert res.reserve(cycle) == reference.reserve(cycle)

    def test_far_jump_resets_ring_cleanly(self):
        res = SlottedResource(1, window=16)
        for c in range(10):
            assert res.reserve(0) == c
        far = 10_000_000
        assert res.reserve(far) == far
        # The reset must not leak stale counters into the new window.
        assert res.reserve(far) == far + 1
        assert res.used_at(far) == 1

    def test_past_requests_clamp_to_horizon(self):
        res = SlottedResource(1, window=16)
        res.reserve(1000)  # horizon advances past 2*window
        granted = res.reserve(0)
        assert granted >= res._horizon

    def test_shift_time_preserves_relative_state(self):
        res = SlottedResource(1)
        res.reserve(100)
        res.reserve(100)
        before = res.sig_entries(now=100, grace=1024)
        res.shift_time(5000)
        after = res.sig_entries(now=5100, grace=1024)
        assert before == after
        # The shifted cycle is genuinely occupied at its new position.
        assert res.used_at(5100) == 1
        assert res.reserve(5100) == 5102


class TestOccupancyEdges:
    def test_full_window_acquire_grants_at_earliest_release(self):
        res = OccupancyResource(4)
        for i in range(4):
            res.acquire(0, 100 + 10 * i)
        # Pool exhausted: the next acquire waits for the earliest holder.
        assert res.acquire(5, 500) == 100
        assert res.acquire(5, 600) == 110
        assert res.in_flight == 4

    def test_sig_entries_sorted_with_multiplicity(self):
        res = OccupancyResource(8)
        res.acquire(0, 50)
        res.acquire(0, 50)
        res.acquire(0, 40)
        assert res.sig_entries(now=10, grace=1024) == (30, 40, 40)

    def test_shift_time_moves_releases(self):
        res = OccupancyResource(2)
        res.acquire(0, 30)
        res.acquire(0, 40)
        res.shift_time(1000)
        assert res.acquire(0, 2000) == 1030


class TestBusyResourceClamps:
    def test_push_next_free_never_regresses(self):
        server = BusyResource()
        server.occupy(0, 50)
        server.push_next_free(10)  # past the horizon: clamped, no effect
        assert server.next_free == 50
        server.push_next_free(80)
        assert server.next_free == 80

    def test_clamp_next_free_only_lowers(self):
        server = BusyResource()
        server.occupy(0, 100)
        server.clamp_next_free(200)  # above: no effect
        assert server.next_free == 100
        server.clamp_next_free(30)  # the replay dead-floor clamp
        assert server.next_free == 30
        server.clamp_next_free(60)  # never raises
        assert server.next_free == 30
