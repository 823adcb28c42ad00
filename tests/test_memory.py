"""Unit + property tests for the memory subsystem: mapping, DRAM, vaults,
links, the cube, and the functional image."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import HmcConfig
from repro.common.resources import MultiChannelBandwidth
from repro.common.stats import StatGroup
from repro.memory.address_mapping import AddressMapping, DecodedAddress
from repro.memory.dram import DramBank, DramTimings
from repro.memory.hmc import Hmc
from repro.memory.image import MemoryImage
from repro.memory.links import HmcLinks
from repro.memory.vault import Vault

CONFIG = HmcConfig()


class TestAddressMapping:
    def setup_method(self):
        self.mapping = AddressMapping(CONFIG)

    def test_block_interleaving_across_vaults(self):
        # Consecutive 256 B blocks land in consecutive vaults.
        v0 = self.mapping.decompose(0).vault
        v1 = self.mapping.decompose(256).vault
        v2 = self.mapping.decompose(512).vault
        assert (v0, v1, v2) == (0, 1, 2)

    def test_bank_changes_after_all_vaults(self):
        a = self.mapping.decompose(0)
        b = self.mapping.decompose(256 * 32)  # one full vault sweep later
        assert a.vault == b.vault == 0
        assert b.bank == a.bank + 1

    def test_offset_within_block(self):
        decoded = self.mapping.decompose(300)
        assert decoded.offset == 300 - 256
        assert decoded.vault == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            self.mapping.decompose(CONFIG.total_size_bytes)
        with pytest.raises(ValueError):
            self.mapping.decompose(-1)

    def test_compose_validates(self):
        with pytest.raises(ValueError):
            self.mapping.compose(DecodedAddress(vault=99, bank=0, row=0, offset=0))

    @given(st.integers(min_value=0, max_value=CONFIG.total_size_bytes - 1))
    @settings(max_examples=200)
    def test_bijective(self, address):
        decoded = self.mapping.decompose(address)
        assert self.mapping.compose(decoded) == address

    @given(st.integers(min_value=0, max_value=CONFIG.total_size_bytes - 4096),
           st.integers(min_value=1, max_value=2048))
    @settings(max_examples=100)
    def test_blocks_cover_exactly(self, address, nbytes):
        pieces = list(self.mapping.blocks_of(address, nbytes))
        assert sum(p for __, p in pieces) == nbytes
        assert pieces[0][0] == address
        # Each piece stays inside one row-buffer block.
        for addr, size in pieces:
            assert addr // 256 == (addr + size - 1) // 256


class TestDramTimings:
    def test_bus_domain_conversion(self):
        t = DramTimings.from_config(CONFIG)
        # Bus clock = 1 GHz = core/2: each timing count doubles in core cycles.
        assert t.t_cas == 18 and t.t_rcd == 18 and t.t_rp == 18
        assert t.t_ras == 48 and t.t_cwd == 14
        assert t.row_cycle == 48 + 18

    def test_array_domain_conversion(self):
        from dataclasses import replace

        t = DramTimings.from_config(replace(CONFIG, timing_domain="array"))
        assert t.t_cas == 109  # 9 cycles at 166 MHz in 2 GHz core cycles

    def test_unknown_domain(self):
        from dataclasses import replace

        with pytest.raises(ValueError):
            DramTimings.from_config(replace(CONFIG, timing_domain="warp"))


class TestDramBank:
    def setup_method(self):
        self.timings = DramTimings.from_config(CONFIG)
        self.bank = DramBank(self.timings, burst_core_cycles_per_byte=0.25)

    def test_read_latency_structure(self):
        __, data_start, data_end, __ = self.bank.access_times(0, 256, False)
        assert data_start == self.timings.t_rcd + self.timings.t_cas
        assert data_end == data_start + 64  # 256 B at 4 B/cy

    def test_closed_page_holds_row_cycle(self):
        start, __, __, bank_free = self.bank.access_times(0, 8, False)
        assert bank_free - start >= self.timings.row_cycle
        second_start = self.bank.access_times(0, 8, False)[0]
        assert second_start >= bank_free

    def test_write_uses_cwd(self):
        data_start = self.bank.access_times(0, 64, True)[1]
        assert data_start == self.timings.t_rcd + self.timings.t_cwd

    def test_counters(self):
        self.bank.access_times(0, 64, False)
        self.bank.access_times(0, 32, True)
        assert self.bank.activations == 2
        assert self.bank.bytes_read == 64
        assert self.bank.bytes_written == 32

    def test_rejects_empty_access(self):
        with pytest.raises(ValueError):
            self.bank.access_times(0, 0, False)


class TestVault:
    def setup_method(self):
        self.vault = Vault(0, CONFIG)

    def test_banks_parallel(self):
        a = self.vault.access_times(0, bank=0, nbytes=8, is_write=False)
        b = self.vault.access_times(0, bank=1, nbytes=8, is_write=False)
        # Different banks overlap almost fully (command-queue slot apart).
        assert b[1] - a[1] < 10

    def test_same_bank_serialises(self):
        a = self.vault.access_times(0, bank=0, nbytes=8, is_write=False)
        b = self.vault.access_times(0, bank=0, nbytes=8, is_write=False)
        assert b[0] >= a[2]

    def test_statistics(self):
        self.vault.access_times(0, 0, 64, is_write=False)
        self.vault.access_times(0, 1, 32, is_write=True)
        banks = self.vault.banks
        assert sum(b.activations for b in banks) == 2
        assert sum(b.bytes_read for b in banks) == 64
        assert sum(b.bytes_written for b in banks) == 32


def lane_bytes(lanes):
    """Bytes serialised on every lane of one link direction."""
    return sum(channel.bytes_moved for channel in lanes.channels)


class TestLinks:
    def setup_method(self):
        self.links = HmcLinks(CONFIG)

    def test_header_only_packet(self):
        __, accepted, arrival = self.links.request(0, payload_bytes=0)
        assert lane_bytes(self.links._request_lanes) == 16
        assert arrival == accepted + self.links.latency

    def test_payload_serialisation(self):
        small = self.links.response(0, payload_bytes=0)
        self.setup_method()
        large = self.links.response(0, payload_bytes=256)
        assert large[2] > small[2]

    def test_four_lanes_parallel(self):
        starts = {self.links.request(0, 0)[0] for _ in range(4)}
        assert starts == {0}
        assert self.links.request(0, 0)[0] > 0

    def test_directions_independent(self):
        self.links.request(0, 256)
        assert self.links.response(0, 0)[0] == 0

    def test_byte_accounting(self):
        self.links.request(0, 10)
        self.links.response(0, 20)
        assert lane_bytes(self.links._request_lanes) == 26
        assert lane_bytes(self.links._response_lanes) == 36

    def test_crossings_match_the_bandwidth_primitive(self):
        # request/response inline MultiChannelBandwidth.transfer; the
        # primitive is the reference the inlined crossing answers to.
        rate = self.links._request_lanes.channels[0].bytes_per_cycle
        reference = {
            True: MultiChannelBandwidth(CONFIG.num_links, rate),
            False: MultiChannelBandwidth(CONFIG.num_links, rate),
        }
        rng = np.random.default_rng(7)
        cycle = 0
        for __ in range(200):
            is_request = bool(rng.integers(2))
            cycle += int(rng.integers(6))
            payload = int(rng.choice([0, 2, 8, 16, 64, 256]))
            cross = self.links.request if is_request else self.links.response
            start, end = reference[is_request].transfer(
                cycle, CONFIG.request_header_bytes + payload
            )
            assert cross(cycle, payload) == (
                start, end, end + self.links.latency
            )
        assert lane_bytes(self.links._request_lanes) == \
            lane_bytes(reference[True])
        assert lane_bytes(self.links._response_lanes) == \
            lane_bytes(reference[False])
        assert self.links.request_packets == reference[True].cursor
        assert self.links.response_packets == reference[False].cursor


class TestHmc:
    def setup_method(self):
        self.hmc = Hmc(CONFIG, StatGroup("hmc"))

    def test_read_line_roundtrip_latency(self):
        issue, completion = self.hmc.read_line_times(0, address=0, nbytes=64)
        # Two link crossings plus a DRAM access: order of 100+ cycles.
        assert completion > 2 * CONFIG.link_latency_core_cycles
        assert completion > issue

    def test_write_line_posted(self):
        issue, completion = self.hmc.write_line_times(0, address=0, nbytes=64)
        assert issue <= completion

    def test_vault_access_spreads_blocks(self):
        # A 1 KB access spans 4 vaults and overlaps heavily.
        wide = self.hmc.vault_access(0, address=0, nbytes=1024, is_write=False)
        narrow = self.hmc.vault_access(0, address=4096, nbytes=256, is_write=False)
        assert wide < 4 * narrow

    def test_pim_update_roundtrip(self):
        issue, completion = self.hmc.pim_update_times(
            0, address=0, nbytes=256, response_payload_bytes=8
        )
        assert completion > issue
        assert self.hmc.stats.get("pim_updates") == 1
        assert self.hmc.vaults[0].fu_ops == 1

    def test_pim_update_size_limit(self):
        with pytest.raises(ValueError):
            self.hmc.pim_update_times(0, address=0, nbytes=512,
                                      response_payload_bytes=8)

    def test_collect_stats(self):
        self.hmc.read_line_times(0, 0, 64)
        self.hmc.write_line_times(0, 4096, 64)
        stats = self.hmc.collect_stats()
        assert stats.get("row_activations") == 2
        assert stats.get("dram_bytes_read") == 64
        assert stats.get("dram_bytes_written") == 64
        assert stats.get("link_request_packets") == 2


class TestMemoryImage:
    def setup_method(self):
        self.image = MemoryImage(1 << 20)

    def test_allocate_and_rw(self):
        alloc = self.image.allocate("buf", 1024)
        data = np.arange(16, dtype=np.uint8)
        self.image.write(alloc.base + 8, data)
        assert np.array_equal(self.image.read(alloc.base + 8, 16), data)

    def test_allocate_array_roundtrip(self):
        values = np.arange(100, dtype=np.int32)
        alloc = self.image.allocate_array("col", values)
        assert np.array_equal(self.image.view("col", np.int32), values)
        assert alloc.size == 400

    def test_snapshot_references_frozen_regions_and_drops_zero_pages(self):
        table = self.image.map_array("table", np.arange(4096, dtype=np.int32))
        buf = self.image.allocate("buf", 5 * 4096 + 100)
        self.image.write(buf.base + 2 * 4096 + 7, np.full(3, 9, np.uint8))
        self.image.write(buf.end - 1, np.ones(1, np.uint8))  # short last page
        blob = pickle.dumps(self.image)
        assert len(blob) < 3 * 4096  # two written pages, no table bytes
        restored = pickle.loads(blob)
        with pytest.raises(KeyError):
            restored.read(table.base, 4)  # unbound until rebound
        restored.rebind(self.image)
        for alloc in (table, buf):
            assert np.array_equal(restored.read(alloc.base, alloc.size),
                                  alloc.data)

    def test_rebind_rejects_a_different_table(self):
        self.image.map_array("table", np.arange(64, dtype=np.int32))
        restored = pickle.loads(pickle.dumps(self.image))
        other = MemoryImage(1 << 20)
        other.map_array("table", np.arange(1, 65, dtype=np.int32))
        with pytest.raises(ValueError, match="differs"):
            restored.rebind(other)

    def test_alignment(self):
        a = self.image.allocate("a", 10)
        b = self.image.allocate("b", 10)
        assert a.base % 256 == 0
        assert b.base % 256 == 0
        assert b.base >= a.end

    def test_duplicate_name_rejected(self):
        self.image.allocate("x", 8)
        with pytest.raises(ValueError):
            self.image.allocate("x", 8)

    def test_capacity_enforced(self):
        with pytest.raises(MemoryError):
            self.image.allocate("huge", 1 << 21)

    def test_unmapped_access_rejected(self):
        with pytest.raises(KeyError):
            self.image.read(0x123456, 4)

    def test_cross_allocation_access_rejected(self):
        a = self.image.allocate("a", 256)
        self.image.allocate("b", 256)
        with pytest.raises(KeyError):
            self.image.read(a.base + 200, 100)
