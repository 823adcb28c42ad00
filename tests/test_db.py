"""Unit + property tests for the database substrate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.db import bitmask
from repro.db.datagen import (
    ROWS_SCALE_FACTOR_1,
    expected_combined_selectivity,
    expected_selectivities,
    generate_lineitem,
)
from repro.db.query6 import (
    Q6_PREDICATES,
    Predicate,
    predicate_columns,
    reference_mask,
    reference_matches,
    reference_revenue,
)
from repro.db.scan import column_at_a_time_scan, materialize, tuple_at_a_time_scan
from repro.db.table import DsmTable, NsmTable, allocate_scan_buffers
from repro.cpu.isa import AluFunc
from repro.memory.image import MemoryImage


class TestDatagen:
    def test_deterministic(self):
        a = generate_lineitem(1000, seed=7)
        b = generate_lineitem(1000, seed=7)
        for column in a.column_names():
            assert np.array_equal(a[column], b[column])

    def test_different_seeds_differ(self):
        a = generate_lineitem(1000, seed=1)
        b = generate_lineitem(1000, seed=2)
        assert not np.array_equal(a["l_shipdate"], b["l_shipdate"])

    def test_column_domains(self):
        data = generate_lineitem(5000, seed=3)
        assert data["l_discount"].min() >= 0
        assert data["l_discount"].max() <= 10
        assert data["l_quantity"].min() >= 1
        assert data["l_quantity"].max() <= 50
        assert data["l_extendedprice"].min() > 0

    def test_selectivities_near_analytic(self):
        data = generate_lineitem(50_000, seed=11)
        expected = expected_selectivities()
        for predicate in Q6_PREDICATES:
            measured = predicate.evaluate(data[predicate.column]).mean()
            assert measured == pytest.approx(expected[predicate.column], abs=0.02)

    def test_combined_selectivity_is_q6_classic(self):
        # The famous ~1.9 % of TPC-H Q6.
        assert expected_combined_selectivity() == pytest.approx(0.019, abs=0.003)
        data = generate_lineitem(100_000, seed=5)
        measured = reference_mask(data).mean()
        assert measured == pytest.approx(expected_combined_selectivity(), abs=0.005)

    def test_sf1_row_count_constant(self):
        assert ROWS_SCALE_FACTOR_1 == 6_001_215

    def test_rejects_zero_rows(self):
        with pytest.raises(ValueError):
            generate_lineitem(0)


class TestQuery6:
    def test_reference_mask_matches_manual(self):
        data = generate_lineitem(2000, seed=13)
        mask = reference_mask(data)
        manual = (
            (data["l_shipdate"] >= 731) & (data["l_shipdate"] <= 1094)
            & (data["l_discount"] >= 5) & (data["l_discount"] <= 7)
            & (data["l_quantity"] < 24)
        )
        assert np.array_equal(mask, manual)

    def test_matches_are_sorted_indices(self):
        data = generate_lineitem(2000, seed=13)
        matches = reference_matches(data)
        assert np.all(np.diff(matches) > 0)

    def test_revenue_exact(self):
        data = generate_lineitem(2000, seed=13)
        mask = reference_mask(data)
        expected = int((data["l_extendedprice"][mask].astype(np.int64)
                        * data["l_discount"][mask]).sum())
        assert reference_revenue(data) == expected

    def test_predicate_columns_order(self):
        assert predicate_columns() == ["l_shipdate", "l_discount", "l_quantity"]

    def test_predicate_functions(self):
        values = np.array([3, 6, 9], dtype=np.int32)
        assert Predicate("c", AluFunc.CMP_GT, 5).evaluate(values).tolist() == [False, True, True]
        assert Predicate("c", AluFunc.CMP_EQ, 6).evaluate(values).tolist() == [False, True, False]
        with pytest.raises(ValueError):
            Predicate("c", AluFunc.ADD, 5).evaluate(values)


class TestBitmask:
    @given(st.lists(st.booleans(), min_size=1, max_size=300))
    @settings(max_examples=60)
    def test_pack_unpack_roundtrip(self, flags):
        packed = bitmask.pack(np.array(flags))
        assert bitmask.unpack(packed, len(flags)).tolist() == flags

    def test_bitmask_bytes(self):
        assert bitmask.bitmask_bytes(1) == 1
        assert bitmask.bitmask_bytes(8) == 1
        assert bitmask.bitmask_bytes(9) == 2

    def test_and_packed(self):
        a = bitmask.pack(np.array([1, 1, 0, 0], dtype=bool))
        b = bitmask.pack(np.array([1, 0, 1, 0], dtype=bool))
        assert bitmask.unpack(bitmask.and_packed(a, b), 4).tolist() == [True, False, False, False]

    def test_and_length_mismatch(self):
        with pytest.raises(ValueError):
            bitmask.and_packed(np.zeros(1, np.uint8), np.zeros(2, np.uint8))

    def test_popcount(self):
        packed = bitmask.pack(np.array([1, 0, 1, 1, 0], dtype=bool))
        assert bitmask.popcount(packed) == 3

    def test_chunk_any(self):
        packed = bitmask.pack(np.array([0, 0, 0, 0, 1, 0, 0, 0], dtype=bool))
        assert list(bitmask.chunk_any(packed, 4)) == [False, True]


class TestTables:
    def setup_method(self):
        self.image = MemoryImage(1 << 24)
        self.data = generate_lineitem(512, seed=17)

    def test_nsm_layout(self):
        table = NsmTable(self.image, self.data)
        assert table.tuple_bytes == 64
        assert table.size_bytes == 512 * 64
        assert table.tuple_address(1) - table.tuple_address(0) == 64
        # Values land at the right offsets.
        raw = self.image.read(table.tuple_address(5), 16).view(np.int32)
        assert raw[0] == self.data["l_shipdate"][5]
        assert raw[1] == self.data["l_discount"][5]
        assert raw[2] == self.data["l_quantity"][5]

    def test_nsm_column_refs(self):
        table = NsmTable(self.image, self.data)
        ref = table.columns["l_quantity"]
        value = self.image.read(ref.address_of(7), 4).view(np.int32)[0]
        assert value == self.data["l_quantity"][7]

    def test_dsm_layout(self):
        table = DsmTable(self.image, self.data)
        column = table.column("l_discount")
        assert column.stride == 4
        values = self.image.view("lineitem_dsm.l_discount", np.int32)
        assert np.array_equal(values, self.data["l_discount"])

    def test_table_regions_are_read_only(self):
        nsm = NsmTable(self.image, self.data)
        dsm = DsmTable(self.image, self.data)
        for address in (nsm.tuple_address(3),
                        dsm.column("l_discount").address_of(3)):
            with pytest.raises(ValueError, match="read-only"):
                self.image.write(address, np.ones(4, dtype=np.uint8))

    def test_dsm_regions_share_the_column_arrays(self):
        DsmTable(self.image, self.data)
        for column in self.data.column_names():
            region = self.image.region(f"lineitem_dsm.{column}").data
            assert np.shares_memory(region, self.data[column])

    def test_scan_buffers(self):
        buffers = allocate_scan_buffers(self.image, 512)
        assert buffers.bitmask_bytes == 64  # 512 bits
        assert buffers.materialize_bytes == 512 * 64
        assert buffers.mask_address(16) == buffers.bitmask_base + 2
        assert buffers.mask_bytes_for(12) == 2
        assert buffers.scratch_base > 0


class TestReferenceScans:
    def test_tuple_scan_equals_reference(self):
        data = generate_lineitem(3000, seed=19)
        result = tuple_at_a_time_scan(data, Q6_PREDICATES)
        assert np.array_equal(result.matches, reference_matches(data))
        assert result.selectivity == pytest.approx(
            expected_combined_selectivity(), abs=0.01)

    @given(st.integers(min_value=1, max_value=6), st.sampled_from([4, 16, 64]))
    @settings(max_examples=20, deadline=None)
    def test_column_scan_equals_tuple_scan(self, seed, chunk_rows):
        data = generate_lineitem(500, seed=seed)
        tuple_result = tuple_at_a_time_scan(data, Q6_PREDICATES)
        column_result = column_at_a_time_scan(data, Q6_PREDICATES,
                                              chunk_rows=chunk_rows)
        assert np.array_equal(tuple_result.matches, column_result.matches)
        assert np.array_equal(tuple_result.bitmask, column_result.bitmask)

    def test_column_scan_skips_chunks(self):
        data = generate_lineitem(5000, seed=23)
        result = column_at_a_time_scan(data, Q6_PREDICATES, chunk_rows=4)
        assert result.skipped_chunks > 0

    def test_materialize(self):
        data = generate_lineitem(1000, seed=29)
        result = tuple_at_a_time_scan(data, Q6_PREDICATES)
        out = materialize(data, result.matches, columns=["l_extendedprice"])
        assert out["l_extendedprice"].size == result.match_count

    def test_rejects_bad_chunk(self):
        data = generate_lineitem(100, seed=1)
        with pytest.raises(ValueError):
            column_at_a_time_scan(data, Q6_PREDICATES, chunk_rows=0)
