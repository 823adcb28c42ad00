"""Unit tests for the per-architecture scan code generators."""

import numpy as np
import pytest

from repro.codegen import hipe as hipe_cg
from repro.codegen import hive as hive_cg
from repro.codegen import hmc as hmc_cg
from repro.codegen import x86 as x86_cg
from repro.codegen.base import (
    PcAllocator,
    RegAllocator,
    ScanConfig,
    chunk_bounds,
    flatten_runs,
    lower_filter_runs,
)
from repro.cpu.isa import PimOp, UopClass
from repro.db.datagen import generate_lineitem, generate_table
from repro.db.query6 import Q6_PREDICATES, q6_revenue_plan
from repro.db.scan import execute_plan
from repro.db.table import DsmTable, NsmTable, allocate_scan_buffers
from repro.db.workloads import q1_style_plan
from repro.memory.image import MemoryImage
from repro.sim.runner import build_workload
from repro.sim.machine import build_machine

ROWS = 256


@pytest.fixture()
def workload():
    machine = build_machine("x86")
    data = generate_lineitem(ROWS, seed=31)
    machine_workload = build_workload(machine, data, "dsm")
    # Also attach an NSM copy for tuple-mode codegens.
    machine_workload.nsm = NsmTable(machine.image, data, name="nsm_copy")
    return machine_workload


def lower(codegen, workload, config):
    """The flat uop stream of ``codegen``'s select scan."""
    return list(flatten_runs(lower_filter_runs(codegen, workload, config)))


def plan_workload(plan, arch="x86", rows=ROWS, seed=31):
    machine = build_machine(arch)
    data = generate_table(plan.table, rows, seed=seed)
    return build_workload(machine, data, "dsm", plan=plan)


class TestBaseHelpers:
    def test_scan_config_validation(self):
        with pytest.raises(ValueError):
            ScanConfig("bad", "tuple", 64)
        with pytest.raises(ValueError):
            ScanConfig("nsm", "bad", 64)
        with pytest.raises(ValueError):
            ScanConfig("nsm", "tuple", 48)
        with pytest.raises(ValueError):
            ScanConfig("nsm", "tuple", 64, unroll=0)

    def test_rows_per_op(self):
        assert ScanConfig("dsm", "column", 256).rows_per_op == 64

    def test_pc_allocator_stable(self):
        pcs = PcAllocator()
        a = pcs.site("x")
        assert pcs.site("x") == a
        assert pcs.site("y") != a

    def test_reg_allocator_rotates(self):
        regs = RegAllocator(start=10, window=4)
        ids = [regs.new() for _ in range(6)]
        assert ids == [10, 11, 12, 13, 10, 11]

    def test_chunk_bounds_cover(self):
        chunks = list(chunk_bounds(100, 16))
        assert chunks[0] == (0, 0, 16)
        assert chunks[-1] == (6, 96, 100)
        assert sum(stop - start for __, start, stop in chunks) == 100

    def test_workload_masks(self, workload):
        assert workload.running_mask(2).sum() == workload.final_mask.sum()
        assert workload.predicate_mask(0).mean() == pytest.approx(0.15, abs=0.08)


class TestX86Codegen:
    def test_tuple_trace_structure(self, workload):
        trace = lower(x86_cg, workload, ScanConfig("nsm", "tuple", 64))
        loads = [u for u in trace if u.cls == UopClass.LOAD]
        branches = [u for u in trace if u.cls == UopClass.BRANCH]
        # One tuple load per row (64 B ops) plus iterator-state loads.
        tuple_loads = [u for u in loads if u.size == 64]
        assert len(tuple_loads) == ROWS
        # One match branch + loop branches.
        assert len(branches) >= ROWS

    def test_tuple_materialisation_matches_data(self, workload):
        trace = lower(x86_cg, workload, ScanConfig("nsm", "tuple", 64))
        matches = int(workload.final_mask.sum())
        # Exactly the matching tuples are materialised (64 B each).
        stores = [u for u in trace if u.cls == UopClass.STORE]
        assert sum(u.size for u in stores) == matches * 64

    def test_small_ops_load_whole_tuple(self, workload):
        trace = lower(x86_cg, workload, ScanConfig("nsm", "tuple", 16))
        tuple_loads = [u for u in trace if u.cls == UopClass.LOAD and u.size == 16]
        assert len(tuple_loads) >= ROWS * 4  # 4 pieces per 64 B tuple

    def test_column_trace_structure(self, workload):
        trace = lower(x86_cg, workload, ScanConfig("dsm", "column", 64))
        stores = [u for u in trace if u.cls == UopClass.STORE]
        # Pass 1 stores a mask chunk per 16 rows; later passes store only
        # non-skipped chunks.
        assert len(stores) >= ROWS // 16
        assert all(s.size == 2 for s in stores)  # 16 rows -> 2 mask bytes

    def test_rejects_oversized_ops(self, workload):
        with pytest.raises(ValueError):
            lower(x86_cg, workload, ScanConfig("dsm", "column", 128))

    def test_rejects_deep_unroll(self, workload):
        with pytest.raises(ValueError):
            lower(x86_cg, workload, ScanConfig("dsm", "column", 64, unroll=16))


class TestHmcCodegen:
    def test_tuple_offload_count(self, workload):
        trace = lower(hmc_cg, workload, ScanConfig("nsm", "tuple", 64))
        pim_ops = [u for u in trace if u.cls == UopClass.PIM]
        assert len(pim_ops) == ROWS  # one compare per tuple at 64 B
        assert all(u.pim.op == PimOp.HMC_LOADCMP for u in pim_ops)
        assert all(u.pim.compound is not None for u in pim_ops)

    def test_tuple_grouping_at_256(self, workload):
        trace = lower(hmc_cg, workload, ScanConfig("nsm", "tuple", 256))
        pim_ops = [u for u in trace if u.cls == UopClass.PIM]
        assert len(pim_ops) == ROWS // 4  # 4 tuples per op

    def test_column_offload(self, workload):
        trace = lower(hmc_cg, workload, ScanConfig("dsm", "column", 256))
        pim_ops = [u for u in trace if u.cls == UopClass.PIM]
        chunks = ROWS // 64
        # Full first pass; later passes may skip chunks.
        assert chunks <= len(pim_ops) <= 3 * chunks
        assert all(u.pim.returns_value for u in pim_ops)

    def test_materialisation_via_cache(self, workload):
        trace = lower(hmc_cg, workload, ScanConfig("nsm", "tuple", 64))
        loads = [u for u in trace if u.cls == UopClass.LOAD and u.size == 64]
        matches = int(workload.final_mask.sum())
        assert len(loads) == matches  # tuple fetched per match


class TestHiveCodegen:
    def test_tuple_block_structure(self, workload):
        trace = lower(hive_cg, workload, ScanConfig("nsm", "tuple", 64))
        locks = [u for u in trace if u.cls == UopClass.PIM and u.pim.op == PimOp.LOCK]
        unlocks = [u for u in trace if u.cls == UopClass.PIM and u.pim.op == PimOp.UNLOCK]
        assert len(locks) == len(unlocks) == ROWS
        assert all(u.pim.returns_value for u in unlocks)  # status readback

    def test_column_blocks_balanced(self, workload):
        trace = lower(hive_cg, workload, ScanConfig("dsm", "column", 256, unroll=32))
        locks = sum(1 for u in trace if u.cls == UopClass.PIM and u.pim.op == PimOp.LOCK)
        unlocks = sum(1 for u in trace if u.cls == UopClass.PIM and u.pim.op == PimOp.UNLOCK)
        assert locks == unlocks
        # 4 chunks of 64 rows, 3 passes, width 32 -> one block per pass.
        assert locks == 3

    def test_column_unroll1_reads_mask_from_core(self, workload):
        trace = lower(hive_cg, workload, ScanConfig("dsm", "column", 256, unroll=1))
        core_loads = [u for u in trace if u.cls == UopClass.LOAD]
        assert core_loads  # the fig3b skip-check DRAM reads
        trace32 = lower(hive_cg, workload, ScanConfig("dsm", "column", 256, unroll=32))
        assert not [u for u in trace32 if u.cls == UopClass.LOAD]

    def test_engine_registers_in_bounds(self, workload):
        for config in (ScanConfig("dsm", "column", 256, unroll=32),
                       ScanConfig("dsm", "column", 16, unroll=32),
                       ScanConfig("nsm", "tuple", 16)):
            for uop in lower(hive_cg, workload, config):
                if uop.cls == UopClass.PIM and uop.pim.dst_reg is not None:
                    assert 0 <= uop.pim.dst_reg < 36


class TestHipeCodegen:
    def test_single_pass_with_predication(self, workload):
        trace = lower(hipe_cg, workload, ScanConfig("dsm", "column", 256, unroll=32))
        pim_loads = [u for u in trace if u.cls == UopClass.PIM
                     and u.pim.op == PimOp.PIM_LOAD]
        predicated = [u for u in pim_loads if u.pim.predicated]
        unpredicated = [u for u in pim_loads if not u.pim.predicated]
        chunks = ROWS // 64
        assert len(unpredicated) == chunks  # column 0
        assert len(predicated) == 2 * chunks  # columns 1 and 2

    def test_mask_store_per_block(self, workload):
        trace = lower(hipe_cg, workload, ScanConfig("dsm", "column", 256, unroll=32))
        stores = [u for u in trace if u.cls == UopClass.PIM
                  and u.pim.op == PimOp.PIM_STORE]
        packs = [u for u in trace if u.cls == UopClass.PIM
                 and u.pim.op == PimOp.PACK_MASK]
        assert len(stores) == 1  # 4 chunks fit one block
        assert len(packs) == ROWS // 64

    def test_registers_in_bounds(self, workload):
        for uop in lower(hipe_cg, workload, ScanConfig("dsm", "column", 256, unroll=32)):
            if uop.cls == UopClass.PIM and uop.pim.dst_reg is not None:
                assert 0 <= uop.pim.dst_reg < 36

    def test_tuple_mode_falls_back_to_hive(self, workload):
        hive_trace = [u.cls for u in lower(
            hive_cg, workload, ScanConfig("nsm", "tuple", 64))]
        hipe_trace = [u.cls for u in lower(
            hipe_cg, workload, ScanConfig("nsm", "tuple", 64))]
        assert hive_trace == hipe_trace

    def test_arbitrary_predicate_counts(self, workload):
        # The predicated scan generalises beyond Q6's three conjuncts:
        # any prefix of the conjunction lowers, alternating registers.
        full = workload.predicates
        for count in (1, 2, 3):
            workload.predicates = full[:count]
            workload._mask_cache.clear()
            trace = lower(hipe_cg, workload, ScanConfig("dsm", "column", 256))
            pim_loads = [u for u in trace if u.cls == UopClass.PIM
                         and u.pim.op == PimOp.PIM_LOAD]
            predicated = [u for u in pim_loads if u.pim.predicated]
            chunks = ROWS // 64
            assert len(pim_loads) == count * chunks
            assert len(predicated) == (count - 1) * chunks

    def test_rejects_empty_predicates(self, workload):
        workload.predicates = ()
        with pytest.raises(ValueError):
            lower(hipe_cg, workload, ScanConfig("dsm", "column", 256))


class TestPlanLowering:
    """Per-operator protocol: structure of the Aggregate lowerings."""

    def test_plan_without_aggregate_equals_filter_lowering(self, workload):
        from repro.db.query6 import q6_select_plan

        config = ScanConfig("dsm", "column", 64, unroll=8)
        filter_trace = lower(x86_cg, workload, config)
        workload.plan = q6_select_plan()
        plan_trace = list(flatten_runs(x86_cg.generate_plan_runs(workload, config)))
        assert len(plan_trace) == len(filter_trace)
        assert [u.cls for u in plan_trace] == [u.cls for u in filter_trace]

    def test_core_aggregate_skips_dead_chunks(self):
        # Q6's ~2 % selectivity leaves most chunks empty: the core-side
        # aggregate must branch over them without loading columns.
        wl = plan_workload(q6_revenue_plan())
        config = ScanConfig("dsm", "column", 64, unroll=8)
        trace = list(flatten_runs(x86_cg.aggregate_runs(wl, config)))
        skips = [u for u in trace if u.cls == UopClass.BRANCH and u.taken]
        value_loads = [u for u in trace if u.cls == UopClass.LOAD
                       and u.size == 16 * 4]
        chunks = -(-ROWS // 16)
        live = sum(
            1 for __, s, e in chunk_bounds(ROWS, 16) if wl.final_mask[s:e].any()
        )
        assert len(skips) >= chunks - live
        # Two input columns (price, discount) per live chunk.
        assert len(value_loads) == 2 * live
        # And the lowering's functional answer equals the interpreter.
        assert wl.computed_aggregates == execute_plan(wl.plan, wl.data).aggregates

    def test_engine_aggregate_block_structure(self):
        wl = plan_workload(q1_style_plan(), arch="hive")
        config = ScanConfig("dsm", "column", 256, unroll=32)
        trace = list(flatten_runs(hive_cg.aggregate_runs(wl, config)))
        pim_ops = [u for u in trace if u.cls == UopClass.PIM]
        locks = [u for u in pim_ops if u.pim.op == PimOp.LOCK]
        unlocks = [u for u in pim_ops if u.pim.op == PimOp.UNLOCK]
        stores = [u for u in pim_ops if u.pim.op == PimOp.PIM_STORE]
        unpacks = [u for u in pim_ops if u.pim.op == PimOp.UNPACK_MASK]
        assert len(locks) == len(unlocks)
        assert len(stores) == 24  # 6 groups x 4 aggregates
        assert len(unpacks) == -(-ROWS // 64)  # one mask unpack per chunk
        # No processor-side loads: the reduction lives in the cube.
        assert not [u for u in trace if u.cls == UopClass.LOAD]

    def test_engine_registers_in_bounds_for_aggregates(self):
        wl = plan_workload(q1_style_plan(), arch="hive")
        config = ScanConfig("dsm", "column", 256, unroll=32)
        for uop in flatten_runs(hive_cg.aggregate_runs(wl, config)):
            if uop.cls == UopClass.PIM and uop.pim.dst_reg is not None:
                assert 0 <= uop.pim.dst_reg < 36

    def test_hipe_aggregate_predicates_column_loads(self):
        wl = plan_workload(q6_revenue_plan(), arch="hipe")
        config = ScanConfig("dsm", "column", 256, unroll=32)
        trace = list(flatten_runs(hipe_cg.aggregate_runs(wl, config)))
        loads = [u for u in trace if u.cls == UopClass.PIM
                 and u.pim.op == PimOp.PIM_LOAD]
        mask_loads = [u for u in loads if not u.pim.predicated]
        value_loads = [u for u in loads if u.pim.predicated]
        chunks = -(-ROWS // 64)
        assert len(mask_loads) == chunks  # the bitmask itself
        assert len(value_loads) == 2 * chunks  # price + discount, gated
        # HIVE's variant streams the same loads unpredicated.
        hive_wl = plan_workload(q6_revenue_plan(), arch="hive")
        hive_trace = flatten_runs(hive_cg.aggregate_runs(hive_wl, config))
        hive_loads = [u for u in hive_trace
                      if u.cls == UopClass.PIM and u.pim.op == PimOp.PIM_LOAD]
        assert not [u for u in hive_loads if u.pim.predicated]

    def test_tuple_strategy_rejects_aggregates(self):
        wl = plan_workload(q6_revenue_plan())
        wl.dsm = None
        with pytest.raises(ValueError):
            list(flatten_runs(x86_cg.aggregate_runs(
                wl, ScanConfig("nsm", "tuple", 64))))
