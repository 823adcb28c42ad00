"""Unit + property tests for the PIM engines: register bank, ALU
semantics, HMC ISA backend, HIVE sequencer/interlock, HIPE predication."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import HmcConfig, hipe_logic_config, hive_logic_config
from repro.cpu.isa import AluFunc, PimInstruction, PimOp, Uop, UopClass, pim
from repro.memory.hmc import Hmc
from repro.memory.image import MemoryImage
from repro.pim.hive import HiveBackend, HiveEngine
from repro.pim.hipe import HipeBackend, HipeEngine
from repro.pim.hmc_isa import MASK_SLICE_OPS, HmcIsaBackend
from repro.pim.ops import apply_alu, apply_compound
from repro.pim.register_bank import PimRegisterBank


def make_cube():
    image = MemoryImage(1 << 24)
    hmc = Hmc(HmcConfig())
    return hmc, image


def dram_bytes_read(hmc):
    """Bytes read from every bank of the cube."""
    return sum(bank.bytes_read for vault in hmc.vaults for bank in vault.banks)


class TestPimOps:
    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=64),
           st.integers(-500, 500), st.integers(-500, 500))
    @settings(max_examples=60)
    def test_cmp_range_matches_numpy(self, values, lo_raw, hi_raw):
        lo, hi = min(lo_raw, hi_raw), max(lo_raw, hi_raw)
        arr = np.array(values, dtype=np.int32)
        got = apply_alu(AluFunc.CMP_RANGE, arr, imm_lo=lo, imm_hi=hi)
        expected = ((arr >= lo) & (arr <= hi)).astype(np.int32)
        assert np.array_equal(got, expected)

    def test_all_compare_functions(self):
        arr = np.array([1, 5, 9], dtype=np.int32)
        assert apply_alu(AluFunc.CMP_GE, arr, imm_lo=5).tolist() == [0, 1, 1]
        assert apply_alu(AluFunc.CMP_GT, arr, imm_lo=5).tolist() == [0, 0, 1]
        assert apply_alu(AluFunc.CMP_LE, arr, imm_lo=5).tolist() == [1, 1, 0]
        assert apply_alu(AluFunc.CMP_LT, arr, imm_lo=5).tolist() == [1, 0, 0]
        assert apply_alu(AluFunc.CMP_EQ, arr, imm_lo=5).tolist() == [0, 1, 0]

    def test_logic_and_arith(self):
        a = np.array([1, 0, 1], dtype=np.int32)
        b = np.array([1, 1, 0], dtype=np.int32)
        assert apply_alu(AluFunc.AND, a, b).tolist() == [1, 0, 0]
        assert apply_alu(AluFunc.OR, a, b).tolist() == [1, 1, 1]
        assert apply_alu(AluFunc.ADD, a, b).tolist() == [2, 1, 1]
        assert apply_alu(AluFunc.MUL, a, b).tolist() == [1, 0, 0]

    def test_compound_tuple_predicate(self):
        # Two 16 B tuples: int32 fields at offsets 0 and 4.
        tuples = np.zeros(8, dtype=np.int32)
        tuples[0], tuples[1] = 10, 3  # tuple 0: matches both terms
        tuples[4], tuples[5] = 10, 9  # tuple 1: fails second term
        terms = ((0, AluFunc.CMP_GE, 5, 0), (4, AluFunc.CMP_LT, 5, 0))
        raw = tuples.view(np.uint8)
        result = apply_compound(raw, stride=16, terms=terms)
        assert result.tolist() == [1, 0]

    def test_compound_skips_out_of_piece_terms(self):
        raw = np.zeros(8, dtype=np.uint8)
        terms = ((64, AluFunc.CMP_GE, 5, 0),)  # offset beyond the piece
        assert apply_compound(raw, stride=8, terms=terms).tolist() == [1]


class TestRegisterBank:
    def setup_method(self):
        self.bank = PimRegisterBank(hive_logic_config())

    def test_dimensions(self):
        assert len(self.bank) == 36
        assert self.bank[0].nbytes == 256

    def test_bounds_checked(self):
        with pytest.raises(IndexError):
            self.bank[36]

    def test_write_sets_flags_and_ready(self):
        values = np.array([0, 7, 0, -2], dtype=np.int32)
        register = self.bank.write(3, values, lane_bytes=4, ready=99)
        assert register.ready == 99
        assert register.lane_match[:4].tolist() == [False, True, False, True]

    def test_short_write_zero_fills(self):
        self.bank.write(0, np.full(64, 1, dtype=np.int32), 4, 10)
        self.bank.write(0, np.array([5], dtype=np.int32), 4, 20)
        assert self.bank[0].lanes(4)[1] == 0

    def test_accounting(self):
        self.bank.read(1)
        self.bank.write(2, np.array([1], dtype=np.int32), 4, 0)
        assert self.bank.stats.get("reads") == 1
        assert self.bank.stats.get("writes") == 1


class TestHmcIsaBackend:
    def setup_method(self):
        self.hmc, self.image = make_cube()
        self.backend = HmcIsaBackend(self.hmc, self.image)

    def test_loadcmp_computes_mask(self):
        values = np.array([1, 10, 3, 8], dtype=np.int32)
        alloc = self.image.allocate_array("col", values)
        inst = PimInstruction(PimOp.HMC_LOADCMP, address=alloc.base, size=16,
                              func=AluFunc.CMP_GE, imm_lo=5, returns_value=True)
        done, release = self.backend.submit(pim(1, inst), 0)
        assert done > 0
        assert release == done  # the controller window holds the round trip
        bits = np.unpackbits(self.backend.computed_masks[0], count=4,
                             bitorder="little")
        assert bits.tolist() == [0, 1, 0, 1]

    def test_update_writes_back(self):
        values = np.array([1, 2], dtype=np.int32)
        alloc = self.image.allocate_array("col", values)
        inst = PimInstruction(PimOp.HMC_UPDATE, address=alloc.base, size=8,
                              func=AluFunc.ADD, imm_lo=10)
        self.backend.submit(pim(1, inst), 0)
        assert self.image.view("col", np.int32).tolist() == [11, 12]

    def test_rejects_engine_ops(self):
        with pytest.raises(ValueError):
            self.backend.submit(pim(1, PimInstruction(PimOp.LOCK)), 0)

    def test_out_of_range_loadcmp_raises(self):
        alloc = self.image.allocate_array("col", np.arange(4, dtype=np.int32))
        inst = PimInstruction(PimOp.HMC_LOADCMP, address=alloc.end - 8,
                              size=16, func=AluFunc.CMP_GE, imm_lo=0,
                              returns_value=True)
        self.backend.submit(pim(1, inst), 0)
        with pytest.raises(KeyError):
            self.backend.mask_table()


_PYTHON_COMPARE = {
    AluFunc.CMP_GE: lambda v, lo, hi: v >= lo,
    AluFunc.CMP_GT: lambda v, lo, hi: v > lo,
    AluFunc.CMP_LE: lambda v, lo, hi: v <= lo,
    AluFunc.CMP_LT: lambda v, lo, hi: v < lo,
    AluFunc.CMP_EQ: lambda v, lo, hi: v == lo,
    AluFunc.CMP_RANGE: lambda v, lo, hi: lo <= v <= hi,
}


def _reference_mask(image, inst, table_base):
    """One load-compare's mask, evaluated value by value in Python."""
    raw = image.read(inst.address, inst.size)
    if inst.compound is None:
        lanes = raw.view(np.int32).tolist()
        flags = [_PYTHON_COMPARE[inst.func](v, inst.imm_lo, inst.imm_hi)
                 for v in lanes]
    else:
        stride = inst.tuple_stride
        phase = (inst.address - table_base) % stride
        flags = []
        for t in range(max(1, inst.size // stride)):
            ok = True
            for offset, func, lo, hi in inst.compound:
                start = t * stride + offset - phase
                if offset < phase or offset + 4 > phase + min(inst.size, stride):
                    continue  # the column lies outside this piece
                value = int(raw[start:start + 4].view(np.int32)[0])
                ok = ok and _PYTHON_COMPARE[func](value, lo, hi)
            flags.append(ok)
    return np.packbits(np.array(flags, dtype=bool), bitorder="little")


class TestHmcBulkMasks:
    """Bulk-evaluated masks equal per-op evaluation at issue time."""

    TUPLES = 64
    TERMS = ((0, AluFunc.CMP_GE, -200, 0), (20, AluFunc.CMP_RANGE, -300, 300),
             (36, AluFunc.CMP_LT, 100, 0))

    def _stream(self, seed, n_ops):
        rng = np.random.default_rng(seed)
        hmc, image = make_cube()
        column = image.allocate_array(
            "col", rng.integers(-500, 500, 1024, dtype=np.int32))
        table = image.allocate_array(
            "nsm", rng.integers(-500, 500, self.TUPLES * 16, dtype=np.int32))
        backend = HmcIsaBackend(hmc, image)
        reference = []
        # One instruction object per body step, its address overwritten
        # before each submit, as the compiled kernels do.
        column_insts = {}
        for i in range(n_ops):
            kind = rng.integers(0, 4)
            size = int(rng.choice([16, 32, 64, 128, 256]))
            if kind == 0:  # an update, followed by a compare of its bytes
                address = column.base + 4 * int(rng.integers(0, 1024 - 64))
                backend.submit(pim(1, PimInstruction(
                    PimOp.HMC_UPDATE, address=address, size=16,
                    func=AluFunc.ADD, imm_lo=int(rng.integers(-50, 50)))), i)
                inst = PimInstruction(PimOp.HMC_LOADCMP, address=address,
                                      size=16, func=AluFunc.CMP_GE, imm_lo=0,
                                      returns_value=True)
            elif kind == 1:  # a compound compare over tuples or a piece
                if size >= 64:
                    t = int(rng.integers(0, self.TUPLES - size // 64 + 1))
                    address = table.base + 64 * t
                else:
                    t = int(rng.integers(0, self.TUPLES))
                    piece = int(rng.integers(0, 64 // size))
                    address = table.base + 64 * t + piece * size
                inst = PimInstruction(PimOp.HMC_LOADCMP, address=address,
                                      size=size, compound=self.TERMS,
                                      tuple_stride=64, returns_value=True)
            else:  # a column compare through a reused instruction
                func = list(_PYTHON_COMPARE)[int(rng.integers(0, 6))]
                inst = column_insts.setdefault((size, func), PimInstruction(
                    PimOp.HMC_LOADCMP, size=size, func=func, imm_lo=-100,
                    imm_hi=150, returns_value=True))
                inst.address = column.base + 4 * int(
                    rng.integers(0, 1024 - size // 4 + 1))
            reference.append(_reference_mask(image, inst, table.base))
            backend.submit(pim(1, inst), i)
        return backend, reference

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bulk_equals_per_op(self, seed):
        backend, reference = self._stream(seed, 300)
        masks = backend.computed_masks
        assert len(masks) == len(reference)
        for got, want in zip(masks, reference):
            assert got.tolist() == want.tolist()

    def test_update_between_compares_of_one_address(self):
        hmc, image = make_cube()
        alloc = image.allocate_array("col", np.array([1, 7, 3, 9], np.int32))
        backend = HmcIsaBackend(hmc, image)
        compare = PimInstruction(PimOp.HMC_LOADCMP, address=alloc.base,
                                 size=16, func=AluFunc.CMP_GE, imm_lo=5,
                                 returns_value=True)
        backend.submit(pim(1, compare), 0)
        backend.submit(pim(2, PimInstruction(
            PimOp.HMC_UPDATE, address=alloc.base, size=16, func=AluFunc.ADD,
            imm_lo=3)), 10)
        backend.submit(pim(1, compare), 20)
        first, second = backend.computed_masks
        assert np.unpackbits(first, count=4, bitorder="little").tolist() == [0, 1, 0, 1]
        assert np.unpackbits(second, count=4, bitorder="little").tolist() == [0, 1, 1, 1]

    def test_log_spanning_slices(self):
        backend, reference = self._stream(3, MASK_SLICE_OPS + 700)
        flat, widths = backend.mask_table()
        assert widths.size == len(reference)
        assert flat.tolist() == np.concatenate(reference).tolist()


class TestHiveEngine:
    def setup_method(self):
        self.hmc, self.image = make_cube()
        self.engine = HiveEngine(hive_logic_config(), self.hmc, self.image)

    def test_load_reads_memory(self):
        values = np.arange(64, dtype=np.int32)
        alloc = self.image.allocate_array("col", values)
        done = self.engine.execute(
            PimInstruction(PimOp.PIM_LOAD, address=alloc.base, size=256, dst_reg=0), 0
        )
        assert done > 50  # paid a DRAM access
        assert np.array_equal(self.engine.registers[0].lanes(4), values)

    def test_interlock_load_does_not_block_sequencer(self):
        values = np.arange(64, dtype=np.int32)
        alloc = self.image.allocate_array("col", values)
        self.engine.execute(
            PimInstruction(PimOp.PIM_LOAD, address=alloc.base, size=256, dst_reg=0), 0
        )
        # An independent instruction dispatches long before the load lands.
        done = self.engine.execute(PimInstruction(PimOp.LOCK), 0)
        assert done < 50

    def test_dependent_alu_waits_for_load(self):
        values = np.arange(64, dtype=np.int32)
        alloc = self.image.allocate_array("col", values)
        load_done = self.engine.execute(
            PimInstruction(PimOp.PIM_LOAD, address=alloc.base, size=256, dst_reg=0), 0
        )
        cmp_done = self.engine.execute(
            PimInstruction(PimOp.PIM_ALU, size=256, src_regs=(0,), dst_reg=1,
                           func=AluFunc.CMP_GE, imm_lo=32), 0
        )
        assert cmp_done > load_done
        assert self.engine.registers[1].lanes(4)[:64].sum() == 32

    def test_store_roundtrip_and_invalidation(self):
        invalidated = []
        engine = HiveEngine(hive_logic_config(), self.hmc, self.image,
                            invalidate_range=lambda a, n: invalidated.append((a, n)))
        buf = self.image.allocate("buf", 256)
        engine.registers.write(2, np.arange(64, dtype=np.int32), 4, 0)
        engine.execute(
            PimInstruction(PimOp.PIM_STORE, address=buf.base, size=256,
                           src_regs=(2,)), 0
        )
        assert np.array_equal(self.image.view("buf", np.int32),
                              np.arange(64, dtype=np.int32))
        assert invalidated == [(buf.base, 256)]

    def test_lock_serialises_until_prior_unlock_dispatch(self):
        first_lock = self.engine.execute(PimInstruction(PimOp.LOCK), 0)
        self.engine.execute(PimInstruction(PimOp.UNLOCK), 0)
        second_lock = self.engine.execute(PimInstruction(PimOp.LOCK), 0)
        assert second_lock > first_lock

    def test_unlock_status_waits_for_block(self):
        values = np.arange(64, dtype=np.int32)
        alloc = self.image.allocate_array("col", values)
        self.engine.execute(PimInstruction(PimOp.LOCK), 0)
        load_done = self.engine.execute(
            PimInstruction(PimOp.PIM_LOAD, address=alloc.base, size=256, dst_reg=0), 0
        )
        unlock_done = self.engine.execute(
            PimInstruction(PimOp.UNLOCK, returns_value=True), 0
        )
        assert unlock_done >= load_done

    def test_pack_unpack_roundtrip(self):
        flags = np.array([1, 0, 1, 1] * 16, dtype=np.int32)
        self.engine.registers.write(0, flags, 4, 0)
        self.engine.execute(
            PimInstruction(PimOp.PACK_MASK, size=64, src_regs=(0,), dst_reg=35,
                           imm_lo=0), 0
        )
        self.engine.execute(
            PimInstruction(PimOp.UNPACK_MASK, size=256, src_regs=(35,), dst_reg=1,
                           imm_lo=0), 0
        )
        assert np.array_equal(self.engine.registers[1].lanes(4)[:64],
                              (flags != 0).astype(np.int32))

    def test_pack_zeroes_partial_byte_tail(self):
        self.engine.registers.write(0, np.ones(4, dtype=np.int32), 4, 0)
        # Dirty the accumulator first.
        self.engine.registers.write(35, np.full(64, -1, dtype=np.int32), 4, 0)
        self.engine.execute(
            PimInstruction(PimOp.PACK_MASK, size=4, src_regs=(0,), dst_reg=35,
                           imm_lo=0), 0
        )
        assert self.engine.registers[35].value[0] == 0b00001111

    def test_predication_refused_without_support(self):
        with pytest.raises(ValueError):
            self.engine.execute(
                PimInstruction(PimOp.PIM_LOAD, address=0x100, size=256,
                               dst_reg=0, pred_reg=1), 0
            )

    def test_size_limit_enforced(self):
        with pytest.raises(ValueError):
            self.engine.execute(
                PimInstruction(PimOp.PIM_LOAD, address=0x100, size=512, dst_reg=0), 0
            )


class TestHipeEngine:
    def setup_method(self):
        self.hmc, self.image = make_cube()
        self.engine = HipeEngine(hipe_logic_config(), self.hmc, self.image)

    def _load_and_compare(self, values, threshold):
        alloc = self.image.allocate_array("col", np.asarray(values, dtype=np.int32))
        self.engine.execute(
            PimInstruction(PimOp.PIM_LOAD, address=alloc.base,
                           size=len(values) * 4, dst_reg=0), 0
        )
        self.engine.execute(
            PimInstruction(PimOp.PIM_ALU, size=len(values) * 4, src_regs=(0,),
                           dst_reg=1, func=AluFunc.CMP_GE, imm_lo=threshold), 0
        )

    def test_predicated_alu_masks_lanes(self):
        self._load_and_compare([1, 10, 2, 20] * 16, threshold=5)
        # Predicated compare on reg 1: lanes where reg1==0 must yield 0.
        self.engine.registers.write(2, np.full(64, 7, dtype=np.int32), 4, 0)
        self.engine.execute(
            PimInstruction(PimOp.PIM_ALU, size=256, src_regs=(2,), dst_reg=3,
                           func=AluFunc.CMP_GE, imm_lo=0, pred_reg=1), 0
        )
        result = self.engine.registers[3].lanes(4)
        expected = np.array([0, 1, 0, 1] * 16, dtype=np.int32)
        assert np.array_equal(result[:64], expected)

    def test_fully_squashed_load_skips_dram(self):
        self._load_and_compare([1, 2, 3, 4] * 16, threshold=100)  # no matches
        before = dram_bytes_read(self.hmc)
        target = self.image.allocate("col2", 256)
        done = self.engine.execute(
            PimInstruction(PimOp.PIM_LOAD, address=target.base, size=256,
                           dst_reg=2, pred_reg=1), 0
        )
        after = dram_bytes_read(self.hmc)
        assert after == before  # no DRAM access at all
        assert self.engine.stats.get("squashed_loads") == 1
        assert self.engine.stats.get("dram_bytes_skipped") == 256
        assert done > 0

    def test_partially_matching_load_reads_full_region_by_default(self):
        self._load_and_compare([1, 10, 2, 20] * 16, threshold=5)
        target = self.image.allocate("col2", 256)
        before = dram_bytes_read(self.hmc)
        self.engine.execute(
            PimInstruction(PimOp.PIM_LOAD, address=target.base, size=256,
                           dst_reg=2, pred_reg=1), 0
        )
        read = dram_bytes_read(self.hmc) - before
        assert read == 256  # paper mode: region squash only

    def test_partial_load_extension_reads_fewer_bytes(self):
        from dataclasses import replace

        config = replace(hipe_logic_config(), partial_predicated_loads=True)
        engine = HipeEngine(config, self.hmc, self.image)
        alloc = self.image.allocate_array(
            "c1", np.array([1, 10, 2, 20] * 16, dtype=np.int32))
        engine.execute(PimInstruction(PimOp.PIM_LOAD, address=alloc.base,
                                      size=256, dst_reg=0), 0)
        engine.execute(PimInstruction(PimOp.PIM_ALU, size=256, src_regs=(0,),
                                      dst_reg=1, func=AluFunc.CMP_GE, imm_lo=5), 0)
        target = self.image.allocate("c2", 256)
        before = dram_bytes_read(self.hmc)
        engine.execute(PimInstruction(PimOp.PIM_LOAD, address=target.base,
                                      size=256, dst_reg=2, pred_reg=1), 0)
        read = dram_bytes_read(self.hmc) - before
        assert read == 128  # 32 of 64 lanes matched

    def test_pred_expect_false_inverts(self):
        self._load_and_compare([0, 10] * 32, threshold=5)
        self.engine.registers.write(2, np.full(64, 3, dtype=np.int32), 4, 0)
        self.engine.execute(
            PimInstruction(PimOp.PIM_ALU, size=256, src_regs=(2,), dst_reg=3,
                           func=AluFunc.CMP_GE, imm_lo=0, pred_reg=1,
                           pred_expect=False), 0
        )
        result = self.engine.registers[3].lanes(4)[:64]
        assert np.array_equal(result, np.array([1, 0] * 32, dtype=np.int32))

    def test_requires_predication_config(self):
        with pytest.raises(ValueError):
            HipeEngine(hive_logic_config(), self.hmc, self.image)

    @given(st.lists(st.integers(0, 30), min_size=8, max_size=64))
    @settings(max_examples=30, deadline=None)
    def test_predicated_conjunction_equals_reference(self, values):
        """HIPE's predicated cmp chain == plain numpy conjunction."""
        hmc, image = make_cube()
        engine = HipeEngine(hipe_logic_config(), hmc, image)
        col1 = np.array(values, dtype=np.int32)
        col2 = (col1 * 7 + 3) % 31
        a1 = image.allocate_array("c1", col1)
        a2 = image.allocate_array("c2", col2.astype(np.int32))
        n = len(values)
        engine.execute(PimInstruction(PimOp.PIM_LOAD, address=a1.base,
                                      size=4 * n, dst_reg=0), 0)
        engine.execute(PimInstruction(PimOp.PIM_ALU, size=4 * n, src_regs=(0,),
                                      dst_reg=0, func=AluFunc.CMP_GE, imm_lo=10), 0)
        engine.execute(PimInstruction(PimOp.PIM_LOAD, address=a2.base,
                                      size=4 * n, dst_reg=1, pred_reg=0), 0)
        engine.execute(PimInstruction(PimOp.PIM_ALU, size=4 * n, src_regs=(1,),
                                      dst_reg=1, func=AluFunc.CMP_LT, imm_lo=15,
                                      pred_reg=0), 0)
        got = engine.registers[1].lanes(4)[:n] != 0
        expected = (col1 >= 10) & (col2 < 15)
        assert np.array_equal(got, expected)


class TestBackends:
    def test_hive_backend_posted_vs_status(self):
        hmc, image = make_cube()
        engine = HiveEngine(hive_logic_config(), hmc, image)
        backend = HiveBackend(engine, hmc)
        posted, posted_release = backend.submit(
            pim(1, PimInstruction(PimOp.LOCK)), 0)
        status, status_release = backend.submit(
            pim(2, PimInstruction(PimOp.UNLOCK, returns_value=True), dst=1), 0)
        assert posted < status  # status waits for the response packet
        # The posted instruction's buffer entry frees only once the
        # in-order sequencer has consumed it (engine-side backpressure).
        assert posted_release >= posted
        assert status_release >= status

    def test_hipe_backend_window_from_buffer(self):
        hmc, image = make_cube()
        engine = HipeEngine(hipe_logic_config(), hmc, image)
        backend = HipeBackend(engine, hmc)
        assert backend.max_outstanding == hipe_logic_config().instruction_buffer_entries

    def test_backend_rejects_bare_uop(self):
        hmc, image = make_cube()
        backend = HiveBackend(HiveEngine(hive_logic_config(), hmc, image), hmc)
        with pytest.raises(ValueError):
            backend.submit(Uop(UopClass.PIM, pc=1), 0)
