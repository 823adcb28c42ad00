"""The HIVE logic-layer engine (prior work the paper builds on and re-balances).

Architecture (paper §II-A / §III and Table I "HIVE Logic"):

* an **in-order instruction sequencer** fed by the serial links,
* the **interlocked register bank** (36 x 256 B): loads do not block the
  sequencer — execution stalls only when an instruction *reads* a
  register whose producer is still outstanding,
* **unified vector functional units** at 1 GHz (latencies in core cycles:
  int 2/6/40, fp 10/10/40),
* **lock/unlock** instructions that grant a core exclusive access to the
  register bank: a locked block must fully drain before the next block
  may start — the "isolated lock/unlock block" control dependency that
  makes un-unrolled HIVE streaming slow (Figures 3a/3b), and that loop
  unrolling amortises (Figure 3c).

HIVE stores bypass the processor's caches (they move register -> DRAM
inside the cube), so the engine invalidates any cached copies; processor
reads of a HIVE-produced bitmask therefore pay DRAM latency — the
column-at-a-time penalty the paper describes for Figure 3b.

The engine is functional: it computes real values against the memory
image, so scan results are verified bit-for-bit.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..common.config import PimLogicConfig
from ..common.stats import StatGroup
from ..common.units import ceil_div
from ..cpu.core import PimBackend
from ..cpu.isa import AluFunc, PimInstruction, PimOp
from ..memory.hmc import Hmc
from ..memory.image import MemoryImage
from .ops import apply_alu, apply_compound
from .register_bank import PimRegisterBank

_LANE_DTYPES = {1: np.int8, 2: np.int16, 4: np.int32, 8: np.int64}


class HiveEngine:
    """In-order sequencer + interlocked register bank in the cube's logic layer."""

    #: core cycles the sequencer spends dispatching one instruction
    #: (the two-wide sequencer dispatches two instructions per 1 GHz cycle)
    DISPATCH_OVERHEAD = 1
    #: core cycles consumed by a squashed (fully predicated-off) instruction
    SQUASH_LATENCY = 2
    #: extra sequencer occupancy of the predication match logic: reading
    #: the predicate register's zero flags and deciding costs one 1 GHz
    #: logic cycle per predicated instruction
    PRED_CHECK_LATENCY = 2

    def __init__(
        self,
        config: PimLogicConfig,
        hmc: Hmc,
        image: MemoryImage,
        stats: Optional[StatGroup] = None,
        invalidate_range: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        self.config = config
        self.hmc = hmc
        self.image = image
        self.stats = stats if stats is not None else StatGroup(config.name)
        self.registers = PimRegisterBank(config, self.stats.child("register_bank"))
        self._invalidate_range = invalidate_range
        self._seq_time = 0  # sequencer dispatch clock
        self._lock_free = 0  # when the next LOCK may be granted
        self._block_watermark = 0  # completion of everything in the block
        self.last_completion = 0  # engine drain time (run end accounting)
        self.max_op_bytes = max(config.op_sizes)
        self.stats.batch(self, (
            ("_n_instructions", "instructions"),
            ("_n_locks", "locks"),
            ("_n_unlocks", "unlocks"),
            ("_n_loads", "loads"),
            ("_n_squashed_loads", "squashed_loads"),
            ("_n_partial_loads", "partial_loads"),
            ("_n_stores", "stores"),
            ("_n_squashed_stores", "squashed_stores"),
            ("_n_pack", "pack_ops"),
            ("_n_unpack", "unpack_ops"),
            ("_n_alu", "alu_ops"),
            ("_n_alu_lanes", "alu_lanes"),
            ("_n_bytes_loaded", "dram_bytes_loaded"),
            ("_n_bytes_stored", "dram_bytes_stored"),
            ("_n_bytes_skipped", "dram_bytes_skipped"),
        ))
        # Dense handler table indexed by PimOp.index (built once; enum
        # hashing per instruction is measurable on million-uop traces).
        handlers = {
            PimOp.LOCK: self._do_lock,
            PimOp.UNLOCK: self._do_unlock,
            PimOp.PIM_LOAD: self._do_load,
            PimOp.PIM_LOAD_MASK: self._do_load,
            PimOp.PIM_STORE: self._do_store,
            PimOp.PIM_STORE_MASK: self._do_store,
            PimOp.PIM_ALU: self._do_alu,
            PimOp.PACK_MASK: self._do_pack,
            PimOp.UNPACK_MASK: self._do_unpack,
        }
        self._handlers = [None] * len(PimOp)
        for op, handler in handlers.items():
            self._handlers[op.index] = handler

    # -- latency helpers ----------------------------------------------------

    def _alu_latency(self, func: AluFunc) -> int:
        if func == AluFunc.MUL:
            return self.config.int_mul_latency
        return self.config.int_alu_latency

    def _check_size(self, nbytes: int) -> None:
        if nbytes > self.max_op_bytes:
            raise ValueError(
                f"operation size {nbytes} exceeds the engine's "
                f"{self.max_op_bytes} B maximum"
            )

    # -- predication (overridden no-op here; HIPE enables it) ----------------

    def _predicate_lanes(self, inst: PimInstruction, start: int):
        """Evaluate a predicate; returns (gate_time, lane_mask | None).

        Plain HIVE has no predication support — predicated instructions
        are a HIPE capability (config.predication).
        """
        if inst.pred_reg is None:
            return start, None
        if not self.config.predication:
            raise ValueError(
                f"{self.config.name} has no predication support; "
                "predicated instructions require HIPE"
            )
        predicate = self.registers.read(inst.pred_reg)
        gate = max(start, predicate.ready) + self.PRED_CHECK_LATENCY
        lanes = inst.size // inst.lane_bytes if inst.size else predicate.lane_match.size
        flags = predicate.lane_match[:lanes]
        # The mask is consumed before any register write can clobber the
        # predicate's flags, so no defensive copy is needed.
        wanted = flags if inst.pred_expect else ~flags
        return gate, wanted

    # -- the sequencer -------------------------------------------------------

    def execute(self, inst: PimInstruction, arrival: int) -> int:
        """Run one instruction arriving at ``arrival``; returns completion.

        The sequencer picks instructions up in order; a data dependence
        (unready source register) stalls it — the interlock lets loads
        proceed in the background otherwise.
        """
        dispatch = max(arrival, self._seq_time)
        self._n_instructions += 1

        handler = self._handlers[inst.op.index]
        if handler is None:
            raise ValueError(f"{self.config.name} cannot execute {inst.op!r}")
        completion = handler(inst, dispatch)
        if completion > self._block_watermark:
            self._block_watermark = completion
        if completion > self.last_completion:
            self.last_completion = completion
        return completion

    def _advance(self, start: int) -> int:
        """Charge the dispatch slot; returns when execution may begin."""
        self._seq_time = start + self.DISPATCH_OVERHEAD
        return self._seq_time

    # -- instruction classes ----------------------------------------------------

    def _do_lock(self, inst: PimInstruction, dispatch: int) -> int:
        granted = max(dispatch, self._lock_free)
        completion = self._advance(granted)
        self._block_watermark = completion
        self._n_locks += 1
        return completion

    def _do_unlock(self, inst: PimInstruction, dispatch: int) -> int:
        # The unlock *status* means "the block's work is done", so its
        # completion (what a status-reading core waits for) is the block
        # watermark.  The register bank itself is free for the next
        # block as soon as the sequencer has drained the instructions —
        # the per-register interlock already serialises any true reuse —
        # so back-to-back blocks from a streaming core pipeline.
        drained = self._advance(dispatch)
        completion = max(drained, self._block_watermark)
        self._lock_free = drained
        self._n_unlocks += 1
        return completion

    def _do_load(self, inst: PimInstruction, dispatch: int) -> int:
        self._check_size(inst.size)
        destination = self.registers[inst.dst_reg]
        # WAW interlock: the register must be free of its prior producer.
        gate = max(dispatch, destination.ready)
        gate, wanted = self._predicate_lanes(inst, gate)
        start = self._advance(gate)

        if inst.op == PimOp.PIM_LOAD_MASK:
            # Mask transfers move one byte per lane (the byte-mask layout).
            lanes = inst.size
            footprint = inst.size
        else:
            lanes = inst.size // inst.lane_bytes
            footprint = inst.size
        if wanted is not None and not wanted.any():
            # Fully squashed: no DRAM access at all.
            self._n_squashed_loads += 1
            self._n_bytes_skipped += footprint
            done = start + self.SQUASH_LATENCY
            self.registers.write(
                inst.dst_reg, np.zeros(footprint, dtype=np.uint8), inst.lane_bytes, done
            )
            return done

        if wanted is not None and self.config.partial_predicated_loads:
            # Extension: gather only the matching lanes' bytes.
            matched = int(wanted.sum())
            effective = max(8, matched * inst.lane_bytes)
            self._n_partial_loads += 1
            self._n_bytes_skipped += footprint - effective
        else:
            effective = footprint
        done = self.hmc.vault_access(start, inst.address, effective, is_write=False)

        if inst.op == PimOp.PIM_LOAD_MASK:
            mask_bytes = self.image.read(inst.address, lanes)
            values = (mask_bytes != 0).astype(_LANE_DTYPES[inst.lane_bytes])
        else:
            raw = self.image.read(inst.address, inst.size)
            values = raw.view(_LANE_DTYPES[inst.lane_bytes]).copy()
            if wanted is not None:
                values[~wanted] = 0  # unloaded lanes carry no data
        self.registers.write(inst.dst_reg, values, inst.lane_bytes, done)
        self._n_loads += 1
        self._n_bytes_loaded += effective
        return done

    def _do_store(self, inst: PimInstruction, dispatch: int) -> int:
        source = self.registers.read(inst.src_regs[0])
        gate = max(dispatch, source.ready)
        gate, wanted = self._predicate_lanes(inst, gate)
        start = self._advance(gate)

        if inst.op == PimOp.PIM_STORE_MASK:
            # Byte-mask layout: one byte per lane, from the zero flags.
            lanes = inst.size if inst.size else source.lane_match.size
            payload = source.lane_match[:lanes].astype(np.uint8)
            nbytes = lanes
        else:
            payload = source.value[: inst.size].copy()
            nbytes = inst.size
        self._check_size(nbytes)

        if wanted is not None and not wanted.any():
            self._n_squashed_stores += 1
            self._n_bytes_skipped += nbytes
            return start + self.SQUASH_LATENCY
        if wanted is not None and inst.op == PimOp.PIM_STORE:
            # Predicated store: only the matched lanes' values land.
            current = self.image.read(inst.address, nbytes)
            merged = current.view(_LANE_DTYPES[inst.lane_bytes]).copy()
            merged[wanted] = payload.view(_LANE_DTYPES[inst.lane_bytes])[wanted]
            payload = merged.view(np.uint8)
            if self.config.partial_predicated_loads:
                matched = int(wanted.sum())
                effective = max(8, matched * inst.lane_bytes)
                self._n_bytes_skipped += nbytes - effective
            else:
                effective = nbytes
        else:
            effective = nbytes

        drained = self.hmc.vault_access(start, inst.address, effective, is_write=True)
        self.image.write(inst.address, payload)
        if self._invalidate_range is not None:
            # In-memory stores bypass the processor caches.
            self._invalidate_range(inst.address, nbytes)
        self._n_stores += 1
        self._n_bytes_stored += effective
        # Stores are posted: the source register frees once the data is
        # handed to the vault queue, so the block does not wait for the
        # DRAM write to land — but the run's drain time does.
        if drained > self.last_completion:
            self.last_completion = drained
        return start + self.DISPATCH_OVERHEAD

    def _do_pack(self, inst: PimInstruction, dispatch: int) -> int:
        """Deposit ``src``'s zero flags as bits at ``imm_lo`` of the accumulator.

        ``size`` is the number of lanes (tuples) being packed.  The
        accumulator keeps its other bits, so a block's chunks accumulate
        into one register that a single store then writes to DRAM.
        """
        source = self.registers.read(inst.src_regs[0])
        accumulator = self.registers[inst.dst_reg]
        start = self._advance(max(dispatch, source.ready, accumulator.ready))
        done = start + self.config.int_alu_latency
        lanes = inst.size if inst.size else source.lane_match.size
        bit_offset = inst.imm_lo
        flags = source.lane_match[:lanes]
        if bit_offset % 8 == 0:
            # Byte-aligned deposit (every whole-byte chunk): pack the
            # flags straight into the accumulator bytes — the common
            # case, without round-tripping the whole 2048-bit register
            # through unpackbits/packbits per chunk.
            packed = np.packbits(flags, bitorder="little")
            accumulator.value[bit_offset // 8 : bit_offset // 8 + packed.size] = packed
        else:
            bits = np.unpackbits(accumulator.value, bitorder="little")
            bits[bit_offset : bit_offset + lanes] = flags
            # Zero the tail of the last touched byte so a partial final
            # chunk never leaks stale bits into the stored mask.
            byte_end = (bit_offset + lanes + 7) // 8 * 8
            bits[bit_offset + lanes : byte_end] = False
            accumulator.value[:] = np.packbits(bits, bitorder="little")
        np.not_equal(accumulator.value.view(np.int32), 0, out=accumulator.lane_match)
        accumulator.ready = max(accumulator.ready, done)
        self._n_pack += 1
        self.registers._n_writes += 1
        return done

    def _do_unpack(self, inst: PimInstruction, dispatch: int) -> int:
        """Expand packed bits at ``imm_lo`` of ``src`` into 0/1 lanes."""
        source = self.registers.read(inst.src_regs[0])
        destination = self.registers[inst.dst_reg]
        start = self._advance(max(dispatch, source.ready, destination.ready))
        done = start + self.config.int_alu_latency
        lanes = inst.size // inst.lane_bytes
        bits = np.unpackbits(source.value, bitorder="little")
        values = bits[inst.imm_lo : inst.imm_lo + lanes].astype(
            _LANE_DTYPES[inst.lane_bytes]
        )
        self.registers.write(inst.dst_reg, values, inst.lane_bytes, done)
        self._n_unpack += 1
        return done

    def _do_alu(self, inst: PimInstruction, dispatch: int) -> int:
        sources = [self.registers.read(r) for r in inst.src_regs]
        gate = dispatch
        for source in sources:
            if source.ready > gate:
                gate = source.ready
        gate, wanted = self._predicate_lanes(inst, gate)
        start = self._advance(gate)
        latency = self._alu_latency(inst.func)
        done = start + latency

        lane_dtype = _LANE_DTYPES[inst.lane_bytes]
        if inst.compound is not None:
            # Whole-tuple conjunction over row-store bytes in the register.
            raw = sources[0].value[: inst.size] if inst.size else sources[0].value
            result = apply_compound(raw, inst.tuple_stride, inst.compound)
        else:
            count = inst.size // inst.lane_bytes if inst.size else None
            a = sources[0].lanes(inst.lane_bytes)
            b = sources[1].lanes(inst.lane_bytes) if len(sources) > 1 else None
            if count:
                a = a[:count]
                b = b[:count] if b is not None else None
            result = apply_alu(inst.func, a, b, imm_lo=inst.imm_lo, imm_hi=inst.imm_hi)
        if wanted is not None:
            result = result.copy()
            result[~wanted[: result.size]] = 0  # predicated-off lanes produce 0
        self.registers.write(
            inst.dst_reg, result.astype(lane_dtype, copy=False), inst.lane_bytes, done
        )
        self._n_alu += 1
        self._n_alu_lanes += result.size
        return done


class HiveBackend(PimBackend):
    """Core-side adapter: ships HIVE/HIPE instructions over the links."""

    def __init__(
        self,
        engine: HiveEngine,
        hmc: Hmc,
        stats: Optional[StatGroup] = None,
        max_outstanding: Optional[int] = None,
    ) -> None:
        self.engine = engine
        self.hmc = hmc
        self.stats = stats if stats is not None else StatGroup("hive_backend")
        if max_outstanding is None:
            # The engine's instruction buffer bounds how many in-flight
            # instructions the core may stream into the cube.
            max_outstanding = engine.config.instruction_buffer_entries
        self.max_outstanding = max_outstanding
        self.stats.batch(self, (("_n_sent", "instructions_sent"),))

    def submit_inst(self, inst: PimInstruction, cycle: int) -> tuple:
        """One instruction packet out; completion depends on returns_value.

        The instruction-buffer entry is held until the in-order
        sequencer has dispatched the instruction: a core streaming
        posted instructions faster than the engine drains them fills the
        32-entry buffer and stalls — bounding how far the engine's clock
        can run ahead of the core's.  (Before this backpressure the
        modelled buffer was unbounded, which no hardware is.)
        """
        __, accepted, arrival = self.hmc.links.request(cycle)
        completion = self.engine.execute(inst, arrival)
        release = self.engine._seq_time  # the sequencer consumed the entry
        self._n_sent += 1
        if inst.returns_value:
            lanes = max(1, inst.size // inst.lane_bytes) if inst.size else 1
            payload = max(2, ceil_div(lanes, 8))
            arrival = self.hmc.links.response(completion, payload)[2]
            return arrival, max(arrival, release)
        return accepted, release
