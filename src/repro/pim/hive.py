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

The engine times an instruction when it issues and computes its values
later, in bulk.  Timing needs only register readiness, addresses and
sizes; the values — what loads read, ALU ops compute, PACK/UNPACK move,
stores write and a tuple scan's UNLOCK returns — go to a functional log
that :class:`~repro.pim.evaluator.Evaluator` runs in program order, one
numpy call per op across all the iterations of a loop body.  The log is
evaluated wherever something reads its results: a direct access to the
register bank or the memory image, a replay bulk hook, a snapshot, the
end of a run, and a full slice (:data:`VALUE_SLICE_OPS`).  HIPE's
predicated loads and stores read data to time themselves (the
predicate's zero flags decide a squash), so from the first one on the
engine computes each value as its instruction issues, until a locked
block issues no predicated op.  Either way the values are the real ones
against the memory image, bit-identical to computing each instruction
as it issues, so scan results are verified bit-for-bit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..common.config import PimLogicConfig
from ..common.stats import StatGroup
from ..common.units import ceil_div
from ..cpu.core import PimBackend
from ..cpu.isa import AluFunc, PimInstruction, PimOp
from ..memory.hmc import Hmc
from ..memory.image import MemoryImage
from .evaluator import LOGGED_OPS, Evaluator
from .register_bank import PimRegisterBank

#: the functional log's slice: the engine evaluates the log at the first
#: LOCK that finds this many ops in it (at any op once it holds twice as
#: many), which bounds the log and its batched register arrays (about
#: 1 MiB per slice) the way :data:`~repro.pim.hmc_isa.MASK_SLICE_OPS`
#: bounds the HMC's; a LOCK starts a block, so slices hold whole loop
#: bodies
VALUE_SLICE_OPS = 4096


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
        self.registers.settle = self.settle
        self._invalidate_range = invalidate_range
        self._seq_time = 0  # sequencer dispatch clock
        self._lock_free = 0  # when the next LOCK may be granted
        self._block_watermark = 0  # completion of everything in the block
        self.last_completion = 0  # engine drain time (run end accounting)
        self.max_op_bytes = max(config.op_sizes)
        # The functional log: each logged op and its address at issue
        # (compiled kernels reuse one instruction object per body step).
        self._log_insts: List[PimInstruction] = []
        self._log_addrs: List[int] = []
        self._evaluator = Evaluator(self.registers, image)
        #: predicated code is running: ops are evaluated as they issue
        self._eager = False
        #: a predicated op issued since the last LOCK
        self._predicated = False
        image.defer(self._run_log)
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
            PimOp.PIM_STORE: self._do_store,
            PimOp.PIM_ALU: self._do_alu,
            PimOp.PACK_MASK: self._do_pack,
            PimOp.UNPACK_MASK: self._do_unpack,
        }
        self._handlers = [None] * len(PimOp)
        for op, handler in handlers.items():
            self._handlers[op.index] = handler

    # -- the functional log ---------------------------------------------------

    def _log(self, inst: PimInstruction) -> None:
        """Log the values ``inst`` computes, or compute them now."""
        if self._eager:
            self._evaluator.step(inst, inst.address)
            return
        insts = self._log_insts
        insts.append(inst)
        self._log_addrs.append(inst.address)
        if len(insts) >= 2 * VALUE_SLICE_OPS:
            self._run_log()

    def _run_log(self) -> None:
        """Compute the values of every logged op, in program order."""
        insts = self._log_insts
        if not insts:
            return
        addrs = self._log_addrs
        # Accesses made while evaluating find an empty log.
        self._log_insts = []
        self._log_addrs = []
        self._evaluator.run(insts, addrs)

    def settle(self) -> None:
        """Bring every register value, zero flag and memory byte the
        issued instructions produce up to date."""
        self._run_log()
        self._evaluator.refresh()

    def log_iterations(self, insts: Sequence[PimInstruction], regions,
                       count: int) -> None:
        """Evaluate ``count`` iterations of a run without timing them.

        The functional side of the iterations the replay layer skips:
        ``insts`` are the first one's instructions, and each later
        iteration repeats them with every address advanced by the
        stride of the run region (:class:`~repro.codegen.base.Region`)
        that holds it.  They follow everything logged so far.
        """
        self._run_log()
        body = [inst for inst in insts if inst.op in LOGGED_OPS
                and (inst.op is not PimOp.UNLOCK or inst.src_regs)]
        if not body or count <= 0:
            return
        strides = np.zeros(len(body), dtype=np.int64)
        for k, inst in enumerate(body):
            if inst.op is PimOp.PIM_LOAD or inst.op is PimOp.PIM_STORE:
                stride = next((region.stride for region in regions
                               if region.lo <= inst.address < region.hi),
                              Fraction(0))
                if stride.denominator != 1:
                    raise ValueError(
                        f"engine op at {inst.address:#x} advances a "
                        f"fractional {stride} B per iteration")
                strides[k] = int(stride)
        first = np.array([inst.address for inst in body], dtype=np.int64)
        step = max(1, VALUE_SLICE_OPS // len(body))
        for i0 in range(0, count, step):
            advance = np.arange(i0, min(i0 + step, count), dtype=np.int64)
            self._evaluator.iterations(body, first + advance[:, None] * strides)

    def unlock_flags(self) -> np.ndarray:
        """The zero flags each value-returning UNLOCK read from its source
        register (a tuple scan's match status), one row per UNLOCK in
        program order: ``(unlocks, 8)`` uint8, packed little-endian."""
        self.settle()
        return self._evaluator.readout_table()

    def __getstate__(self):
        # A snapshot carries the values and no log.
        self.settle()
        return self.__dict__.copy()

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self.image.defer(self._run_log)

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

    # -- predication (refused here; HIPE enables it) --------------------------

    def _predicate_gate(self, inst: PimInstruction, start: int) -> int:
        """When a predicated instruction may proceed past the match logic.

        Plain HIVE has no predication support — predicated instructions
        are a HIPE capability (config.predication).
        """
        if not self.config.predication:
            raise ValueError(
                f"{self.config.name} has no predication support; "
                "predicated instructions require HIPE"
            )
        self._predicated = True
        predicate = self.registers.read(inst.pred_reg)
        return max(start, predicate.ready) + self.PRED_CHECK_LATENCY

    def _predicate_lanes(self, inst: PimInstruction, start: int):
        """``(gate, lanes moved)`` of a predicated load or store.

        Which lanes move decides the transfer's timing, so the
        predicate's value must be current: the log is evaluated first,
        and the engine evaluates ops as they issue from then on, until a
        locked block issues no predicated op.
        """
        gate = self._predicate_gate(inst, start)
        if not self._eager:
            self._run_log()
            self._eager = True
        flags = self._evaluator.flags(inst.pred_reg)
        lanes = inst.size // inst.lane_bytes if inst.size else flags.size
        return gate, (flags[:lanes] if inst.pred_expect else ~flags[:lanes])

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
        if not self._predicated:
            self._eager = False
        self._predicated = False
        if len(self._log_insts) >= VALUE_SLICE_OPS:
            self._run_log()
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
        if inst.src_regs:
            self._log(inst)  # the status it returns is its source's flags
        return completion

    def _do_load(self, inst: PimInstruction, dispatch: int) -> int:
        footprint = inst.size
        if footprint > self.max_op_bytes:
            self._check_size(footprint)
        destination = self.registers.peek(inst.dst_reg)
        # WAW interlock: the register must be free of its prior producer.
        gate = max(dispatch, destination.ready)
        effective = footprint
        if inst.pred_reg is not None:
            gate, wanted = self._predicate_lanes(inst, gate)
            start = self._advance(gate)
            if not wanted.any():
                # Fully squashed: no DRAM access at all.
                self._n_squashed_loads += 1
                self._n_bytes_skipped += footprint
                done = start + self.SQUASH_LATENCY
                self._written(inst, destination, done)
                return done
            if self.config.partial_predicated_loads:
                # Extension: gather only the matching lanes' bytes.
                effective = max(8, int(wanted.sum()) * inst.lane_bytes)
                self._n_partial_loads += 1
                self._n_bytes_skipped += footprint - effective
        else:
            start = self._advance(gate)
        done = self.hmc.vault_access(start, inst.address, effective, is_write=False)
        self._written(inst, destination, done)
        self._n_loads += 1
        self._n_bytes_loaded += effective
        return done

    def _written(self, inst: PimInstruction, destination, done: int) -> None:
        """Time ``inst``'s register write and log the value it writes."""
        if done > destination.ready:
            destination.ready = done
        self.registers._n_writes += 1
        self._log(inst)

    def _do_store(self, inst: PimInstruction, dispatch: int) -> int:
        source = self.registers.read(inst.src_regs[0])
        gate = max(dispatch, source.ready)
        nbytes = inst.size
        effective = nbytes
        if inst.pred_reg is not None:
            gate, wanted = self._predicate_lanes(inst, gate)
            start = self._advance(gate)
            self._check_size(nbytes)
            if not wanted.any():
                self._n_squashed_stores += 1
                self._n_bytes_skipped += nbytes
                return start + self.SQUASH_LATENCY
            # Predicated store: only the matched lanes' values land.
            if self.config.partial_predicated_loads:
                effective = max(8, int(wanted.sum()) * inst.lane_bytes)
                self._n_bytes_skipped += nbytes - effective
        else:
            start = self._advance(gate)
            self._check_size(nbytes)

        drained = self.hmc.vault_access(start, inst.address, effective, is_write=True)
        self._log(inst)
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
        registers = self.registers
        source = registers.read(inst.src_regs[0])
        accumulator = registers.peek(inst.dst_reg)
        start = self._advance(max(dispatch, source.ready, accumulator.ready))
        done = start + self.config.int_alu_latency
        self._written(inst, accumulator, done)
        self._n_pack += 1
        return done

    def _do_unpack(self, inst: PimInstruction, dispatch: int) -> int:
        """Expand packed bits at ``imm_lo`` of ``src`` into 0/1 lanes."""
        registers = self.registers
        source = registers.read(inst.src_regs[0])
        destination = registers.peek(inst.dst_reg)
        start = self._advance(max(dispatch, source.ready, destination.ready))
        done = start + self.config.int_alu_latency
        self._written(inst, destination, done)
        self._n_unpack += 1
        return done

    def _do_alu(self, inst: PimInstruction, dispatch: int) -> int:
        registers = self.registers
        gate = dispatch
        for r in inst.src_regs:
            ready = registers.read(r).ready
            if ready > gate:
                gate = ready
        if inst.pred_reg is not None:
            # The match logic gates on the predicate register, but an ALU
            # op's timing never depends on which lanes it keeps.
            gate = self._predicate_gate(inst, gate)
        start = self._advance(gate)
        done = start + self._alu_latency(inst.func)
        self._written(inst, registers.peek(inst.dst_reg), done)
        self._n_alu += 1
        register_bytes = self.config.register_bytes
        if inst.compound is not None:
            nbytes = min(inst.size or register_bytes, register_bytes)
            self._n_alu_lanes += max(1, nbytes // inst.tuple_stride)
        else:
            whole = register_bytes // inst.lane_bytes
            self._n_alu_lanes += min(inst.size // inst.lane_bytes or whole, whole)
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
