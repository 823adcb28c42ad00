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

The issue path.  The sequencer times an instruction from its static
shape (op, size, registers, ALU function, lanes, predicate,
``returns_value``, compound terms, tuple stride) and a few clocks: its
own dispatch clock, the registers' ready times, the link lanes, the
vault and the bank.  So the engine builds one function per shape, on
first use (:meth:`HiveEngine.function`), that does in one frame all an
instruction's issue takes: the request crossing, dispatch and the
interlock gates, the op's latency or its cube access
(:meth:`~repro.memory.hmc.Hmc.vault_access`), the register ready
times, the functional log, the counters and, for a value-returning
instruction, the response crossing.  The run-compiled kernels bind
each PIM step's function when they compile a body
(:meth:`HiveBackend.issuer`); :meth:`HiveBackend.submit_inst` and
:meth:`HiveEngine.execute` look the function up by shape.  The clocks
and counters stay engine attributes, which the replay layer shifts and
extrapolates, and a snapshot drops the functions (they are closures),
to be rebuilt on first use.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

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

_PREDICATED_OPS = frozenset({PimOp.PIM_LOAD, PimOp.PIM_STORE, PimOp.PIM_ALU})
_REGISTER_OPS = frozenset({PimOp.PIM_ALU, PimOp.PACK_MASK, PimOp.UNPACK_MASK})


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
        #: the timing function of each instruction shape (see :meth:`function`)
        self._functions: Dict[tuple, Callable] = {}

    # -- the functional log ---------------------------------------------------

    def _run_log(self) -> None:
        """Compute the values of every logged op, in program order."""
        insts = self._log_insts
        if not insts:
            return
        addrs = self._log_addrs
        # Accesses made while evaluating find an empty log; the lists
        # stay the same objects, which the issue functions append to.
        logged = insts[:], addrs[:]
        insts.clear()
        addrs.clear()
        self._evaluator.run(*logged)

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
        # A snapshot carries the values and no log, and no issue
        # functions: they are closures, rebuilt on first use.
        self.settle()
        state = self.__dict__.copy()
        state["_functions"] = {}
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self.image.defer(self._run_log)

    # -- the issue path ------------------------------------------------------

    def function(self, inst: PimInstruction, backend=None) -> Callable:
        """The timing function of ``inst``'s shape, built on first use.

        A shape is everything that decides an instruction's timing but
        its address: the op, size, registers, ALU function, lanes,
        predicate, ``returns_value``, compound terms and tuple stride.
        The function takes an instruction of that shape and a cycle.
        With a ``backend`` it is the whole of
        :meth:`HiveBackend.submit_inst` (the cycle is when the core
        sends the packet, and it returns ``(completion, release)``);
        without, it is :meth:`execute` (the cycle is the arrival, and
        it returns the completion).
        """
        key = (backend, inst.op, inst.size, inst.dst_reg, inst.src_regs,
               inst.func, inst.lane_bytes, inst.pred_reg, inst.pred_expect,
               inst.returns_value, inst.compound, inst.tuple_stride)
        fn = self._functions.get(key)
        if fn is None:
            fn = self._functions[key] = self._build(inst, backend)
        return fn

    def execute(self, inst: PimInstruction, arrival: int) -> int:
        """Run one instruction arriving at ``arrival``; returns completion.

        The sequencer picks instructions up in order; a data dependence
        (unready source register) stalls it — the interlock lets loads
        proceed in the background otherwise.
        """
        return self.function(inst)(inst, arrival)

    def _build(self, inst: PimInstruction, backend) -> Callable:
        """One function that times every instruction of ``inst``'s shape.

        Each function does in one frame what the sequencer does: the
        request crossing (with a backend), dispatch and the interlock
        gates, the op's latency or its cube access, the register ready
        times, the functional log (or the value, while predicated code
        runs), the counters, and the response crossing of a
        value-returning instruction.  What depends only on the shape —
        registers, latencies, lane counts, payloads — is looked up here,
        once; the clocks and counters stay engine attributes, which the
        replay layer shifts and extrapolates.
        """
        config = self.config
        op = inst.op
        eng = self
        bank = self.registers
        peek = bank.peek
        cross = backend is not None
        if cross:
            request = backend.hmc.links.request
            response = backend.hmc.links.response
        returns = inst.returns_value
        # A value-returning instruction's response carries a flag bit
        # per lane.
        payload = max(2, ceil_div(
            max(1, inst.size // inst.lane_bytes) if inst.size else 1, 8))
        size = inst.size
        dispatch_cycles = self.DISPATCH_OVERHEAD
        squash_cycles = self.SQUASH_LATENCY
        alu_latency = config.int_alu_latency
        vault_access = self.hmc.vault_access
        log_insts, log_addrs = self._log_insts, self._log_addrs
        step = self._evaluator.step
        run_log = self._run_log
        log_limit = 2 * VALUE_SLICE_OPS

        # Loads, stores and ALU ops may carry a predicate.
        predicated = inst.pred_reg is not None and op in _PREDICATED_OPS
        if predicated:
            if not config.predication:
                raise ValueError(
                    f"{config.name} has no predication support; "
                    "predicated instructions require HIPE")
            predicate = peek(inst.pred_reg)
            pred_index = inst.pred_reg
            pred_cycles = self.PRED_CHECK_LATENCY
            flags = self._evaluator.flags
            # The predicate's flags for the op's lanes, and the flag
            # value a moved lane has.
            flag_lanes = inst.size // inst.lane_bytes if inst.size else None
            moves = 1 if inst.pred_expect else 0
            partial = config.partial_predicated_loads
            lane_bytes = inst.lane_bytes
        if (op is PimOp.PIM_LOAD or op is PimOp.PIM_STORE) \
                and not 0 < size <= self.max_op_bytes:
            raise ValueError(
                f"operation size {size} is outside the engine's "
                f"1-{self.max_op_bytes} B range")

        if op is PimOp.LOCK:
            def issue(inst, cycle):
                if cross:
                    __, accepted, cycle = request(cycle)
                    backend._n_sent += 1
                dispatch = eng._seq_time
                if cycle > dispatch:
                    dispatch = cycle
                eng._n_instructions += 1
                if not eng._predicated:
                    eng._eager = False
                eng._predicated = False
                if len(log_insts) >= VALUE_SLICE_OPS:
                    run_log()
                granted = eng._lock_free
                if dispatch > granted:
                    granted = dispatch
                done = eng._seq_time = granted + dispatch_cycles
                eng._block_watermark = done
                eng._n_locks += 1
                if done > eng.last_completion:
                    eng.last_completion = done
                if not cross:
                    return done
                if returns:
                    arrival = response(done, payload)[2]
                    return arrival, max(arrival, eng._seq_time)
                return accepted, eng._seq_time

        elif op is PimOp.UNLOCK:
            # The unlock *status* means "the block's work is done", so
            # its completion (what a status-reading core waits for) is
            # the block watermark.  The register bank itself is free for
            # the next block as soon as the sequencer has drained the
            # instructions — the per-register interlock already
            # serialises any true reuse — so back-to-back blocks from a
            # streaming core pipeline.  An UNLOCK with a source returns
            # that register's flags, so it is logged.
            logged = bool(inst.src_regs)

            def issue(inst, cycle):
                if cross:
                    __, accepted, cycle = request(cycle)
                    backend._n_sent += 1
                dispatch = eng._seq_time
                if cycle > dispatch:
                    dispatch = cycle
                eng._n_instructions += 1
                drained = eng._seq_time = dispatch + dispatch_cycles
                done = eng._block_watermark
                if drained > done:
                    done = eng._block_watermark = drained
                eng._lock_free = drained
                eng._n_unlocks += 1
                if logged:
                    if eng._eager:
                        step(inst, inst.address)
                    else:
                        log_insts.append(inst)
                        log_addrs.append(inst.address)
                        if len(log_insts) >= log_limit:
                            run_log()
                if done > eng.last_completion:
                    eng.last_completion = done
                if not cross:
                    return done
                if returns:
                    arrival = response(done, payload)[2]
                    return arrival, max(arrival, eng._seq_time)
                return accepted, eng._seq_time

        elif op is PimOp.PIM_LOAD:
            destination = peek(inst.dst_reg)

            def issue(inst, cycle):
                if cross:
                    __, accepted, cycle = request(cycle)
                    backend._n_sent += 1
                dispatch = eng._seq_time
                if cycle > dispatch:
                    dispatch = cycle
                eng._n_instructions += 1
                # WAW interlock: the register must be free of its prior
                # producer.
                gate = destination.ready
                if dispatch > gate:
                    gate = dispatch
                moved = size
                if predicated:
                    eng._predicated = True
                    bank._n_reads += 1
                    if predicate.ready > gate:
                        gate = predicate.ready
                    gate += pred_cycles
                    # Which lanes move decides the timing, so the
                    # predicate's value must be current: evaluate the
                    # log, and every op as it issues from now on, until
                    # a locked block issues no predicated op.
                    if not eng._eager:
                        run_log()
                        eng._eager = True
                    wanted = flags(pred_index)[:flag_lanes].tobytes()
                    if moves not in wanted:
                        moved = 0
                    elif partial:
                        # Extension: gather only the matching lanes' bytes.
                        matched = wanted.count(1)
                        moved = max(8, (matched if moves else len(wanted) - matched)
                                    * lane_bytes)
                        eng._n_partial_loads += 1
                        eng._n_bytes_skipped += size - moved
                start = eng._seq_time = gate + dispatch_cycles
                address = inst.address
                if moved:
                    done = vault_access(start, address, moved, False)
                    eng._n_loads += 1
                    eng._n_bytes_loaded += moved
                else:
                    # Fully squashed: no DRAM access at all.
                    done = start + squash_cycles
                    eng._n_squashed_loads += 1
                    eng._n_bytes_skipped += size
                if done > destination.ready:
                    destination.ready = done
                bank._n_writes += 1
                if eng._eager:
                    step(inst, address)
                else:
                    log_insts.append(inst)
                    log_addrs.append(address)
                    if len(log_insts) >= log_limit:
                        run_log()
                if done > eng._block_watermark:
                    eng._block_watermark = done
                if done > eng.last_completion:
                    eng.last_completion = done
                if not cross:
                    return done
                if returns:
                    arrival = response(done, payload)[2]
                    return arrival, max(arrival, eng._seq_time)
                return accepted, eng._seq_time

        elif op is PimOp.PIM_STORE:
            source = peek(inst.src_regs[0])
            invalidate = self._invalidate_range

            def issue(inst, cycle):
                if cross:
                    __, accepted, cycle = request(cycle)
                    backend._n_sent += 1
                dispatch = eng._seq_time
                if cycle > dispatch:
                    dispatch = cycle
                eng._n_instructions += 1
                bank._n_reads += 1
                gate = source.ready
                if dispatch > gate:
                    gate = dispatch
                moved = size
                if predicated:
                    eng._predicated = True
                    bank._n_reads += 1
                    if predicate.ready > gate:
                        gate = predicate.ready
                    gate += pred_cycles
                    if not eng._eager:
                        run_log()
                        eng._eager = True
                    wanted = flags(pred_index)[:flag_lanes].tobytes()
                    if moves not in wanted:
                        moved = 0
                    elif partial:
                        # Only the matched lanes' values land.
                        matched = wanted.count(1)
                        moved = max(8, (matched if moves else len(wanted) - matched)
                                    * lane_bytes)
                        eng._n_bytes_skipped += size - moved
                start = eng._seq_time = gate + dispatch_cycles
                if moved:
                    address = inst.address
                    drained = vault_access(start, address, moved, True)
                    if eng._eager:
                        step(inst, address)
                    else:
                        log_insts.append(inst)
                        log_addrs.append(address)
                        if len(log_insts) >= log_limit:
                            run_log()
                    if invalidate is not None:
                        # In-memory stores bypass the processor caches.
                        invalidate(address, size)
                    eng._n_stores += 1
                    eng._n_bytes_stored += moved
                    # Stores are posted: the source register frees once
                    # the data is handed to the vault queue, so the block
                    # does not wait for the DRAM write to land — but the
                    # run's drain time does.
                    if drained > eng.last_completion:
                        eng.last_completion = drained
                    done = start + dispatch_cycles
                else:
                    done = start + squash_cycles
                    eng._n_squashed_stores += 1
                    eng._n_bytes_skipped += size
                if done > eng._block_watermark:
                    eng._block_watermark = done
                if done > eng.last_completion:
                    eng.last_completion = done
                if not cross:
                    return done
                if returns:
                    arrival = response(done, payload)[2]
                    return arrival, max(arrival, eng._seq_time)
                return accepted, eng._seq_time

        elif op in _REGISTER_OPS:
            # An ALU op waits for its one or two sources, PACK (deposit
            # ``src``'s zero flags as bits at ``imm_lo`` of the
            # accumulator, which keeps its other bits) and UNPACK (expand
            # packed bits at ``imm_lo`` of ``src`` into 0/1 lanes) for
            # their source and destination.
            alu = op is PimOp.PIM_ALU
            if alu:
                if not 1 <= len(inst.src_regs) <= 2:
                    raise ValueError(
                        f"{config.name}: an ALU op reads one or two "
                        f"registers, not {len(inst.src_regs)}")
                first, last = peek(inst.src_regs[0]), peek(inst.src_regs[-1])
                reads = len(inst.src_regs) + predicated
            else:
                first, last = peek(inst.src_regs[0]), peek(inst.dst_reg)
                reads = 1
            destination = peek(inst.dst_reg)
            latency = (config.int_mul_latency if inst.func is AluFunc.MUL and alu
                       else alu_latency)
            register_bytes = config.register_bytes
            if inst.compound is not None:
                nbytes = min(inst.size or register_bytes, register_bytes)
                alu_lanes = max(1, nbytes // inst.tuple_stride)
            else:
                whole = register_bytes // inst.lane_bytes
                alu_lanes = min(inst.size // inst.lane_bytes or whole, whole)
            packs = op is PimOp.PACK_MASK

            def issue(inst, cycle):
                if cross:
                    __, accepted, cycle = request(cycle)
                    backend._n_sent += 1
                gate = eng._seq_time
                if cycle > gate:
                    gate = cycle
                eng._n_instructions += 1
                bank._n_reads += reads
                if first.ready > gate:
                    gate = first.ready
                if last.ready > gate:
                    gate = last.ready
                if predicated:
                    # The match logic gates on the predicate register,
                    # but an ALU op's timing never depends on which
                    # lanes it keeps.
                    eng._predicated = True
                    if predicate.ready > gate:
                        gate = predicate.ready
                    gate += pred_cycles
                start = eng._seq_time = gate + dispatch_cycles
                done = start + latency
                if done > destination.ready:
                    destination.ready = done
                bank._n_writes += 1
                if eng._eager:
                    step(inst, inst.address)
                else:
                    log_insts.append(inst)
                    log_addrs.append(inst.address)
                    if len(log_insts) >= log_limit:
                        run_log()
                if alu:
                    eng._n_alu += 1
                    eng._n_alu_lanes += alu_lanes
                elif packs:
                    eng._n_pack += 1
                else:
                    eng._n_unpack += 1
                if done > eng._block_watermark:
                    eng._block_watermark = done
                if done > eng.last_completion:
                    eng.last_completion = done
                if not cross:
                    return done
                if returns:
                    arrival = response(done, payload)[2]
                    return arrival, max(arrival, eng._seq_time)
                return accepted, eng._seq_time

        else:
            raise ValueError(f"{config.name} cannot execute {op!r}")
        return issue


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

    def issuer(self, inst: PimInstruction) -> Callable:
        """The engine's timing function of ``inst``'s shape, links included."""
        return self.engine.function(inst, self)

    def submit_inst(self, inst: PimInstruction, cycle: int) -> tuple:
        """One instruction packet out; completion depends on returns_value.

        The instruction-buffer entry is held until the in-order
        sequencer has dispatched the instruction: a core streaming
        posted instructions faster than the engine drains them fills the
        32-entry buffer and stalls — bounding how far the engine's clock
        can run ahead of the core's.  (Before this backpressure the
        modelled buffer was unbounded, which no hardware is.)
        """
        return self.engine.function(inst, self)(inst, cycle)
