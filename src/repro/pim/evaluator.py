"""Bulk evaluation of the HIVE/HIPE engines' functional log.

The logic-layer engine times an instruction when it issues: the
interlock, the vaults and the links need only register readiness,
addresses and sizes (paper §III).  Only HIPE's predication match logic
reads data, the predicate's zero flags.  So the engine appends every
instruction that computes or moves values — loads, ALU ops, mask packs
and unpacks, stores, and the source of a tuple scan's value-returning
UNLOCK — to a functional log, and :class:`Evaluator` runs that log later,
in program order.

A stretch of the log that repeats one body of ops (the unrolled
iterations of a loop: the same shapes at any addresses) runs as one
batch.  Every register becomes an array with an iteration axis and every
op one numpy call over all iterations — the way bulk-bitwise PIM treats
a filter as one operation over a whole column.  A register an iteration
reads before writing it is *carried* from the previous iteration, and
two carries vectorise:

* a mask accumulator's untouched bits: PACK rewrites only the bits it
  deposits, so bits no PACK of the body deposits keep their value from
  before the batch — provided the body reads the accumulator only where
  its PACKs already deposited this iteration's bits;
* an aggregate's accumulator: a register that one unpredicated ADD per
  iteration reads and writes, and nothing else touches, is a wrapping
  sum over the iteration axis.

Any other carry, and a store that one iteration could feed to another
iteration's load, runs the stretch one iteration at a time.  Either way
the register values, zero flags and memory bytes are bit-identical to
computing every instruction as it issues, through the same operation
semantics (:func:`~repro.pim.ops.apply_alu`, whose compares are
:func:`~repro.pim.ops.compare_flags`, and
:func:`~repro.pim.ops.compound_flags`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cpu.isa import AluFunc, PimOp
from .ops import apply_alu, compound_flags

_LANE_DTYPES = {n: np.dtype(f"<i{n}") for n in (1, 2, 4, 8)}
_BYTES = np.dtype(np.uint8)
_FLAGS = np.dtype("<i4")  # zero flags are per 4 B lane

_LOAD = PimOp.PIM_LOAD
_STORE = PimOp.PIM_STORE
_ALU = PimOp.PIM_ALU
_PACK = PimOp.PACK_MASK
_UNPACK = PimOp.UNPACK_MASK

#: the ops whose values the log carries; a logged UNLOCK reads its source
LOGGED_OPS = frozenset({_LOAD, _STORE, _ALU, _PACK, _UNPACK, PimOp.UNLOCK})

#: repeats of a stretch's first shape tried as its body length
_CANDIDATES = 16


def _alu_count(inst, register_bytes: int) -> int:
    """Lanes an ALU op computes (a size of 0 means the whole register)."""
    whole = register_bytes // inst.lane_bytes
    return min(inst.size // inst.lane_bytes or whole, whole)


def _pred_lanes(inst, register_bytes: int) -> int:
    """Zero flags a predicated op reads from its predicate register."""
    flags = register_bytes // 4
    return min(inst.size // inst.lane_bytes if inst.size else flags, flags)


def _pack_lanes(inst, register_bytes: int) -> int:
    """Flags a PACK deposits (a size of 0 means every flag)."""
    return inst.size or register_bytes // 4


def _reads(inst, register_bytes: int) -> List[Tuple[int, int, int]]:
    """``(register, first byte, end byte)`` of every value ``inst`` reads.

    A PACK's read of its accumulator is not listed: it keeps exactly
    the bits it does not deposit (see :func:`_plan`).
    """
    op = inst.op
    reads = []
    if op is _ALU:
        if inst.compound is not None:
            reads.append((inst.src_regs[0], 0, inst.size or register_bytes))
        else:
            nbytes = _alu_count(inst, register_bytes) * inst.lane_bytes
            reads.extend((r, 0, nbytes) for r in inst.src_regs[:2])
    elif op is _STORE:
        reads.append((inst.src_regs[0], 0, inst.size))
    elif op is _PACK:
        lanes = min(_pack_lanes(inst, register_bytes), register_bytes // 4)
        reads.append((inst.src_regs[0], 0, 4 * lanes))
    elif op is _UNPACK:
        end = inst.imm_lo + inst.size // inst.lane_bytes
        reads.append((inst.src_regs[0], inst.imm_lo // 8,
                      min(register_bytes, (end + 7) // 8)))
    elif op is PimOp.UNLOCK:
        reads.append((inst.src_regs[0], 0, register_bytes))
    if inst.pred_reg is not None:
        reads.append((inst.pred_reg, 0, 4 * _pred_lanes(inst, register_bytes)))
    return reads


def _accumulates(inst, register: int) -> bool:
    """True when ``inst`` is ``register += other`` (an aggregate's ADD)."""
    return (inst.op is _ALU and inst.func is AluFunc.ADD
            and inst.compound is None and inst.pred_reg is None
            and inst.dst_reg == register and len(inst.src_regs) == 2
            and inst.src_regs.count(register) == 1)


def _plan(body: Sequence, register_bytes: int) -> Optional[Tuple[int, ...]]:
    """How ``body`` vectorises across iterations.

    Returns the steps that are aggregate accumulations (evaluated as a
    sum over the iteration axis), or None when some carry does not
    vectorise.  A PACK whose accumulator is carried starts from the
    value before the batch instead; that value differs from the carried
    one only in bits the body's PACKs deposit every iteration, so it is
    exact wherever the body reads it after those deposits — which every
    read of the accumulator is checked to do, byte by byte.
    """
    writers: Dict[int, List[int]] = {}
    readers: Dict[int, List[int]] = {}
    for k, inst in enumerate(body):
        for register, __, ___ in _reads(inst, register_bytes):
            readers.setdefault(register, []).append(k)
        if inst.op is not _STORE and inst.op is not PimOp.UNLOCK:
            writers.setdefault(inst.dst_reg, []).append(k)
    accumulators = []
    # register -> None once fully written this iteration, or the bit
    # mask its PACKs have deposited since the iteration began
    state: Dict[int, Optional[int]] = {}
    for k, inst in enumerate(body):
        for register, first, end in _reads(inst, register_bytes):
            if register in state:
                deposited = state[register]
                need = ((1 << (8 * (end - first))) - 1) << (8 * first)
                if deposited is not None and deposited & need != need:
                    return None
            elif register in writers:  # carried from the previous iteration
                if not (_accumulates(inst, register)
                        and writers[register] == [k] and readers[register] == [k]):
                    return None
                accumulators.append(k)
        if inst.op is _PACK:
            end = inst.imm_lo + _pack_lanes(inst, register_bytes)
            end = min((end + 7) // 8 * 8, 8 * register_bytes)
            bits = ((1 << (end - inst.imm_lo)) - 1) << inst.imm_lo
            if inst.dst_reg not in state:
                state[inst.dst_reg] = bits
            elif state[inst.dst_reg] is not None:
                state[inst.dst_reg] |= bits
        elif inst.op is not _STORE and inst.op is not PimOp.UNLOCK:
            state[inst.dst_reg] = None
    return tuple(accumulators)


def _separable(body: Sequence, addresses: np.ndarray) -> bool:
    """True when no iteration's store overlaps another iteration's access.

    Then evaluating op by op across all iterations keeps every memory
    dependence of program order: same-iteration accesses stay in body
    order, and accesses of different iterations touch disjoint bytes.
    """
    memory = [(k, inst.size) for k, inst in enumerate(body)
              if inst.op is _LOAD or inst.op is _STORE]
    for s, store_bytes in memory:
        if body[s].op is not _STORE:
            continue
        a = addresses[:, s]
        for m, access_bytes in memory:
            b = addresses[:, m]
            if (a.max() + store_bytes <= b.min()
                    or b.max() + access_bytes <= a.min()):
                continue
            lo = np.minimum(a, b)
            hi = np.maximum(a + store_bytes, b + access_bytes)
            if (hi[:-1] > lo[1:]).any():
                return False
    return True


def _period_at(sids: np.ndarray, listed: List[int], following: List[int],
               s: int) -> Tuple[int, int, int]:
    """``(body length, repetitions, bodies tried)`` of the periodic
    stretch at ``s`` (0 repetitions: none).

    ``listed`` holds the shape ids of ``sids`` as a list, and
    ``following[k]`` is the next entry with ``k``'s shape (-1: none);
    the body length is the distance to one of the next repeats of
    ``s``'s shape.
    """
    count = len(listed)
    repeat = following[s]
    tried = 0
    while tried < _CANDIDATES and repeat >= 0:
        length = repeat - s
        if s + 2 * length > count:
            break
        tried += 1
        # The bodies' last ops decide most candidates before numpy does.
        if (listed[repeat - 1] == listed[repeat + length - 1]
                and np.array_equal(sids[s:repeat], sids[repeat:repeat + length])):
            stop = np.flatnonzero(sids[repeat:] != sids[s:count - length])
            span = length + (int(stop[0]) if stop.size else count - repeat)
            return length, span // length, tried
        repeat = following[repeat]
    return 0, 0, tried


def _deposit(accumulator: np.ndarray, deposit: np.ndarray, offset: int,
             lanes: int, register_bytes: int) -> None:
    """PACK: write the ``deposit`` flags as bits from ``offset`` of the
    accumulator bytes (last axis), in place.

    The rest of the last touched byte is zeroed, so a partial chunk
    leaks no stale bits; every other bit keeps its value.
    """
    if offset % 8 == 0:
        packed = np.packbits(deposit, axis=-1, bitorder="little")
        accumulator[..., offset // 8:offset // 8 + packed.shape[-1]] = packed
        return
    first = offset // 8
    end = min((offset + lanes + 7) // 8, register_bytes)
    bits = np.unpackbits(accumulator[..., first:end], axis=-1, bitorder="little")
    lo = offset - 8 * first
    bits[..., lo:lo + lanes] = deposit
    bits[..., lo + lanes:] = False
    accumulator[..., first:end] = np.packbits(bits, axis=-1, bitorder="little")


def _unpacked(source: np.ndarray, inst, register_bytes: int) -> np.ndarray:
    """UNPACK: the bits from ``imm_lo`` of the source bytes (last axis)
    as 0/1 lanes, returned as their bytes."""
    lanes = inst.size // inst.lane_bytes
    first = inst.imm_lo // 8
    end = min((inst.imm_lo + lanes + 7) // 8, register_bytes)
    bits = np.unpackbits(source[..., first:end], axis=-1, bitorder="little")
    lo = inst.imm_lo - 8 * first
    return bits[..., lo:lo + lanes].astype(_LANE_DTYPES[inst.lane_bytes]).view(_BYTES)


class Evaluator:
    """Runs an engine's functional log against its register bank and
    memory image, and keeps what its value-returning UNLOCKs read.

    A register's zero flags are recomputed from its value only when
    something reads them (:meth:`flags`, :meth:`refresh`): most values
    are overwritten before anything looks at their flags.
    """

    def __init__(self, registers, image) -> None:
        self.registers = registers
        self.image = image
        self.register_bytes = registers.config.register_bytes
        #: packed zero flags read by the logged UNLOCKs, in program order
        self.readouts: List[np.ndarray] = []
        #: registers whose zero flags lag their value
        self.lagging = set()
        self._shapes: Dict[tuple, int] = {}
        self._plans: Dict[tuple, Optional[Tuple[int, ...]]] = {}

    def __getstate__(self):
        # The shape and plan caches rebuild themselves.
        self.refresh()
        state = self.__dict__.copy()
        state["_shapes"], state["_plans"] = {}, {}
        return state

    # -- entry points ---------------------------------------------------------

    def run(self, insts: List, addrs: List[int]) -> None:
        """Evaluate a log: ``insts`` in program order, ``addrs`` the
        address each carried when it issued."""
        count = len(insts)
        addresses = np.asarray(addrs, dtype=np.int64)
        sids = np.asarray(self._shape_ids(insts), dtype=np.int64)
        order = np.argsort(sids, kind="stable")
        same = sids[order[1:]] == sids[order[:-1]]
        following = np.full(count, -1, dtype=np.int64)
        following[order[:-1][same]] = order[1:][same]
        following = following.tolist()
        listed = sids.tolist()
        # Bodies tried per log: a log with no loop in it runs op by op
        # after about one try per op.
        budget = count
        done = 0  # entries before this one are evaluated
        s = 0
        while s < count:
            if following[s] < 0 or budget <= 0:
                s += 1
                continue
            length, reps, tried = _period_at(sids, listed, following, s)
            budget -= tried
            if reps < 2:
                s += 1
                continue
            for k in range(done, s):
                self.step(insts[k], addrs[k])
            end = s + length * reps
            self._iterations(insts[s:s + length],
                             addresses[s:end].reshape(reps, length),
                             tuple(listed[s:s + length]))
            s = done = end
        for k in range(done, count):
            self.step(insts[k], addrs[k])

    def iterations(self, body: List, addresses: np.ndarray) -> None:
        """Evaluate ``len(addresses)`` iterations of ``body``; row ``i``
        of ``addresses`` holds iteration ``i``'s address of every op."""
        self._iterations(body, addresses, tuple(self._shape_ids(body)))

    def step(self, inst, address: int) -> None:
        """Evaluate one op on the bank's registers and the image."""
        op = inst.op
        bank = self.registers.registers
        register_bytes = self.register_bytes
        if op is _ALU:
            dtype = _LANE_DTYPES[inst.lane_bytes]
            sources = inst.src_regs
            if inst.compound is not None:
                raw = bank[sources[0]].value[:inst.size or register_bytes]
                result = compound_flags(raw, inst.tuple_stride,
                                        inst.compound).astype(dtype)
            else:
                nbytes = _alu_count(inst, register_bytes) * inst.lane_bytes
                a = bank[sources[0]].value[:nbytes].view(dtype)
                b = bank[sources[1]].value[:nbytes].view(dtype) if len(sources) > 1 else None
                # A fresh array of the lanes' dtype.
                result = apply_alu(inst.func, a, b, imm_lo=inst.imm_lo,
                                   imm_hi=inst.imm_hi)
            if inst.pred_reg is not None:
                # Predicated-off lanes produce 0.
                result = result * self._wanted(inst)[:result.size]
            self._write(inst.dst_reg, result.view(_BYTES))
        elif op is _LOAD:
            raw = self.image.window(address, inst.size)
            if inst.pred_reg is not None:
                # Unloaded lanes (a squash unloads them all) carry no data.
                lanes = raw.view(_LANE_DTYPES[inst.lane_bytes])
                raw = (lanes * self._wanted(inst)).view(_BYTES)
            self._write(inst.dst_reg, raw)
        elif op is _PACK:
            lanes = _pack_lanes(inst, register_bytes)
            deposit = self.flags(inst.src_regs[0])[:lanes]
            _deposit(bank[inst.dst_reg].value, deposit, inst.imm_lo, lanes,
                     register_bytes)
            self.lagging.add(inst.dst_reg)
        elif op is _UNPACK:
            self._write(inst.dst_reg, _unpacked(bank[inst.src_regs[0]].value,
                                                inst, register_bytes))
        elif op is _STORE:
            payload = bank[inst.src_regs[0]].value[:inst.size]
            target = self.image.window(address, inst.size)
            if inst.pred_reg is not None:
                # Only the matched lanes' values land.
                keep = self._wanted(inst)
                if not keep.any():
                    return
                dtype = _LANE_DTYPES[inst.lane_bytes]
                payload = np.where(keep, payload.view(dtype), target.view(dtype))
            target[:] = payload.view(_BYTES)
        else:  # a value-returning UNLOCK reads its source's zero flags
            self.readouts.append(np.packbits(
                self.flags(inst.src_regs[0]), bitorder="little")[None])

    def flags(self, register: int) -> np.ndarray:
        """The register's zero flags, up to date."""
        target = self.registers.registers[register]
        if register in self.lagging:
            self.lagging.discard(register)
            target.refresh_flags()
        return target.lane_match

    def refresh(self) -> None:
        """Bring every register's zero flags up to date."""
        for register in tuple(self.lagging):
            self.flags(register)

    def readout_table(self) -> np.ndarray:
        """Every logged UNLOCK's flags as one ``(n, flag bytes)`` array."""
        if len(self.readouts) != 1:
            self.readouts = [np.concatenate(self.readouts) if self.readouts
                             else np.zeros((0, self.register_bytes // 32),
                                           dtype=np.uint8)]
        return self.readouts[0]

    # -- internals ------------------------------------------------------------

    def _write(self, register: int, raw: np.ndarray) -> None:
        """Install a register's bytes; the rest of the register is zero."""
        target = self.registers.registers[register].value
        target[:raw.size] = raw
        if raw.size < target.size:
            target[raw.size:] = 0
        self.lagging.add(register)

    def _wanted(self, inst) -> np.ndarray:
        """The lanes a predicated op keeps."""
        flags = self.flags(inst.pred_reg)
        lanes = _pred_lanes(inst, self.register_bytes)
        return flags[:lanes] if inst.pred_expect else ~flags[:lanes]

    def _shape_ids(self, insts: Sequence) -> List[int]:
        """One integer per op; equal exactly when the ops' shapes (every
        field but the address) are."""
        shapes = self._shapes
        by_object: Dict[int, int] = {}
        sids = []
        for inst in insts:
            sid = by_object.get(id(inst))
            if sid is None:
                shape = (inst.op, inst.size, inst.dst_reg, inst.src_regs,
                         inst.func, inst.imm_lo, inst.imm_hi, inst.lane_bytes,
                         inst.pred_reg, inst.pred_expect, inst.compound,
                         inst.tuple_stride)
                sid = shapes.get(shape)
                if sid is None:
                    sid = shapes[shape] = len(shapes)
                by_object[id(inst)] = sid
            sids.append(sid)
        return sids

    def _iterations(self, body: List, addresses: np.ndarray, key: tuple) -> None:
        if addresses.shape[0] > 1:
            plan = self._plans.get(key, False)
            if plan is False:
                plan = self._plans[key] = _plan(body, self.register_bytes)
            if plan is not None and _separable(body, addresses):
                self._batch(body, addresses, plan)
                return
        for row in addresses.tolist():
            for inst, address in zip(body, row):
                self.step(inst, address)

    def _batch(self, body: Sequence, addresses: np.ndarray,
               accumulators: Tuple[int, ...]) -> None:
        """Run ``body`` over every row of ``addresses`` at once.

        Each register the batch writes is an ``(iterations, bytes)``
        uint8 array, zero past its width, and the last iteration's value
        lands in the bank at the end; a register the batch has not
        written reads as its value before the batch.
        """
        image = self.image
        bank = self.registers.registers
        register_bytes = self.register_bytes
        flag_lanes = register_bytes // 4
        reps = addresses.shape[0]
        columns = addresses.T
        values: Dict[int, np.ndarray] = {}
        owned = set()  # full-width arrays updated in place

        def read(register: int, nbytes: int) -> np.ndarray:
            value = values.get(register)
            if value is None:
                return np.broadcast_to(bank[register].value[:nbytes], (reps, nbytes))
            if value.shape[1] >= nbytes:
                return value[:, :nbytes]
            padded = np.zeros((reps, nbytes), dtype=_BYTES)
            padded[:, :value.shape[1]] = value
            return padded

        def flags(register: int, lanes: int) -> np.ndarray:
            """Zero flags of the register's first ``lanes`` 4 B lanes."""
            if register in values:
                return read(register, 4 * lanes).view(_FLAGS) != 0
            return np.broadcast_to(self.flags(register)[:lanes], (reps, lanes))

        def write(register: int, value: np.ndarray) -> None:
            values[register] = value
            owned.discard(register)

        def wanted(inst) -> np.ndarray:
            matched = flags(inst.pred_reg, _pred_lanes(inst, register_bytes))
            return matched if inst.pred_expect else ~matched

        for k, inst in enumerate(body):
            op = inst.op
            if op is _ALU:
                dtype = _LANE_DTYPES[inst.lane_bytes]
                sources = inst.src_regs
                nbytes = _alu_count(inst, register_bytes) * inst.lane_bytes
                if k in accumulators:
                    # register += other, every iteration: a wrapping sum.
                    register = inst.dst_reg
                    other = sources[1] if sources[0] == register else sources[0]
                    total = read(other, nbytes).view(dtype).sum(axis=0, dtype=np.int64)
                    total += bank[register].value[:nbytes].view(dtype)
                    write(register, total.astype(dtype).view(_BYTES)[None])
                    continue
                if inst.compound is not None:
                    raw = read(sources[0], inst.size or register_bytes)
                    result = compound_flags(raw, inst.tuple_stride,
                                            inst.compound).astype(dtype)
                else:
                    a = read(sources[0], nbytes).view(dtype)
                    b = read(sources[1], nbytes).view(dtype) if len(sources) > 1 else None
                    result = apply_alu(inst.func, a, b, imm_lo=inst.imm_lo,
                                       imm_hi=inst.imm_hi)
                if inst.pred_reg is not None:
                    result = result * wanted(inst)[:, :result.shape[1]]
                write(inst.dst_reg, result.view(_BYTES))
            elif op is _LOAD:
                raw = image.gather(columns[k], inst.size)[0]
                if inst.pred_reg is not None:
                    lanes = raw.view(_LANE_DTYPES[inst.lane_bytes])
                    raw = (lanes * wanted(inst)).view(_BYTES)
                write(inst.dst_reg, raw)
            elif op is _PACK:
                lanes = _pack_lanes(inst, register_bytes)
                deposit = flags(inst.src_regs[0], min(lanes, flag_lanes))
                register = inst.dst_reg
                if register not in owned:
                    values[register] = np.array(read(register, register_bytes))
                    owned.add(register)
                _deposit(values[register], deposit, inst.imm_lo, lanes,
                         register_bytes)
            elif op is _UNPACK:
                end = min((inst.imm_lo + inst.size // inst.lane_bytes + 7) // 8,
                          register_bytes)
                write(inst.dst_reg, _unpacked(read(inst.src_regs[0], end), inst,
                                              register_bytes))
            elif op is _STORE:
                payload = read(inst.src_regs[0], inst.size)
                column = columns[k]
                if inst.pred_reg is not None:
                    dtype = _LANE_DTYPES[inst.lane_bytes]
                    keep = wanted(inst)
                    live = keep.any(axis=1)
                    if not live.any():
                        continue
                    column, keep, payload = column[live], keep[live], payload[live]
                    current = image.gather(column, inst.size)[0]
                    payload = np.where(
                        keep, np.ascontiguousarray(payload).view(dtype),
                        current.view(dtype)).view(_BYTES)
                image.scatter(column, payload)
            else:  # a value-returning UNLOCK reads its source's zero flags
                self.readouts.append(np.packbits(
                    flags(inst.src_regs[0], flag_lanes), axis=1, bitorder="little"))

        for register, value in values.items():
            self._write(register, value[-1])
