"""Micro-op ISA: the vocabulary of the trace-driven simulator.

Codegen lowers a database scan into a dynamic stream of :class:`Uop`
objects — x86/AVX-style core uops plus the three families of
processing-in-memory instructions (extended HMC ISA, HIVE, HIPE).  The
core timing model consumes this stream; the PIM payloads carried by
memory-side uops are executed by the respective engines.

Register identifiers are small integers in a per-trace virtual space;
codegen performs its own allocation (and honours each ISA's architectural
limits, e.g. x86's unroll depth being bounded by its register count).
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple


class UopClass(enum.Enum):
    """Execution class of a micro-op (selects FU, latency and issue rules)."""

    INT_ALU = "int_alu"
    INT_MUL = "int_mul"
    INT_DIV = "int_div"
    FP_ALU = "fp_alu"
    FP_MUL = "fp_mul"
    FP_DIV = "fp_div"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    NOP = "nop"
    # Processing-in-memory instructions.  They traverse the core pipeline
    # "in the same way as a memory load operation" (paper §III), but are
    # issued non-speculatively and in program order among themselves.
    PIM = "pim"


#: Uop classes that read or write the cache hierarchy.
MEMORY_CLASSES = frozenset({UopClass.LOAD, UopClass.STORE})

# Dense integer ids for list-based dispatch on hot paths (enum __hash__
# is a Python-level call; ``cls.index`` + a list lookup is much cheaper).
for _i, _member in enumerate(UopClass):
    _member.index = _i


class PimOp(enum.Enum):
    """Operation kinds carried by PIM uops (interpreted by the engines)."""

    # Extended HMC ISA (second baseline).
    HMC_LOADCMP = "hmc_loadcmp"  # read + per-lane compare, mask returned
    HMC_UPDATE = "hmc_update"  # classic read-modify-write update
    # HIVE / HIPE logic-layer instructions (three classes, paper §III).
    LOCK = "lock"
    UNLOCK = "unlock"
    PIM_LOAD = "pim_load"  # DRAM -> register
    PIM_STORE = "pim_store"  # register -> DRAM
    PIM_ALU = "pim_alu"  # register op register/immediate -> register
    # Mask accumulator ALU ops: PACK_MASK deposits the source register's
    # per-lane zero flags as packed bits at bit offset ``imm_lo`` of the
    # destination (accumulator) register; UNPACK_MASK expands packed bits
    # from the source accumulator back into 0/1 lanes.  They let a whole
    # block's chunk masks ride one row-buffer-sized DRAM access.
    PACK_MASK = "pack_mask"
    UNPACK_MASK = "unpack_mask"


for _i, _member in enumerate(PimOp):
    _member.index = _i


class AluFunc(enum.Enum):
    """ALU functions of the PIM engines (vector, lane-wise)."""

    CMP_GE = "cmp_ge"
    CMP_GT = "cmp_gt"
    CMP_LE = "cmp_le"
    CMP_LT = "cmp_lt"
    CMP_EQ = "cmp_eq"
    CMP_RANGE = "cmp_range"  # lo <= x <= hi (one fused Between)
    AND = "and"
    OR = "or"
    ADD = "add"
    MUL = "mul"


class PimInstruction:
    """The memory-side payload of a PIM uop.

    ``compound`` expresses a whole-tuple predicate for NSM scans: a tuple
    of ``(byte_offset, func, lo, hi)`` terms evaluated per ``tuple_stride``
    bytes and conjoined — the "complex boolean expressions" of Q6 applied
    by one in-memory compare over row-store tuples.
    """

    __slots__ = (
        "op",
        "address",
        "size",
        "dst_reg",
        "src_regs",
        "func",
        "imm_lo",
        "imm_hi",
        "lane_bytes",
        "pred_reg",
        "pred_expect",
        "returns_value",
        "compound",
        "tuple_stride",
    )

    def __init__(
        self,
        op: PimOp,
        address: int = 0,
        size: int = 0,
        dst_reg: Optional[int] = None,
        src_regs: Tuple[int, ...] = (),
        func: Optional[AluFunc] = None,
        imm_lo: int = 0,
        imm_hi: int = 0,
        lane_bytes: int = 4,
        pred_reg: Optional[int] = None,
        pred_expect: bool = True,
        returns_value: bool = False,
        compound: Optional[Tuple] = None,
        tuple_stride: int = 64,
    ) -> None:
        self.op = op
        self.address = address
        self.size = size
        self.dst_reg = dst_reg
        self.src_regs = src_regs
        self.func = func
        self.imm_lo = imm_lo
        self.imm_hi = imm_hi
        self.lane_bytes = lane_bytes
        self.pred_reg = pred_reg
        self.pred_expect = pred_expect
        self.returns_value = returns_value
        self.compound = compound
        self.tuple_stride = tuple_stride

    @property
    def predicated(self) -> bool:
        """True when the instruction carries a predicate (HIPE only)."""
        return self.pred_reg is not None

    @property
    def speculative(self) -> bool:
        """True when the core may issue this instruction speculatively.

        A load-compare only reads DRAM and returns a value — squashing it
        wastes work but corrupts nothing, so it issues like an ordinary
        load.  Every state-mutating instruction (read-modify-write
        updates, and all HIVE/HIPE instructions, which change the
        engine's register bank and lock state) must wait until all older
        branches have resolved.
        """
        return self.op == PimOp.HMC_LOADCMP

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pred = f" pred=r{self.pred_reg}" if self.predicated else ""
        return (
            f"PimInstruction({self.op.value} addr={self.address:#x} "
            f"size={self.size} dst={self.dst_reg}{pred})"
        )


class Uop:
    """One dynamic micro-op of the trace."""

    __slots__ = ("cls", "pc", "srcs", "dst", "address", "size", "taken", "pim")

    def __init__(
        self,
        cls: UopClass,
        pc: int,
        srcs: Tuple[int, ...] = (),
        dst: Optional[int] = None,
        address: int = 0,
        size: int = 0,
        taken: bool = False,
        pim: Optional[PimInstruction] = None,
    ) -> None:
        self.cls = cls
        self.pc = pc
        self.srcs = srcs
        self.dst = dst
        self.address = address
        self.size = size
        self.taken = taken
        self.pim = pim

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.cls == UopClass.PIM:
            return f"Uop(PIM {self.pim!r} pc={self.pc})"
        if self.cls in MEMORY_CLASSES:
            return f"Uop({self.cls.value} addr={self.address:#x} size={self.size} pc={self.pc})"
        if self.cls == UopClass.BRANCH:
            return f"Uop(branch taken={self.taken} pc={self.pc})"
        return f"Uop({self.cls.value} pc={self.pc})"


# -- convenience constructors (codegen readability) -------------------------


def alu(pc: int, srcs: Tuple[int, ...] = (), dst: Optional[int] = None) -> Uop:
    """An integer ALU uop."""
    return Uop(UopClass.INT_ALU, pc, srcs=srcs, dst=dst)


def load(pc: int, address: int, size: int, dst: Optional[int] = None) -> Uop:
    """A demand load."""
    return Uop(UopClass.LOAD, pc, dst=dst, address=address, size=size)


def store(pc: int, address: int, size: int, srcs: Tuple[int, ...] = ()) -> Uop:
    """A committed store."""
    return Uop(UopClass.STORE, pc, srcs=srcs, address=address, size=size)


def branch(pc: int, taken: bool, srcs: Tuple[int, ...] = ()) -> Uop:
    """A conditional branch with its resolved direction."""
    return Uop(UopClass.BRANCH, pc, srcs=srcs, taken=taken)


def pim(pc: int, instruction: PimInstruction, srcs: Tuple[int, ...] = (),
        dst: Optional[int] = None) -> Uop:
    """A PIM uop carrying a memory-side instruction."""
    return Uop(UopClass.PIM, pc, srcs=srcs, dst=dst, pim=instruction)
