"""Functional semantics of the PIM ALU operations (lane-wise, numpy).

Shared by the per-vault HMC ISA units and the HIVE/HIPE logic layer.
Comparison results follow the engines' convention: matching lanes produce
1, others 0 — the "zero flag" of a lane is simply "result == 0".

The compare semantics live in one place, :func:`compare_flags`; every
consumer (the engines' ALU, whole-tuple compound compares, the HMC
load-compare masks) goes through it.  It is shape-agnostic, so a batch
of operations evaluates as one array with a leading op axis.
"""

from __future__ import annotations

import numpy as np

from ..cpu.isa import AluFunc


def compare_flags(func: AluFunc, lanes: np.ndarray, lo: int, hi: int = 0) -> np.ndarray:
    """Boolean match flags of an immediate compare, lane-wise, any shape."""
    if func == AluFunc.CMP_RANGE:
        flags = lanes >= lo
        flags &= lanes <= hi
        return flags
    if func == AluFunc.CMP_GE:
        return lanes >= lo
    if func == AluFunc.CMP_GT:
        return lanes > lo
    if func == AluFunc.CMP_LE:
        return lanes <= lo
    if func == AluFunc.CMP_LT:
        return lanes < lo
    if func == AluFunc.CMP_EQ:
        return lanes == lo
    raise ValueError(f"unsupported compare function {func!r}")


def apply_alu(
    func: AluFunc,
    a: np.ndarray,
    b: np.ndarray | None = None,
    imm_lo: int = 0,
    imm_hi: int = 0,
) -> np.ndarray:
    """Apply ``func`` lane-wise; ``b`` is the second operand when register-register.

    Comparison functions compare ``a`` against the immediates and return
    0/1 lanes of ``a``'s dtype.  Arithmetic/logic functions operate on
    ``a`` and ``b`` (``b`` defaults to the immediate ``imm_lo`` broadcast).
    """
    if is_comparison(func):
        return compare_flags(func, a, imm_lo, imm_hi).astype(a.dtype)
    operand = b if b is not None else np.full_like(a, imm_lo)
    if func == AluFunc.AND:
        return a & operand
    if func == AluFunc.OR:
        return a | operand
    if func == AluFunc.ADD:
        return a + operand
    if func == AluFunc.MUL:
        return a * operand
    raise ValueError(f"unsupported ALU function {func!r}")


def is_comparison(func: AluFunc) -> bool:
    """True for the compare family (single-source, immediate operand)."""
    return func in (
        AluFunc.CMP_GE,
        AluFunc.CMP_GT,
        AluFunc.CMP_LE,
        AluFunc.CMP_LT,
        AluFunc.CMP_EQ,
        AluFunc.CMP_RANGE,
    )


def compound_flags(raw: np.ndarray, stride: int, terms, phase: int = 0) -> np.ndarray:
    """Whole-tuple conjunction over row-store bytes, as boolean flags.

    ``raw`` is uint8, either one operation's bytes ``(size,)`` or a batch
    ``(ops, size)`` of same-sized operations.  ``terms`` is a sequence of
    ``(byte_offset, func, lo, hi)``; each compares the int32 at that
    offset of a tuple of ``stride`` bytes.

    An operation of at least ``stride`` bytes covers whole tuples and
    yields one flag per tuple.  A smaller one is a *piece* that starts
    ``phase`` bytes into its tuple: a term is evaluated only when its
    column lies wholly inside the piece, read at its offset relative to
    the piece, and a piece holding no predicate column matches
    everything — ANDing a tuple's pieces gives the full conjunction.
    Returns flags of shape ``(tuples,)`` or ``(ops, tuples)``.
    """
    batch = raw.reshape(1, -1) if raw.ndim == 1 else raw
    ops, size = batch.shape
    width = min(size, stride)
    ntuples = max(1, size // stride)
    tuples = batch[:, : ntuples * width].reshape(ops, ntuples, width)
    flags = np.ones((ops, ntuples), dtype=bool)
    for offset, func, lo, hi in terms:
        start = offset - phase
        if start < 0 or start + 4 > width:
            continue
        values = np.ascontiguousarray(tuples[:, :, start : start + 4])
        flags &= compare_flags(func, values.view(np.int32)[:, :, 0], lo, hi)
    return flags[0] if raw.ndim == 1 else flags


def apply_compound(raw: np.ndarray, stride: int, terms) -> np.ndarray:
    """:func:`compound_flags` as int32 0/1 lanes (the engines' ALU result)."""
    return compound_flags(raw, stride, terms).astype(np.int32)


def loadcmp_bits(raw: np.ndarray, inst, offsets: np.ndarray) -> np.ndarray:
    """Packed response bitmasks of a batch of HMC load-compares.

    ``raw`` holds the ``(ops, size)`` bytes the operations read; they all
    share ``inst``'s shape (size, compare, compound terms).  ``offsets``
    are their addresses relative to the start of their allocation: a
    compound compare over a piece of a tuple evaluates at the piece's
    phase within the tuple.  Returns ``(ops, mask bytes)`` uint8,
    little-endian bit order — one row per operation.
    """
    stride = inst.tuple_stride
    if inst.compound is None:
        dtype = {1: np.int8, 2: np.int16, 4: np.int32, 8: np.int64}[inst.lane_bytes]
        flags = compare_flags(inst.func, raw.view(dtype), inst.imm_lo, inst.imm_hi)
    elif inst.size >= stride:  # whole tuples
        flags = compound_flags(raw, stride, inst.compound)
    else:  # one piece per op, evaluated at its phase within the tuple
        phases = offsets % stride
        flags = np.empty((raw.shape[0], 1), dtype=bool)
        for phase in np.unique(phases):
            chosen = phases == phase
            flags[chosen] = compound_flags(raw[chosen], stride, inst.compound,
                                           int(phase))
    return np.packbits(flags, axis=1, bitorder="little")
