"""x86/AVX codegen: the paper's first baseline.

Lowered exactly as §IV describes: every instruction executes in the
processor, the HMC serves as plain main memory behind the caches.
Vector operations are AVX-style with operand sizes 16/32/64 B (64 B =
AVX-512); loop unrolling is bounded at 8x "due to the reduced number of
general purpose registers".

Two scan flavours:

* :func:`tuple_runs` (NSM): load the whole 64 B tuple in op-size
  pieces, evaluate the conjunction, branch, and materialise matches into
  the intermediate buffer — stores ride the cache hierarchy.
* :func:`column_runs` (DSM): one pass per predicate; each pass
  loads op-size column chunks, compares, conjoins with the running
  byte-mask and stores it back; later passes consult the cached mask to
  skip dead chunks ("cache access for x86", §IV).
"""

from __future__ import annotations

import sys
from typing import Iterator

from ..common.units import ceil_div
from ..cpu.isa import AluFunc, Uop, alu, branch, load, store
from .aggregate import core_aggregate
from .base import (
    PcAllocator,
    RegAllocator,
    ScanConfig,
    ScanWorkload,
    TraceRun,
    column_pass_runs,
    compare_uop_count,
    iterator_overhead,
    lower_plan_runs,
    tuple_runs as base_tuple_runs,
)


def _check(config: ScanConfig) -> None:
    if config.op_bytes > 64:
        raise ValueError("x86 vector operations are limited to 64 B (AVX-512)")
    if config.unroll > 8:
        raise ValueError("x86 unrolling is limited to 8x (register pressure)")


def tuple_runs(workload: ScanWorkload, config: ScanConfig) -> Iterator[TraceRun]:
    """NSM materialising scan as match-keyed trace runs (Figure 3a's x86 bars)."""
    _check(config)
    if workload.nsm is None:
        raise ValueError("tuple-at-a-time needs the NSM table")
    table = workload.nsm
    buffers = workload.buffers
    pcs = PcAllocator()
    regs = RegAllocator()
    induction = regs.new()
    result_ptr = regs.new()
    iter_state = regs.new()
    op = config.op_bytes
    tuple_bytes = table.tuple_bytes
    pieces = ceil_div(tuple_bytes, op)
    matches = workload.final_mask
    # one register per compare uop, plus one per conjunction AND
    compare_regs = sum(map(compare_uop_count, workload.predicates)) + (
        len(workload.predicates) - 1)

    def tuple_body(u: int, row: int, n: int, out_index: int) -> Iterator[Uop]:
        # Volcano next(): per-tuple interpretation, serial across tuples.
        yield from iterator_overhead(pcs, regs, iter_state,
                                     buffers.scratch_base, u)
        tuple_addr = table.tuple_address(row)
        vec = regs.batch(pieces)
        # Load the entire tuple, op-size bytes at a time (§II-B: the
        # tuple-at-a-time scan loads the whole tuple).
        for k in range(pieces):
            yield load(pcs.site(f"ld{u}_{k}"), tuple_addr + k * op, op,
                       dst=vec[k])
        # Evaluate the conjunction on the piece holding the predicate
        # columns (vec[0]): range compares cost two compares + an AND.
        cursor = vec[0]
        for p, predicate in enumerate(workload.predicates):
            if predicate.func == AluFunc.CMP_RANGE:
                lo = regs.new()
                hi = regs.new()
                yield alu(pcs.site(f"cmp{u}_{p}lo"), srcs=(vec[0],), dst=lo)
                yield alu(pcs.site(f"cmp{u}_{p}hi"), srcs=(vec[0],), dst=hi)
                combined = regs.new()
                yield alu(pcs.site(f"and{u}_{p}r"), srcs=(lo, hi), dst=combined)
            else:
                combined = regs.new()
                yield alu(pcs.site(f"cmp{u}_{p}"), srcs=(vec[0],), dst=combined)
            if p > 0:
                conj = regs.new()
                yield alu(pcs.site(f"and{u}_{p}"), srcs=(cursor, combined), dst=conj)
                cursor = conj
            else:
                cursor = combined
        matched = bool(matches[row])
        yield branch(pcs.site(f"br_match{u}"), taken=matched, srcs=(cursor,))
        if matched:
            out_addr = buffers.materialize_base + out_index * tuple_bytes
            for k in range(pieces):
                yield store(pcs.site(f"mat{u}_{k}"), out_addr + k * op, op,
                            srcs=(vec[k], result_ptr))
            yield alu(pcs.site(f"bump{u}"), srcs=(result_ptr,), dst=result_ptr)

    return base_tuple_runs(
        workload, config, "x86tup", pcs, regs, induction,
        fixed_regs=(induction, result_ptr, iter_state),
        group_body=tuple_body,
        group_regs=4 + pieces + compare_regs,  # iterator, tuple, compares
        match_regs=0,
    )


def column_runs(workload: ScanWorkload, config: ScanConfig) -> Iterator[TraceRun]:
    """DSM bitmask scan as chunk-skip-keyed trace runs (Figures 3b/3c).

    Each live chunk loads its op-size column piece into the core and
    compares it there (range predicates cost two compares and an AND);
    :func:`~repro.codegen.base.column_pass_runs` supplies the passes,
    the mask consult and skip branch, the conjunction and the store.
    """
    _check(config)

    def chunk_body(site, regs, predicate, address, size) -> Iterator[Uop]:
        vec = regs.new()
        yield load(site("ld"), address, size, dst=vec)
        if predicate.func == AluFunc.CMP_RANGE:
            lo = regs.new()
            hi = regs.new()
            yield alu(site("cmplo"), srcs=(vec,), dst=lo)
            yield alu(site("cmphi"), srcs=(vec,), dst=hi)
            mask = regs.new()
            yield alu(site("range"), srcs=(lo, hi), dst=mask)
        else:
            mask = regs.new()
            yield alu(site("cmp"), srcs=(vec,), dst=mask)
        return mask

    return column_pass_runs(
        workload, config, "x86col", chunk_body,
        body_regs=lambda predicate: 1 + compare_uop_count(predicate),
    )


def aggregate_runs(workload: ScanWorkload, config: ScanConfig) -> Iterator[TraceRun]:
    """Aggregate lowering: core-side reduction over the cached bitmask."""
    _check(config)
    return core_aggregate(workload, config, "x86agg")


def generate_plan_runs(workload: ScanWorkload, config: ScanConfig) -> Iterator[TraceRun]:
    """Lower the workload's full query plan as steady-state trace runs."""
    return lower_plan_runs(sys.modules[__name__], workload, config)
