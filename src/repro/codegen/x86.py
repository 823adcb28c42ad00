"""x86/AVX codegen: the paper's first baseline.

Lowered exactly as §IV describes: every instruction executes in the
processor, the HMC serves as plain main memory behind the caches.
Vector operations are AVX-style with operand sizes 16/32/64 B (64 B =
AVX-512); loop unrolling is bounded at 8x "due to the reduced number of
general purpose registers".

Two scan flavours:

* :func:`tuple_at_a_time` (NSM): load the whole 64 B tuple in op-size
  pieces, evaluate the conjunction, branch, and materialise matches into
  the intermediate buffer — stores ride the cache hierarchy.
* :func:`column_at_a_time` (DSM): one pass per predicate; each pass
  loads op-size column chunks, compares, conjoins with the running
  byte-mask and stores it back; later passes consult the cached mask to
  skip dead chunks ("cache access for x86", §IV).
"""

from __future__ import annotations

import sys
from typing import Iterator

import numpy as np

from fractions import Fraction

from ..common.units import ceil_div
from ..cpu.isa import AluFunc, Uop, alu, branch, load, store
from .aggregate import core_aggregate
from .base import (
    PcAllocator,
    Region,
    RegAllocator,
    ScanConfig,
    ScanWorkload,
    TraceRun,
    chunk_bounds,
    chunk_dead_flags,
    compare_uop_count,
    flatten_runs,
    group_runs,
    iterator_overhead,
    lower_plan,
    lower_plan_runs,
    skip_pattern_key_ids,
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


def tuple_at_a_time(workload: ScanWorkload, config: ScanConfig) -> Iterator[Uop]:
    """NSM materialising scan (Figure 3a's x86 bars)."""
    return flatten_runs(tuple_runs(workload, config))


def column_runs(workload: ScanWorkload, config: ScanConfig) -> Iterator[TraceRun]:
    """DSM bitmask scan as steady-state trace runs (Figures 3b/3c).

    One iteration is one unrolled loop body: up to ``unroll`` chunk
    bodies followed by the induction/loop-branch overhead.  Consecutive
    iterations with the same shape (same chunk-skip pattern, same chunk
    sizes, same loop-branch direction) are grouped into one
    :class:`~repro.codegen.base.TraceRun` whose addresses advance
    uniformly — exactly what the replay layer needs to fast-forward.
    """
    _check(config)
    if workload.dsm is None:
        raise ValueError("column-at-a-time needs the DSM table")
    table = workload.dsm
    buffers = workload.buffers
    pcs = PcAllocator()
    regs = RegAllocator()
    induction = regs.new()  # first allocation: id is fixed across the scan
    rows = workload.rows
    rpc = config.rows_per_op  # rows per chunk
    unroll = config.unroll
    n_chunks = ceil_div(rows, rpc)
    n_iters = ceil_div(n_chunks, unroll)

    for p, predicate in enumerate(workload.predicates):
        column = table.column(predicate.column)
        prev_running = workload.running_mask(p - 1) if p > 0 else None
        if p > 0:
            dead = chunk_dead_flags(prev_running, rpc, n_chunks)
        is_range = predicate.func == AluFunc.CMP_RANGE
        full_regs = (1 + (3 if is_range else 1)) + (1 if p > 0 else 0)
        per_chunk_regs = (1 if p > 0 else 0)  # the mask-consult load

        def iteration_key(i: int):
            """(flags, sizes, loop-taken) of iteration ``i`` of pass p."""
            first = i * unroll
            limit = min(first + unroll, n_chunks)
            flags = []
            sizes = []
            nregs = 0
            for c in range(first, limit):
                skip = bool(dead[c]) if p > 0 else False
                flags.append(skip)
                sizes.append(min((c + 1) * rpc, rows) - c * rpc)
                nregs += per_chunk_regs + (0 if skip else full_regs)
            taken = min(limit * rpc, rows) != rows
            return (tuple(flags), tuple(sizes), taken), nregs

        def make_iteration(i: int, pass_index: int, pred, col, dead_flags):
            """The uops of iteration ``i`` (registers already seated)."""
            first = i * unroll
            limit = min(first + unroll, n_chunks)
            for pos, c in enumerate(range(first, limit)):
                start = c * rpc
                stop = min(start + rpc, rows)
                mask_addr = buffers.mask_address(start)
                mask_bytes = buffers.mask_bytes_for(stop - start)
                if pass_index > 0:
                    # Consult the (cached) running mask; skip dead chunks.
                    prev_mask = regs.new()
                    yield load(pcs.site(f"p{pass_index}_ldmask{pos}"), mask_addr,
                               mask_bytes, dst=prev_mask)
                    skip = bool(dead_flags[c])
                    yield branch(pcs.site(f"p{pass_index}_skip{pos}"),
                                 taken=skip, srcs=(prev_mask,))
                else:
                    prev_mask = None
                    skip = False
                if not skip:
                    vec = regs.new()
                    yield load(pcs.site(f"p{pass_index}_ld{pos}"),
                               col.address_of(start), (stop - start) * 4, dst=vec)
                    if pred.func == AluFunc.CMP_RANGE:
                        lo = regs.new()
                        hi = regs.new()
                        yield alu(pcs.site(f"p{pass_index}_cmplo{pos}"), srcs=(vec,), dst=lo)
                        yield alu(pcs.site(f"p{pass_index}_cmphi{pos}"), srcs=(vec,), dst=hi)
                        mask = regs.new()
                        yield alu(pcs.site(f"p{pass_index}_range{pos}"), srcs=(lo, hi), dst=mask)
                    else:
                        mask = regs.new()
                        yield alu(pcs.site(f"p{pass_index}_cmp{pos}"), srcs=(vec,), dst=mask)
                    if prev_mask is not None:
                        conj = regs.new()
                        yield alu(pcs.site(f"p{pass_index}_and{pos}"),
                                  srcs=(mask, prev_mask), dst=conj)
                        mask = conj
                    yield store(pcs.site(f"p{pass_index}_stmask{pos}"), mask_addr,
                                mask_bytes, srcs=(mask,))
                if stop == rows or pos == limit - first - 1:
                    yield alu(pcs.site(f"p{pass_index}_ind"), srcs=(induction,), dst=induction)
                    yield branch(pcs.site(f"p{pass_index}_loop"), taken=stop != rows,
                                 srcs=(induction,))

        rows_per_iter = unroll * rpc

        def regions_of(i0, count, _col=column):
            start_row = i0 * rows_per_iter
            end_row = min((i0 + count) * rows_per_iter, rows)
            return (
                Region(_col.address_of(start_row), _col.address_of(end_row),
                       rows_per_iter * 4),
                Region(buffers.mask_address(start_row),
                       buffers.bitmask_base + (end_row + 7) // 8,
                       Fraction(rows_per_iter, 8)),
            )

        key_ids = skip_pattern_key_ids(dead if p > 0 else None,
                                       n_iters, unroll)

        yield from group_runs(
            regs, n_iters,
            iteration_key=iteration_key,
            make_iteration=(
                lambda i, _p=p, _pred=predicate, _col=column,
                _dead=(dead if p > 0 else None), _mk=make_iteration:
                _mk(i, _p, _pred, _col, _dead)
            ),
            run_key=(lambda key, _p=p:
                     ("x86col", _p, config.op_bytes, unroll) + key),
            regions_of=regions_of,
            fixed_regs=(induction,),
            key_ids=key_ids,
            family=("x86col", p, config.op_bytes, unroll),
        )


def column_at_a_time(workload: ScanWorkload, config: ScanConfig) -> Iterator[Uop]:
    """DSM bitmask scan (Figures 3b/3c's x86 bars)."""
    return flatten_runs(column_runs(workload, config))


def generate(workload: ScanWorkload, config: ScanConfig) -> Iterator[Uop]:
    """Dispatch on the configured strategy."""
    if config.strategy == "tuple":
        return tuple_at_a_time(workload, config)
    return column_at_a_time(workload, config)


# -- per-operator lowering protocol (codegen.base.lower_plan) ----------------

#: Filter lowering: the select scan itself
lower_filter = generate


def lower_filter_runs(workload: ScanWorkload, config: ScanConfig) -> Iterator[TraceRun]:
    """Filter lowering as steady-state runs."""
    if config.strategy == "tuple":
        return tuple_runs(workload, config)
    return column_runs(workload, config)


def lower_aggregate(workload: ScanWorkload, config: ScanConfig) -> Iterator[Uop]:
    """Aggregate lowering: core-side reduction over the cached bitmask."""
    _check(config)
    return core_aggregate(workload, config)


def generate_plan(workload: ScanWorkload, config: ScanConfig) -> Iterator[Uop]:
    """Lower the workload's full query plan."""
    return lower_plan(sys.modules[__name__], workload, config)


def generate_plan_runs(workload: ScanWorkload, config: ScanConfig) -> Iterator[TraceRun]:
    """Lower the workload's full query plan as steady-state trace runs."""
    return lower_plan_runs(sys.modules[__name__], workload, config)


def expected_mask_bytes(workload: ScanWorkload) -> np.ndarray:
    """The byte-mask the column scan should leave in the mask buffer."""
    return workload.final_mask.astype(np.uint8)
