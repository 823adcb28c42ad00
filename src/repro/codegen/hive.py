"""HIVE codegen: lock/load/compare/store/unlock blocks in the logic layer.

Every chunk of work becomes a *locked block* of HIVE instructions; the
engine executes one block at a time (register-bank exclusivity), so at
unroll 1 the per-block round trip dominates — "the control-dependency of
each isolated lock/unlock block when performing streaming operations
with HIVE" (§IV.A.1).  Unrolling widens blocks: many chunk bodies share
one lock/unlock pair, their loads overlap through the interlocked
register bank, and throughput approaches the vaults' parallelism
(Figure 3c: 7.57x at 32x).

Scan flavours:

* :func:`tuple_at_a_time` (NSM): lock; load the tuple group into
  registers; one compound compare; unlock *returning the match status*
  so the core can branch and materialise — the per-tuple round trip of
  Figure 3a.
* :func:`column_at_a_time` (DSM): one pass per predicate.  The running
  byte-mask is stored by the engine directly to DRAM (HIVE stores bypass
  the caches), so at unroll 1 the core's chunk-skip checks must *fetch
  the bitmask from DRAM* — "more DRAM accesses ... in contrast to cache
  access for x86 and HMC" (§IV.A.1, Figure 3b).  Unrolled variants drop
  core-side skipping and full-scan every column (§IV.A.3: "HIVE performs
  full scan in columns").

Engine registers are physical (36 of them); the codegen allocates fixed
indices per block body and relies on block serialisation plus the WAW
interlock for safe reuse.
"""

from __future__ import annotations

import sys
from typing import Iterator

from fractions import Fraction

import numpy as _np

from ..common.units import ceil_div
from ..cpu.isa import AluFunc, PimInstruction, PimOp, Uop, alu, branch, load, pim, store
from .aggregate import engine_aggregate
from .base import (
    PcAllocator,
    Region,
    RegAllocator,
    ScanConfig,
    ScanWorkload,
    TraceRun,
    chunk_bounds,
    chunk_dead_flags,
    flatten_runs,
    group_runs,
    lower_plan,
    lower_plan_runs,
    tuple_grouping,
    tuple_runs as base_tuple_runs,
)

#: engine registers reserved for codegen use (the bank has 36)
ENGINE_REGS = 36
#: registers per chunk body in a column pass (data+mask vs data-in-place)
_COL_REGS_FIRST = 1  # compare overwrites the loaded register
_COL_REGS_LATER = 2  # loaded column + previous mask


def tuple_runs(workload: ScanWorkload, config: ScanConfig) -> Iterator[TraceRun]:
    """NSM scan, one locked block per tuple group, as match-keyed trace
    runs (Figure 3a HIVE bars)."""
    if workload.nsm is None:
        raise ValueError("tuple-at-a-time needs the NSM table")
    table = workload.nsm
    pcs = PcAllocator()
    regs = RegAllocator()
    induction = regs.new()
    result_ptr = regs.new()
    matches = workload.final_mask
    terms = tuple(
        (table.column_offsets[p.column], p.func, p.lo, p.hi)
        for p in workload.predicates
    )
    op = config.op_bytes
    tuple_bytes = table.tuple_bytes
    __, pieces = tuple_grouping(op, tuple_bytes)
    mask_engine_reg = pieces  # engine register holding the match result

    def group_body(u: int, base_row: int, n: int, out_index: int) -> Iterator[Uop]:
        # A partial last group loads and compares only the tuples that remain.
        size = min(op, n * tuple_bytes)
        yield pim(pcs.site(f"lock{u}"), PimInstruction(PimOp.LOCK))
        for k in range(pieces):
            yield pim(
                pcs.site(f"ld{u}_{k}"),
                PimInstruction(
                    PimOp.PIM_LOAD,
                    address=table.tuple_address(base_row) + k * op,
                    size=size,
                    dst_reg=k,
                ),
            )
        yield pim(
            pcs.site(f"cmp{u}"),
            PimInstruction(
                PimOp.PIM_ALU,
                size=size,
                src_regs=(0,),
                dst_reg=mask_engine_reg,
                compound=terms,
                tuple_stride=tuple_bytes,
            ),
        )
        status = regs.new()
        yield pim(
            pcs.site(f"unlock{u}"),
            PimInstruction(PimOp.UNLOCK, returns_value=True,
                           src_regs=(mask_engine_reg,)),
            dst=status,
        )
        # As with the HMC baseline, the compiled offload loop replaces
        # the interpreted iterator; the core only checks matches.
        for t in range(n):
            row = base_row + t
            matched = bool(matches[row])
            yield branch(pcs.site(f"br{u}_{t}"), taken=matched, srcs=(status,))
            if matched:
                vec = regs.new()
                yield load(pcs.site(f"mat_ld{u}_{t}"), table.tuple_address(row),
                           tuple_bytes, dst=vec)
                out_addr = (workload.buffers.materialize_base
                            + out_index * tuple_bytes)
                yield store(pcs.site(f"mat_st{u}_{t}"), out_addr, tuple_bytes,
                            srcs=(vec, result_ptr))
                yield alu(pcs.site(f"bump{u}"), srcs=(result_ptr,), dst=result_ptr)
                out_index += 1

    return base_tuple_runs(
        workload, config, "hivetup", pcs, regs, induction,
        fixed_regs=(induction, result_ptr),
        group_body=group_body,
        group_regs=1,  # the unlock status
        match_regs=1,
    )


def tuple_at_a_time(workload: ScanWorkload, config: ScanConfig) -> Iterator[Uop]:
    """NSM scan: one locked block per tuple group (Figure 3a HIVE bars)."""
    return flatten_runs(tuple_runs(workload, config))


def _column_block_width(config: ScanConfig, p: int) -> int:
    """Locked-block width of pass ``p`` (chunks per lock/unlock block)."""
    rpc = config.rows_per_op
    accumulators = 1 if p == 0 else 2
    block_width = max(1, min(config.unroll, ENGINE_REGS - accumulators))
    # The block's packed mask bits must fit the 256 B accumulator.
    block_width = min(block_width, (256 * 8) // rpc)
    # Blocks must cover whole mask bytes: small ops (< 8 tuples per
    # chunk) group enough chunks that stores stay byte-granular.
    min_width = ceil_div(8, rpc)
    if block_width % min_width:
        block_width = max(min_width, block_width - block_width % min_width)
    return max(block_width, min_width)


def column_runs(workload: ScanWorkload, config: ScanConfig) -> Iterator[TraceRun]:
    """DSM scan: per-column passes of locked blocks, as trace runs.

    Each locked block covers up to ``unroll`` chunks.  The chunks' match
    bits are PACKed into one accumulator register and written to the
    bitmask buffer with a single DRAM store per block; later passes load
    the previous accumulator back the same way and UNPACK per chunk.

    One run iteration covers ``unroll`` consecutive blocks — exactly one
    cycle of the pc-site ``body`` counter, so every iteration lowers to
    the same static instructions.  The bulk hook writes the engine's
    packed bitmask bytes for skipped iterations (the conjunction the
    locked blocks would have stored).
    """
    if workload.dsm is None:
        raise ValueError("column-at-a-time needs the DSM table")
    table = workload.dsm
    buffers = workload.buffers
    pcs = PcAllocator()
    regs = RegAllocator()
    induction = regs.new()
    rows = workload.rows
    rpc = config.rows_per_op
    unroll = config.unroll
    # Core-side chunk skipping only exists in the un-unrolled variant;
    # the unrolled code full-scans every column (paper §IV.A.3).
    core_skip = unroll == 1
    acc_new = ENGINE_REGS - 1  # packed masks produced by this pass
    acc_prev = ENGINE_REGS - 2  # packed masks of the previous pass
    n_chunks = ceil_div(rows, rpc)

    for p, predicate in enumerate(workload.predicates):
        column = table.column(predicate.column)
        prev_running = workload.running_mask(p - 1) if p > 0 else None
        running = workload.running_mask(p)
        dead = chunk_dead_flags(prev_running, rpc, n_chunks) if p > 0 else None
        block_width = _column_block_width(config, p)
        n_blocks = ceil_div(n_chunks, block_width)
        blocks_per_iter = unroll  # one full cycle of the body counter
        n_iters = ceil_div(n_blocks, blocks_per_iter)

        def block_bounds(b: int):
            """(start_row, stop_row, chunk list) of block ``b``."""
            first = b * block_width
            limit = min(first + block_width, n_chunks)
            chunk_list = [
                (c, c * rpc, min((c + 1) * rpc, rows)) for c in range(first, limit)
            ]
            return chunk_list

        def iteration_key(i: int):
            first_b = i * blocks_per_iter
            limit_b = min(first_b + blocks_per_iter, n_blocks)
            shape = []
            nregs = 0
            for b in range(first_b, limit_b):
                chunk_list = block_bounds(b)
                flags = tuple(
                    bool(dead[c]) if (core_skip and p > 0) else False
                    for c, __, ___ in chunk_list
                )
                sizes = tuple(stop - start for __, start, stop in chunk_list)
                shape.append((flags, sizes))
                if core_skip and p > 0:
                    nregs += len(chunk_list)
                    if not all(flags):
                        nregs += 1  # unlock status register
                elif core_skip:
                    nregs += 1  # unlock status register
            taken_tail = limit_b == n_blocks  # loop branch falls through
            return (tuple(shape), taken_tail), nregs

        def make_iteration(i, pass_index, pred, col, dead_flags):
            first_b = i * blocks_per_iter
            limit_b = min(first_b + blocks_per_iter, n_blocks)
            for b in range(first_b, limit_b):
                body = (b - first_b) if not core_skip else 0
                chunk_list = block_bounds(b)
                block_start_row = chunk_list[0][1]
                block_rows = chunk_list[-1][2] - block_start_row
                mask_addr = buffers.mask_address(block_start_row)
                mask_bytes = buffers.mask_bytes_for(block_rows)
                last_block = b == n_blocks - 1
                skip_flags = [False] * len(chunk_list)
                if core_skip and pass_index > 0:
                    # The core fetches the engine-written bitmask from DRAM
                    # (it was never cached) to decide what to process.
                    for j, (c, start, stop) in enumerate(chunk_list):
                        prev_mask = regs.new()
                        yield load(pcs.site(f"p{pass_index}_ldmask{body}"),
                                   buffers.mask_address(start),
                                   buffers.mask_bytes_for(stop - start),
                                   dst=prev_mask)
                        skip_flags[j] = bool(dead_flags[c])
                        yield branch(pcs.site(f"p{pass_index}_skip{body}"),
                                     taken=skip_flags[j], srcs=(prev_mask,))
                    if all(skip_flags):
                        yield alu(pcs.site(f"p{pass_index}_ind"),
                                  srcs=(induction,), dst=induction)
                        yield branch(pcs.site(f"p{pass_index}_loop"),
                                     taken=not last_block, srcs=(induction,))
                        continue
                yield pim(pcs.site(f"p{pass_index}_lock{body}"), PimInstruction(PimOp.LOCK))
                if pass_index > 0:
                    # One row-granular load brings the whole block's previous
                    # masks into the accumulator.
                    yield pim(
                        pcs.site(f"p{pass_index}_ldacc{body}"),
                        PimInstruction(PimOp.PIM_LOAD, address=mask_addr,
                                       size=mask_bytes, dst_reg=acc_prev,
                                       lane_bytes=1),
                    )
                # Phase 1: stream the column loads — they overlap in the
                # interlocked register bank across vaults.
                for j, (c, start, stop) in enumerate(chunk_list):
                    if skip_flags[j]:
                        continue
                    yield pim(
                        pcs.site(f"p{pass_index}_ld{j}"),
                        PimInstruction(PimOp.PIM_LOAD, address=col.address_of(start),
                                       size=(stop - start) * 4, dst_reg=j),
                    )
                # Phase 2: compares (in place) and mask packing.
                for j, (c, start, stop) in enumerate(chunk_list):
                    lanes = stop - start
                    bit_offset = start - block_start_row
                    if skip_flags[j]:
                        continue
                    yield pim(
                        pcs.site(f"p{pass_index}_cmp{j}"),
                        PimInstruction(PimOp.PIM_ALU, size=lanes * 4,
                                       src_regs=(j,), dst_reg=j,
                                       func=pred.func, imm_lo=pred.lo,
                                       imm_hi=pred.hi),
                    )
                    yield pim(
                        pcs.site(f"p{pass_index}_pack{j}"),
                        PimInstruction(PimOp.PACK_MASK, size=lanes,
                                       src_regs=(j,), dst_reg=acc_new,
                                       imm_lo=bit_offset),
                    )
                if pass_index > 0:
                    # Conjoin with the previous pass at block granularity:
                    # a bitwise AND of the two packed accumulators is exactly
                    # the lane-wise conjunction of the whole block's masks.
                    yield pim(
                        pcs.site(f"p{pass_index}_andacc{body}"),
                        PimInstruction(PimOp.PIM_ALU, size=mask_bytes,
                                       src_regs=(acc_new, acc_prev),
                                       dst_reg=acc_new, func=AluFunc.AND,
                                       lane_bytes=1),
                    )
                # Phase 3: one store writes the block's packed masks to DRAM
                # (bypassing — and invalidating — the processor caches).
                yield pim(
                    pcs.site(f"p{pass_index}_stacc{body}"),
                    PimInstruction(PimOp.PIM_STORE, address=mask_addr,
                                   size=mask_bytes, src_regs=(acc_new,)),
                )
                if core_skip:
                    # Un-unrolled code waits for each isolated block's unlock
                    # status before moving on — the per-block round trip of
                    # §IV.A.1 ("control-dependency of each isolated
                    # lock/unlock block").
                    status = regs.new()
                    yield pim(pcs.site(f"p{pass_index}_unlock{body}"),
                              PimInstruction(PimOp.UNLOCK, returns_value=True),
                              dst=status)
                    yield branch(pcs.site(f"p{pass_index}_chk{body}"), taken=False,
                                 srcs=(status,))
                else:
                    yield pim(pcs.site(f"p{pass_index}_unlock{body}"),
                              PimInstruction(PimOp.UNLOCK))
                yield alu(pcs.site(f"p{pass_index}_ind"), srcs=(induction,), dst=induction)
                yield branch(pcs.site(f"p{pass_index}_loop"), taken=not last_block,
                             srcs=(induction,))

        def make_bulk(i0, shape, bits):
            rows_per_iter = blocks_per_iter * block_width * rpc
            all_skip = any(flags and all(flags) for flags, __ in shape)

            def bulk(machine, j0, j1, _i0=i0, _shape=shape, _bits=bits):
                """Engine-stored packed mask bytes of skipped iterations.

                Vectorised across the span: when no block of the shape
                is fully skipped (every iteration stores its whole mask
                range — the common streaming case) the span is one
                contiguous ``packbits`` write; otherwise fall back to
                per-block writes that honour the skip holes.
                """
                image = machine.image
                if not all_skip:
                    start = (_i0 + j0) * rows_per_iter
                    stop = min((_i0 + j1) * rows_per_iter, rows)
                    image.write(
                        buffers.mask_address(start),
                        _np.packbits(_bits[start:stop], bitorder="little"),
                    )
                    return
                for i in range(_i0 + j0, _i0 + j1):
                    first_b = i * blocks_per_iter
                    limit_b = min(first_b + blocks_per_iter, n_blocks)
                    for b in range(first_b, limit_b):
                        flags = _shape[b - first_b][0]
                        if flags and all(flags):
                            continue  # all-skip block: nothing stored
                        chunk_list = block_bounds(b)
                        start = chunk_list[0][1]
                        stop = chunk_list[-1][2]
                        image.write(
                            buffers.mask_address(start),
                            _np.packbits(_bits[start:stop], bitorder="little"),
                        )
            return bulk

        rows_per_iter = blocks_per_iter * block_width * rpc

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

        yield from group_runs(
            regs, n_iters,
            iteration_key=iteration_key,
            make_iteration=(
                lambda i, _p=p, _pred=predicate, _col=column, _dead=dead,
                _mk=make_iteration: _mk(i, _p, _pred, _col, _dead)
            ),
            run_key=(lambda key, _p=p:
                     ("hivecol", _p, config.op_bytes, unroll) + key),
            regions_of=regions_of,
            bulk_of=(lambda i0, key, _bits=running: make_bulk(i0, key[0], _bits)),
            fixed_regs=(induction,),
            family=("hivecol", p, config.op_bytes, unroll),
        )


def column_at_a_time(workload: ScanWorkload, config: ScanConfig) -> Iterator[Uop]:
    """DSM scan: per-column passes of locked blocks (Figures 3b/3c)."""
    return flatten_runs(column_runs(workload, config))


def generate(workload: ScanWorkload, config: ScanConfig) -> Iterator[Uop]:
    """Dispatch on the configured strategy."""
    if config.strategy == "tuple":
        return tuple_at_a_time(workload, config)
    return column_at_a_time(workload, config)


# -- per-operator lowering protocol (codegen.base.lower_plan) ----------------

#: Filter lowering: the locked-block select scan
lower_filter = generate


def lower_filter_runs(workload: ScanWorkload, config: ScanConfig) -> Iterator[TraceRun]:
    """Filter lowering as steady-state runs."""
    if config.strategy == "tuple":
        return tuple_runs(workload, config)
    return column_runs(workload, config)


def lower_aggregate(workload: ScanWorkload, config: ScanConfig) -> Iterator[Uop]:
    """Aggregate lowering: unpredicated locked-block reduction in the
    logic layer (every chunk streams; dead chunks contribute zeros)."""
    return engine_aggregate(workload, config, ENGINE_REGS, predicated=False)


def generate_plan(workload: ScanWorkload, config: ScanConfig) -> Iterator[Uop]:
    """Lower the workload's full query plan."""
    return lower_plan(sys.modules[__name__], workload, config)


def generate_plan_runs(workload: ScanWorkload, config: ScanConfig) -> Iterator[TraceRun]:
    """Lower the workload's full query plan as steady-state trace runs."""
    return lower_plan_runs(sys.modules[__name__], workload, config)
