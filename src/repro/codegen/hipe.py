"""HIPE codegen: predicated single-pass column evaluation.

The paper's contribution in action (§III, Figure 2): the compiler
transforms the scan's control-flow into data-flow by predicating the
later columns' loads and compares on the earlier columns' zero flags —

    load   r_a <- shipdate chunk
    cmp    r_a <- range(r_a)              ; sets zero flags
    load   r_b <- discount chunk   [pred r_a]   ; skipped lanes not read
    cmp    r_b <- range(r_b)       [pred r_a]   ; conjunction by masking
    load   r_c <- quantity chunk   [pred r_b]
    cmp    r_c <- lt(r_c)          [pred r_b]
    stmask r_c -> mask chunk

"During the select scan, if the first attribute did not match the query
condition the second attribute for that same tuple will not be loaded
and compared" (§IV.A.3).  A chunk whose predicate register is all-zero
is squashed entirely (no DRAM activation); partially matching chunks
transfer only the surviving lanes' bytes — both show up as skipped DRAM
bytes in the energy model.

Unlike HIVE's three full passes, everything happens in one pass with no
bitmask round trips; the cost is the load->compare->load dependence
chain and the 3-registers-per-chunk pressure that bounds how many chunks
a block can pipeline — the ~15 % the paper reports versus HIVE.

Tuple-at-a-time falls back to the HIVE lowering: a single compound
compare per tuple leaves predication nothing to skip.
"""

from __future__ import annotations

import sys
from typing import Iterator

from fractions import Fraction

import numpy as _np

from ..cpu.isa import PimInstruction, PimOp, Uop, alu, branch, pim
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
    chunk_matched_counts,
    flatten_runs,
    group_runs,
    lower_plan,
    lower_plan_runs,
)
from .hive import ENGINE_REGS, tuple_runs as hive_tuple_runs

#: engine registers per chunk body: two, alternated across the three
#: column levels (level 2 reuses level 0's register once its flags have
#: been consumed as level 1's predicate — the WAW interlock guards it)
_REGS_PER_CHUNK = 2


def column_runs(workload: ScanWorkload, config: ScanConfig) -> Iterator[TraceRun]:
    """Single-pass predicated scan as trace runs (Figure 3d's HIPE bar).

    Handles any conjunction length >= 1: column 0 loads and compares
    unconditionally, every later column is predicated on its
    predecessor's zero flags, alternating between the chunk's two data
    registers (Q6's three predicates are the paper's instance).

    One iteration covers ``unroll`` blocks (one pc-site body cycle).
    Note the *timing* of predicated loads is data-dependent (squashed /
    partial-load lanes vary per chunk), so these runs usually refuse to
    converge in the replay layer and simulate exactly — the structure
    still bounds trace memory and serves selectivity extremes.
    """
    if workload.dsm is None:
        raise ValueError("column-at-a-time needs the DSM table")
    levels = len(workload.predicates)
    if levels < 1:
        raise ValueError("the predicated scan needs at least one predicate")
    table = workload.dsm
    buffers = workload.buffers
    pcs = PcAllocator()
    regs = RegAllocator()
    induction = regs.new()
    rows = workload.rows
    rpc = config.rows_per_op
    unroll = config.unroll
    acc = ENGINE_REGS - 1  # packed-mask accumulator of the block
    # Pipeline depth: two live data registers per chunk plus the shared
    # accumulator bound how many chunks one block keeps in flight — the
    # register-pressure-plus-dependence cost of predication the paper
    # prices at ~15 % versus HIVE's free-streaming passes (§IV.A.3).
    block_width = max(1, min(unroll, (ENGINE_REGS - 1) // _REGS_PER_CHUNK))
    block_width = min(block_width, (256 * 8) // rpc)
    # Whole mask bytes per block (see the HIVE codegen for rationale).
    min_width = -(-8 // rpc)
    if block_width % min_width:
        block_width = max(min_width, block_width - block_width % min_width)
    block_width = max(block_width, min_width)
    columns = [table.column(p.column) for p in workload.predicates]
    n_chunks = -(-rows // rpc)
    n_blocks = -(-n_chunks // block_width)
    blocks_per_iter = unroll
    n_iters = -(-n_blocks // blocks_per_iter)
    final_mask = workload.final_mask
    # Predicated-load *timing* is data-dependent exactly where a chunk's
    # running conjunction dies: an all-false predicate register squashes
    # the next level's load outright (no DRAM access, squash latency).
    # The per-chunk squash pattern is therefore part of the iteration
    # shape: regions of uniform predicate behaviour (no squashes — e.g.
    # any workload whose per-chunk selectivity never hits zero) group
    # into runs the replay layer can fast-forward, while chunks that do
    # squash split the run and stay on the exact path.
    squashes = [
        chunk_dead_flags(workload.running_mask(level), rpc, n_chunks)
        for level in range(levels - 1)
    ]
    # Partial-predicated-loads extension: each predicated access's DRAM
    # transfer is sized by the chunk's matched-lane count, so the counts
    # join the iteration shape — replay then refuses or engages per
    # run like any other data-shaped pass instead of the whole config
    # bypassing the replay layer.
    lane_counts = None
    if workload.partial_lanes:
        lane_counts = [
            chunk_matched_counts(workload.running_mask(level), rpc, n_chunks)
            for level in range(levels)
        ]

    def block_chunks(b: int):
        first = b * block_width
        limit = min(first + block_width, n_chunks)
        return [(c, c * rpc, min((c + 1) * rpc, rows)) for c in range(first, limit)]

    def iteration_key(i: int):
        first_b = i * blocks_per_iter
        limit_b = min(first_b + blocks_per_iter, n_blocks)
        if lane_counts is None:
            shape = tuple(
                tuple(
                    (stop - start,
                     tuple(bool(level_flags[c]) for level_flags in squashes))
                    for c, start, stop in block_chunks(b)
                )
                for b in range(first_b, limit_b)
            )
        else:
            shape = tuple(
                tuple(
                    (stop - start,
                     tuple(bool(level_flags[c]) for level_flags in squashes),
                     tuple(int(counts[c]) for counts in lane_counts))
                    for c, start, stop in block_chunks(b)
                )
                for b in range(first_b, limit_b)
            )
        return (shape, limit_b == n_blocks)

    def make_iteration(i):
        first_b = i * blocks_per_iter
        limit_b = min(first_b + blocks_per_iter, n_blocks)
        for b in range(first_b, limit_b):
            body = b % max(1, unroll)
            block = block_chunks(b)
            block_start_row = block[0][1]
            block_rows = block[-1][2] - block_start_row
            last_block = b == n_blocks - 1
            yield pim(pcs.site(f"lock{body}"), PimInstruction(PimOp.LOCK))
            # Column 0: unconditional loads + compares (phase-ordered so the
            # loads of the whole block overlap in the interlock bank).
            for j, (chunk, start, stop) in enumerate(block):
                reg_a = j * _REGS_PER_CHUNK
                yield pim(
                    pcs.site(f"ld0_{j}"),
                    PimInstruction(PimOp.PIM_LOAD, address=columns[0].address_of(start),
                                   size=(stop - start) * 4, dst_reg=reg_a),
                )
            for j, (chunk, start, stop) in enumerate(block):
                reg_a = j * _REGS_PER_CHUNK
                p0 = workload.predicates[0]
                yield pim(
                    pcs.site(f"cmp0_{j}"),
                    PimInstruction(PimOp.PIM_ALU, size=(stop - start) * 4,
                                   src_regs=(reg_a,), dst_reg=reg_a,
                                   func=p0.func, imm_lo=p0.lo, imm_hi=p0.hi),
                )
            # Columns 1..n: predicated on the previous column's zero flags.
            # Registers alternate: level k lives in register (k mod 2) of the
            # chunk's pair, so level k+2 recycles level k's register.
            for level in range(1, levels):
                predicate = workload.predicates[level]
                for j, (chunk, start, stop) in enumerate(block):
                    pred_reg = j * _REGS_PER_CHUNK + ((level - 1) % 2)
                    dst_reg = j * _REGS_PER_CHUNK + (level % 2)
                    yield pim(
                        pcs.site(f"ld{level}_{j}"),
                        PimInstruction(PimOp.PIM_LOAD,
                                       address=columns[level].address_of(start),
                                       size=(stop - start) * 4, dst_reg=dst_reg,
                                       pred_reg=pred_reg),
                    )
                for j, (chunk, start, stop) in enumerate(block):
                    pred_reg = j * _REGS_PER_CHUNK + ((level - 1) % 2)
                    dst_reg = j * _REGS_PER_CHUNK + (level % 2)
                    yield pim(
                        pcs.site(f"cmp{level}_{j}"),
                        PimInstruction(PimOp.PIM_ALU, size=(stop - start) * 4,
                                       src_regs=(dst_reg,), dst_reg=dst_reg,
                                       func=predicate.func, imm_lo=predicate.lo,
                                       imm_hi=predicate.hi, pred_reg=pred_reg),
                    )
            # Pack every chunk's final flags into the accumulator; one store
            # writes the whole block's bitmask to DRAM.
            for j, (chunk, start, stop) in enumerate(block):
                last_reg = j * _REGS_PER_CHUNK + ((levels - 1) % 2)  # final level's register
                yield pim(
                    pcs.site(f"pack_{j}"),
                    PimInstruction(PimOp.PACK_MASK, size=stop - start,
                                   src_regs=(last_reg,), dst_reg=acc,
                                   imm_lo=start - block_start_row),
                )
            yield pim(
                pcs.site(f"stacc{body}"),
                PimInstruction(PimOp.PIM_STORE,
                               address=buffers.mask_address(block_start_row),
                               size=buffers.mask_bytes_for(block_rows),
                               src_regs=(acc,)),
            )
            yield pim(pcs.site(f"unlock{body}"), PimInstruction(PimOp.UNLOCK))
            yield alu(pcs.site("ind"), srcs=(induction,), dst=induction)
            yield branch(pcs.site("loop"), taken=not last_block, srcs=(induction,))

    rows_per_iter = blocks_per_iter * block_width * rpc

    def regions_of(i0, count):
        start_row = i0 * rows_per_iter
        end_row = min((i0 + count) * rows_per_iter, rows)
        return tuple(
            Region(col.address_of(start_row), col.address_of(end_row),
                   rows_per_iter * 4)
            for col in columns
        ) + (
            Region(buffers.mask_address(start_row),
                   buffers.bitmask_base + (end_row + 7) // 8,
                   Fraction(rows_per_iter, 8)),
        )

    def bulk_of(i0, key):
        def run_bulk(machine, j0, j1, _i0=i0):
            """The predicated pass writes the final mask bits directly."""
            start = (_i0 + j0) * rows_per_iter
            stop = min((_i0 + j1) * rows_per_iter, rows)
            machine.image.write(
                buffers.mask_address(start),
                _np.packbits(final_mask[start:stop], bitorder="little"),
            )
        return run_bulk

    yield from group_runs(
        regs, n_iters,
        iteration_key=lambda i: (iteration_key(i), 0),
        make_iteration=make_iteration,
        run_key=lambda key: ("hipecol", config.op_bytes, unroll) + key,
        regions_of=regions_of,
        bulk_of=bulk_of,
        fixed_regs=(induction,),
        family=("hipecol", config.op_bytes, unroll),
    )


def column_at_a_time(workload: ScanWorkload, config: ScanConfig) -> Iterator[Uop]:
    """Single-pass predicated scan (Figure 3d's HIPE bar)."""
    return flatten_runs(column_runs(workload, config))


def generate(workload: ScanWorkload, config: ScanConfig) -> Iterator[Uop]:
    """Dispatch on the configured strategy (tuple mode = HIVE lowering)."""
    if config.strategy == "tuple":
        return flatten_runs(hive_tuple_runs(workload, config))
    return column_at_a_time(workload, config)


# -- per-operator lowering protocol (codegen.base.lower_plan) ----------------

#: Filter lowering: the single-pass predicated scan
lower_filter = generate


def lower_filter_runs(workload: ScanWorkload, config: ScanConfig) -> Iterator[TraceRun]:
    """Filter lowering as steady-state runs (tuple mode = HIVE's runs)."""
    if config.strategy == "tuple":
        return hive_tuple_runs(workload, config)
    return column_runs(workload, config)


def lower_aggregate(workload: ScanWorkload, config: ScanConfig) -> Iterator[Uop]:
    """Aggregate lowering: locked-block reduction with the column loads
    predicated on the filter mask — chunks with no candidate tuples are
    squashed before they touch DRAM, as in the predicated scan."""
    return engine_aggregate(workload, config, ENGINE_REGS, predicated=True)


def generate_plan(workload: ScanWorkload, config: ScanConfig) -> Iterator[Uop]:
    """Lower the workload's full query plan."""
    return lower_plan(sys.modules[__name__], workload, config)


def generate_plan_runs(workload: ScanWorkload, config: ScanConfig) -> Iterator[TraceRun]:
    """Lower the workload's full query plan as steady-state trace runs."""
    return lower_plan_runs(sys.modules[__name__], workload, config)
