"""HMC-ISA codegen: the paper's second baseline.

The extended update instruction set executes load-compares at the
per-vault functional units; everything else (bitmask bookkeeping,
materialisation, control flow) stays on the processor.  "The store
instructions are executed with cache assistance ... however, the
load-compare instructions are processed inside the memory" (§IV).

* :func:`tuple_runs` (NSM): one HMC load-compare per op-size piece
  of each tuple evaluates the whole-tuple conjunction at the vault
  (``compound`` predicate); the per-tuple match branch *depends on the
  returned mask*, and the controller's small outstanding-instruction
  window (``HmcConfig.isa_window``) bounds how many of those round trips
  overlap — the behaviour behind HMC losing at 16–64 B in Figure 3a and
  the 256 B win (4 tuples per round trip).
* :func:`column_runs` (DSM): branchless per-chunk compare-offload;
  the running byte-mask lives in the caches, so HMC ops stream at the
  controller window limit — Figure 3b's 4.38x.
"""

from __future__ import annotations

import sys
from typing import Iterator

import numpy as _np

from ..common.units import ceil_div
from ..cpu.isa import PimInstruction, PimOp, Uop, alu, branch, load, pim, store
from .aggregate import core_aggregate
from .base import (
    PcAllocator,
    RegAllocator,
    ScanConfig,
    ScanWorkload,
    TraceRun,
    column_pass_runs,
    lower_plan_runs,
    tuple_grouping,
    tuple_runs as base_tuple_runs,
)


def _compound_terms(workload: ScanWorkload):
    """Q6 as (tuple_offset, func, lo, hi) terms over the NSM layout."""
    table = workload.nsm
    terms = []
    for predicate in workload.predicates:
        offset = table.column_offsets[predicate.column]
        terms.append((offset, predicate.func, predicate.lo, predicate.hi))
    return tuple(terms)


def _loadcmp(address: int, size: int, **shape) -> PimInstruction:
    """One HMC load-compare returning its match mask."""
    return PimInstruction(PimOp.HMC_LOADCMP, address=address, size=size,
                          returns_value=True, **shape)


def tuple_runs(workload: ScanWorkload, config: ScanConfig) -> Iterator[TraceRun]:
    """NSM scan with in-memory tuple compares, as match-keyed trace runs
    (Figure 3a's HMC bars).

    The bulk hook logs the load-compares of skipped iterations, so the
    runner's mask check sees every group.
    """
    if workload.nsm is None:
        raise ValueError("tuple-at-a-time needs the NSM table")
    table = workload.nsm
    pcs = PcAllocator()
    regs = RegAllocator()
    induction = regs.new()
    result_ptr = regs.new()
    shape = {"compound": _compound_terms(workload),
             "tuple_stride": table.tuple_bytes}
    matches = workload.final_mask
    op = config.op_bytes
    tuple_bytes = table.tuple_bytes
    group, pieces = tuple_grouping(op, tuple_bytes)
    rows = workload.rows
    unroll = config.unroll
    groups = ceil_div(rows, group)

    def group_body(u: int, base_row: int, n: int, out_index: int) -> Iterator[Uop]:
        mask_reg = regs.new()
        for k in range(pieces):
            # Each piece compares the predicate columns it holds (the AND
            # of a tuple's pieces is its match).  The match branches wait
            # on the first piece, which holds Q6's columns; remaining
            # pieces complete the whole-tuple visit.  A partial last
            # group reads only the tuples that remain.
            dst = mask_reg if k == 0 else regs.new()
            yield pim(
                pcs.site(f"hmc{u}_{k}"),
                _loadcmp(table.tuple_address(base_row) + k * op,
                         min(op, n * tuple_bytes), **shape),
                dst=dst,
            )
        # The compiled offload loop replaced the interpreted iterator
        # (§III: the workload is recompiled to use PIM instructions);
        # only the per-tuple match checks and materialisation remain.
        for t in range(n):
            row = base_row + t
            matched = bool(matches[row])
            yield branch(pcs.site(f"br{u}_{t}"), taken=matched, srcs=(mask_reg,))
            if matched:
                # Materialise through the caches: the tuple must travel
                # to the core (cache fill) and back out to the buffer.
                vec = regs.new()
                yield load(pcs.site(f"mat_ld{u}_{t}"), table.tuple_address(row),
                           tuple_bytes, dst=vec)
                out_addr = (workload.buffers.materialize_base
                            + out_index * tuple_bytes)
                yield store(pcs.site(f"mat_st{u}_{t}"), out_addr, tuple_bytes,
                            srcs=(vec, result_ptr))
                yield alu(pcs.site(f"bump{u}"), srcs=(result_ptr,), dst=result_ptr)
                out_index += 1

    def bulk_of(i0, key):
        def bulk(machine, j0, j1, _i0=i0):
            """Log the skipped groups' load-compares (program order)."""
            first = (_i0 + j0) * unroll
            limit = min((_i0 + j1) * unroll, groups)
            whole = min(limit, rows // group)  # groups of `group` tuples
            spans = [(first, whole, group), (max(first, whole), limit,
                                             rows - whole * group)]
            for g0, g1, n in spans:
                if g1 > g0:
                    starts = table.tuple_address(0) + _np.arange(g0, g1) * (
                        group * tuple_bytes)
                    addresses = (starts[:, None] + _np.arange(pieces) * op).reshape(-1)
                    machine.backend.log_loadcmps(
                        addresses, _loadcmp(0, min(op, n * tuple_bytes), **shape))
        return bulk

    return base_tuple_runs(
        workload, config, "hmctup", pcs, regs, induction,
        fixed_regs=(induction, result_ptr),
        group_body=group_body,
        group_regs=pieces,
        match_regs=1,
        bulk_of=bulk_of,
    )


def column_runs(workload: ScanWorkload, config: ScanConfig) -> Iterator[TraceRun]:
    """DSM compare-offload scan as chunk-skip-keyed trace runs.

    Each live chunk is one HMC load-compare returning its match mask to
    the core; :func:`~repro.codegen.base.column_pass_runs` supplies the
    passes, the mask consult and skip branch, the conjunction and the
    store.  The bulk hook reproduces the vault-computed verification
    masks of skipped chunks so the runner's functional check still sees
    every chunk.
    """
    rows = workload.rows
    rpc = config.rows_per_op
    unroll = config.unroll
    n_chunks = ceil_div(rows, rpc)

    def chunk_body(site, regs, predicate, address, size) -> Iterator[Uop]:
        mask = regs.new()
        yield pim(
            site("hmc"),
            _loadcmp(address, size, func=predicate.func, imm_lo=predicate.lo,
                     imm_hi=predicate.hi),
            dst=mask,
        )
        return mask

    def bulk_of(i0, pred, col, dead):
        def bulk(machine, j0, j1):
            """Log the skipped chunks' load-compares (program order).

            Their masks are then evaluated from the memory image,
            exactly like those of simulated chunks; only the
            addresses are computed here, vectorised across the span.
            """
            first = (i0 + j0) * unroll
            limit = min((i0 + j1) * unroll, n_chunks)
            chunks = _np.arange(first, limit)
            if dead is not None:
                chunks = chunks[~dead[first:limit]]
            whole = (chunks + 1) * rpc <= rows
            for part, lanes in ((chunks[whole], rpc),
                                (chunks[~whole], rows % rpc)):
                if part.size:
                    machine.backend.log_loadcmps(
                        col.base + part * (rpc * col.stride),
                        _loadcmp(0, lanes * 4, func=pred.func,
                                 imm_lo=pred.lo, imm_hi=pred.hi))
        return bulk

    return column_pass_runs(workload, config, "hmccol", chunk_body,
                            body_regs=lambda predicate: 1, bulk_of=bulk_of)


def aggregate_runs(workload: ScanWorkload, config: ScanConfig) -> Iterator[TraceRun]:
    """Aggregate lowering: the HMC's extended ISA offers load-*compare*
    only, so reductions run the same core-side loop as x86 (the bitmask
    is cache-resident for both).  The 256 B HMC op sizes exist only in
    the memory; the core's vector units stay AVX-bound, so the loop is
    re-chunked to the 64 B / 8x caps the x86 lowering enforces."""
    core_config = ScanConfig(
        config.layout, config.strategy,
        min(config.op_bytes, 64), min(config.unroll, 8),
    )
    return core_aggregate(workload, core_config, "hmcagg")


def generate_plan_runs(workload: ScanWorkload, config: ScanConfig) -> Iterator[TraceRun]:
    """Lower the workload's full query plan as steady-state trace runs."""
    return lower_plan_runs(sys.modules[__name__], workload, config)
