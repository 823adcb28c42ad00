"""HMC-ISA codegen: the paper's second baseline.

The extended update instruction set executes load-compares at the
per-vault functional units; everything else (bitmask bookkeeping,
materialisation, control flow) stays on the processor.  "The store
instructions are executed with cache assistance ... however, the
load-compare instructions are processed inside the memory" (§IV).

* :func:`tuple_at_a_time` (NSM): one HMC load-compare per op-size piece
  of each tuple evaluates the whole-tuple conjunction at the vault
  (``compound`` predicate); the per-tuple match branch *depends on the
  returned mask*, and the controller's small outstanding-instruction
  window (``HmcConfig.isa_window``) bounds how many of those round trips
  overlap — the behaviour behind HMC losing at 16–64 B in Figure 3a and
  the 256 B win (4 tuples per round trip).
* :func:`column_at_a_time` (DSM): branchless per-chunk compare-offload;
  the running byte-mask lives in the caches, so HMC ops stream at the
  controller window limit — Figure 3b's 4.38x.
"""

from __future__ import annotations

import sys
from typing import Iterator

from fractions import Fraction

import numpy as _np

from ..common.units import ceil_div
from ..cpu.isa import PimInstruction, PimOp, Uop, alu, branch, load, pim, store
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
    flatten_runs,
    group_runs,
    lower_plan,
    lower_plan_runs,
    skip_pattern_key_ids,
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


def tuple_at_a_time(workload: ScanWorkload, config: ScanConfig) -> Iterator[Uop]:
    """NSM scan with in-memory tuple compares (Figure 3a's HMC bars)."""
    return flatten_runs(tuple_runs(workload, config))


def column_runs(workload: ScanWorkload, config: ScanConfig) -> Iterator[TraceRun]:
    """DSM compare-offload scan as steady-state trace runs.

    Same run structure as the x86 column lowering (one iteration = one
    unrolled loop body); the bulk hook reproduces the vault-computed
    verification masks of skipped chunks so the runner's functional
    check still sees every chunk.
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
    n_chunks = ceil_div(rows, rpc)
    n_iters = ceil_div(n_chunks, unroll)

    for p, predicate in enumerate(workload.predicates):
        column = table.column(predicate.column)
        prev_running = workload.running_mask(p - 1) if p > 0 else None
        if p > 0:
            dead = chunk_dead_flags(prev_running, rpc, n_chunks)
        else:
            dead = None

        def iteration_key(i: int):
            first = i * unroll
            limit = min(first + unroll, n_chunks)
            flags = []
            sizes = []
            nregs = 0
            for c in range(first, limit):
                skip = bool(dead[c]) if p > 0 else False
                flags.append(skip)
                sizes.append(min((c + 1) * rpc, rows) - c * rpc)
                nregs += (1 if p > 0 else 0) + (0 if skip else (2 if p > 0 else 1))
            taken = min(limit * rpc, rows) != rows
            return (tuple(flags), tuple(sizes), taken), nregs

        def make_iteration(i, pass_index, pred, col, dead_flags):
            first = i * unroll
            limit = min(first + unroll, n_chunks)
            for pos, c in enumerate(range(first, limit)):
                start = c * rpc
                stop = min(start + rpc, rows)
                mask_addr = buffers.mask_address(start)
                mask_bytes = buffers.mask_bytes_for(stop - start)
                if pass_index > 0:
                    prev_mask = regs.new()
                    yield load(pcs.site(f"p{pass_index}_ldmask{pos}"), mask_addr,
                               mask_bytes, dst=prev_mask)
                    skip = bool(dead_flags[c])
                    yield branch(pcs.site(f"p{pass_index}_skip{pos}"), taken=skip,
                                 srcs=(prev_mask,))
                else:
                    prev_mask = None
                    skip = False
                if not skip:
                    mask_reg = regs.new()
                    yield pim(
                        pcs.site(f"p{pass_index}_hmc{pos}"),
                        _loadcmp(col.address_of(start), (stop - start) * 4,
                                 func=pred.func, imm_lo=pred.lo, imm_hi=pred.hi),
                        dst=mask_reg,
                    )
                    if prev_mask is not None:
                        conj = regs.new()
                        yield alu(pcs.site(f"p{pass_index}_and{pos}"),
                                  srcs=(mask_reg, prev_mask), dst=conj)
                        mask_reg = conj
                    yield store(pcs.site(f"p{pass_index}_stmask{pos}"), mask_addr,
                                mask_bytes, srcs=(mask_reg,))
                if stop == rows or pos == limit - first - 1:
                    yield alu(pcs.site(f"p{pass_index}_ind"), srcs=(induction,), dst=induction)
                    yield branch(pcs.site(f"p{pass_index}_loop"), taken=stop != rows,
                                 srcs=(induction,))

        def make_bulk(i0, dead_flags, pred, col):
            def bulk(machine, j0, j1, _i0=i0, _dead=dead_flags, _pred=pred,
                     _col=col):
                """Log the skipped chunks' load-compares (program order).

                Their masks are then evaluated from the memory image,
                exactly like those of simulated chunks; only the
                addresses are computed here, vectorised across the span.
                """
                first = (_i0 + j0) * unroll
                limit = min((_i0 + j1) * unroll, n_chunks)
                chunks = _np.arange(first, limit)
                if _dead is not None:
                    chunks = chunks[~_dead[first:limit]]
                whole = (chunks + 1) * rpc <= rows
                for part, lanes in ((chunks[whole], rpc),
                                    (chunks[~whole], rows % rpc)):
                    if part.size:
                        machine.backend.log_loadcmps(
                            _col.base + part * (rpc * _col.stride),
                            _loadcmp(0, lanes * 4, func=_pred.func,
                                     imm_lo=_pred.lo, imm_hi=_pred.hi))
            return bulk

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

        key_ids = skip_pattern_key_ids(dead, n_iters, unroll)

        yield from group_runs(
            regs, n_iters,
            iteration_key=iteration_key,
            make_iteration=(
                lambda i, _p=p, _pred=predicate, _col=column, _dead=dead,
                _mk=make_iteration: _mk(i, _p, _pred, _col, _dead)
            ),
            run_key=(lambda key, _p=p:
                     ("hmccol", _p, config.op_bytes, unroll) + key),
            regions_of=regions_of,
            bulk_of=(lambda i0, key, _dead=dead, _pred=predicate, _col=column:
                     make_bulk(i0, _dead, _pred, _col)),
            fixed_regs=(induction,),
            key_ids=key_ids,
            family=("hmccol", p, config.op_bytes, unroll),
        )


def column_at_a_time(workload: ScanWorkload, config: ScanConfig) -> Iterator[Uop]:
    """DSM scan with per-chunk compare offload (Figures 3b/3c HMC bars)."""
    return flatten_runs(column_runs(workload, config))


def generate(workload: ScanWorkload, config: ScanConfig) -> Iterator[Uop]:
    """Dispatch on the configured strategy."""
    if config.strategy == "tuple":
        return tuple_at_a_time(workload, config)
    return column_at_a_time(workload, config)


# -- per-operator lowering protocol (codegen.base.lower_plan) ----------------

#: Filter lowering: the compare-offload select scan
lower_filter = generate


def lower_filter_runs(workload: ScanWorkload, config: ScanConfig) -> Iterator[TraceRun]:
    """Filter lowering as steady-state runs."""
    if config.strategy == "tuple":
        return tuple_runs(workload, config)
    return column_runs(workload, config)


def lower_aggregate(workload: ScanWorkload, config: ScanConfig) -> Iterator[Uop]:
    """Aggregate lowering: the HMC's extended ISA offers load-*compare*
    only, so reductions run the same core-side loop as x86 (the bitmask
    is cache-resident for both).  The 256 B HMC op sizes exist only in
    the memory; the core's vector units stay AVX-bound, so the loop is
    re-chunked to the 64 B / 8x caps the x86 lowering enforces."""
    core_config = ScanConfig(
        config.layout, config.strategy,
        min(config.op_bytes, 64), min(config.unroll, 8),
    )
    return core_aggregate(workload, core_config)


def generate_plan(workload: ScanWorkload, config: ScanConfig) -> Iterator[Uop]:
    """Lower the workload's full query plan."""
    return lower_plan(sys.modules[__name__], workload, config)


def generate_plan_runs(workload: ScanWorkload, config: ScanConfig) -> Iterator[TraceRun]:
    """Lower the workload's full query plan as steady-state trace runs."""
    return lower_plan_runs(sys.modules[__name__], workload, config)
