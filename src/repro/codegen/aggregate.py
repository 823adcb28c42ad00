"""Aggregate-node lowering: grouped reductions over the filter's bitmask.

Two lowering families implement the plan IR's Aggregate operator, both
as keyed trace runs (:class:`~repro.codegen.base.TraceRun`):

* :func:`core_aggregate` (x86, HMC ISA) — the processor walks the
  bitmask chunk by chunk, skips chunks with no candidates (a
  data-resolved branch, as in the column scans), loads the needed
  column chunks through the caches and reduces them with vector
  compare/and/mul/add uops — one accumulator register per
  (group, aggregate) slot, horizontally reduced and stored once at the
  end.  The HMC ISA offers load-*compare* only, so its aggregation is
  the same core-side loop (the mask stays cache-resident either way).
  Its runs are keyed by the chunk-skip flags and declare the mask and
  column streams as regions, like the column passes.
* :func:`engine_aggregate` (HIVE, HIPE) — locked blocks in the cube's
  logic layer: each block loads the scan's packed bitmask back into a
  register, unpacks it to 0/1 lanes, streams the key/value columns in,
  builds each group's lane mask with compares/ANDs, and multiplies-adds
  into per-slot accumulator registers.  HIPE predicates the column
  loads on the unpacked filter mask, so chunks with no candidate
  tuples never touch DRAM — the same squash/partial-load machinery the
  predicated scan uses.  A final block stores every accumulator slot
  (one 256 B register each) to the scan's aggregate buffer, where the
  runner verifies the engine-computed partial sums against the numpy
  plan interpreter.  Every chunk is processed, so the runs need no
  flags; they declare no regions, because no bulk hook replays the
  engine accumulators.  MIN/MAX have no engine ALU function, so plans
  carrying them fall back to the core-side loop.

Both families also record the per-(group, aggregate) values implied by
the chunks they process (exact int64 arithmetic) into
``workload.computed_aggregates``, once per Aggregate when its lowering
starts — a skip decision that drops a live chunk shows up as a
verification mismatch, not a silent wrong answer.  Engine accumulator
lanes are int32: per-lane partial sums must stay below 2^31, which the
default experiment sizes respect by a wide margin.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..cpu.isa import (
    AluFunc,
    PimInstruction,
    PimOp,
    Uop,
    UopClass,
    alu,
    branch,
    load,
    pim,
    store,
)
from ..common.units import ceil_div
from .base import (
    PcAllocator,
    RegAllocator,
    ScanConfig,
    ScanWorkload,
    TraceRun,
    chunk_dead_flags,
    column_regions,
    group_runs,
    skip_pattern_key_ids,
)

#: fixed scratch registers of the engine aggregate lowering (raw mask,
#: unpacked mask, two temporaries) — key/value column registers and one
#: register per product aggregate come on top
_ENGINE_FIXED_WORK_REGS = 4

#: int32 accumulator lanes: per-lane partial sums must stay below this
_LANE_SUM_LIMIT = 2**31


# -- slot layout --------------------------------------------------------------


def group_keys(workload: ScanWorkload) -> List[Tuple[int, ...]]:
    """Static group keys: the cartesian product of the key domains.

    The compiler enumerates every key combination the schema declares
    (not just those present in the data): one accumulator per possible
    group, the classic low-cardinality vectorised GROUP BY.
    """
    domains = workload.plan.group_domains()
    if not domains:
        return [()]
    spans = []
    for key, (lo, hi) in domains:
        span = hi - lo + 1
        if span > 64:
            raise ValueError(
                f"group-by key {key!r} spans {span} values; the lowering "
                "targets low-cardinality keys (<= 64 per column)"
            )
        spans.append(range(lo, hi + 1))
    return [tuple(combo) for combo in itertools.product(*spans)]


def aggregate_slots(workload: ScanWorkload) -> List[Tuple[Tuple[int, ...], int]]:
    """Slot order: group-major (group key, aggregate index) pairs."""
    aggregate = workload.plan.aggregate
    keys = group_keys(workload)
    slots = [(key, a) for key in keys for a in range(len(aggregate.aggs))]
    if len(slots) > workload.buffers.aggregate_slots:
        raise ValueError(
            f"{len(keys)} groups x {len(aggregate.aggs)} aggregates need "
            f"{len(slots)} slots; the aggregate buffer has "
            f"{workload.buffers.aggregate_slots}"
        )
    return slots


def _needed_columns(workload: ScanWorkload) -> Tuple[List[str], List[str]]:
    """(group-key columns, distinct aggregate input columns), in order."""
    aggregate = workload.plan.aggregate
    key_columns = list(aggregate.group_by)
    value_columns: List[str] = []
    for spec in aggregate.aggs:
        for column in (spec.column, spec.times):
            if column is not None and column not in value_columns:
                value_columns.append(column)
    return key_columns, value_columns


def has_minmax(workload: ScanWorkload) -> bool:
    """True when the plan's Aggregate carries MIN/MAX reductions (which
    the logic-layer engines lower core-side: their ALUs lack min/max)."""
    return any(
        spec.func in ("min", "max") for spec in workload.plan.aggregate.aggs
    )


def engine_sums_overflow(workload: ScanWorkload, config: ScanConfig) -> bool:
    """True when a per-lane int32 partial sum could exceed 2^31.

    Each accumulator lane adds one value per chunk, so the worst lane
    magnitude is (number of chunks) x (the schema-bound worst row
    value).  Plans that could wrap fall back to the core-side lowering,
    whose accumulators are unbounded — a paper-scale (SF1) grouped sum
    degrades gracefully instead of failing verification.
    """
    schema = workload.plan.table
    chunks = -(-workload.rows // config.rows_per_op)
    for spec in workload.plan.aggregate.aggs:
        if spec.func != "sum":
            continue  # count's per-row magnitude is 1: 2^31 chunks away
        bound = schema.value_bound(spec.column)
        if spec.times is not None:
            bound *= schema.value_bound(spec.times)
        if chunks * bound >= _LANE_SUM_LIMIT:
            return True
    return False


def engine_lowering_falls_back(workload: ScanWorkload, config: ScanConfig) -> bool:
    """True when hive/hipe lower this Aggregate core-side instead of
    in-engine (MIN/MAX reductions, or int32 lane-sum overflow risk)."""
    return has_minmax(workload) or engine_sums_overflow(workload, config)


# -- functional accumulation (the trace-driven oracle side) -------------------


def _record_aggregates(workload: ScanWorkload,
                       processed: Optional[np.ndarray] = None) -> None:
    """Set ``computed_aggregates`` from the rows the lowering processes.

    ``processed`` marks the rows of the chunks whose uops the lowering
    emits (None: every chunk).  The matched rows among them are split
    by the interpreter's :func:`~repro.db.scan.partition_groups` and
    evaluated by its :func:`~repro.db.scan.aggregate_rows` — one
    definition of grouping and aggregate semantics — once per
    Aggregate, not once per chunk.
    """
    from ..db.scan import aggregate_rows, partition_groups

    plan = workload.plan
    mask = workload.final_mask
    if processed is not None:
        mask = mask & processed
    computed = workload.computed_aggregates
    computed.clear()
    for key, group_rows in partition_groups(
            workload.data, plan.aggregate.group_by, np.flatnonzero(mask)):
        computed[key] = aggregate_rows(plan, workload.data, group_rows)


def _one_iteration_run(regs: RegAllocator, name: str, nregs: int,
                       make: Callable[[], Iterator[Uop]], run_key, family,
                       fixed_regs: Tuple[int, ...] = ()) -> Iterator[TraceRun]:
    """A prologue or epilogue: one iteration keyed ``name``, no regions."""
    return group_runs(
        regs, np.zeros(1, dtype=np.int64),
        iteration_key=lambda i: ((name,), nregs),
        make_iteration=lambda i: make(),
        run_key=run_key,
        regions_of=lambda i0, count: (),
        fixed_regs=fixed_regs,
        family=family,
    )


# -- core-side lowering (x86 / HMC ISA) ---------------------------------------


def core_aggregate(workload: ScanWorkload, config: ScanConfig,
                   tag: str) -> Iterator[TraceRun]:
    """Processor-side grouped reduction over the cached bitmask, as runs.

    One iteration is one unrolled loop body of up to ``unroll`` chunks
    followed by the induction/loop-branch overhead.  Each chunk consults
    its (cached) bitmask and branches over a chunk with no candidates —
    the same data-resolved skip the column scans use — so an iteration
    is keyed by its chunk-skip flags, chunk sizes and loop direction
    (:func:`~repro.codegen.base.skip_pattern_key_ids`), and its regions
    are the mask stream and the column streams.  A final one-iteration
    run reduces each accumulator and stores it.
    """
    if workload.dsm is None:
        raise ValueError("aggregation reads the DSM column layout")
    plan = workload.plan
    aggregate = plan.aggregate
    buffers = workload.buffers
    table = workload.dsm
    pcs = PcAllocator()
    regs = RegAllocator()
    induction = regs.new()
    slots = aggregate_slots(workload)
    acc_regs = {slot: regs.new() for slot in slots}
    key_columns, value_columns = _needed_columns(workload)
    # One load per distinct column (a group key doubling as an aggregate
    # input is fetched once).
    columns = list(dict.fromkeys(key_columns + value_columns))
    rows = workload.rows
    rpc = config.rows_per_op
    unroll = config.unroll
    keys = group_keys(workload)
    aggs = aggregate.aggs
    n_chunks = ceil_div(rows, rpc)
    n_iters = ceil_div(n_chunks, unroll)
    dead = chunk_dead_flags(workload.final_mask, rpc, n_chunks)
    _record_aggregates(workload, np.repeat(~dead, rpc)[:rows])
    products = [a for a, spec in enumerate(aggs) if spec.times is not None]
    # registers a live chunk allocates beside its mask: one per column
    # and product, per group one per key compare and key AND plus the
    # group mask, and per group one masked input per non-count aggregate
    live_regs = (len(columns) + len(products)
                 + len(keys) * 2 * len(key_columns)
                 + len(keys) * sum(spec.func != "count" for spec in aggs))
    run_key = lambda key: (tag, config.op_bytes, unroll) + key  # noqa: E731
    family = (tag, config.op_bytes, unroll)
    fixed_regs = (induction,) + tuple(acc_regs.values())

    def live_chunk(pos: int, start: int, stop: int,
                   mask_reg: int) -> Iterator[Uop]:
        column_regs: Dict[str, int] = {}
        for column in columns:
            vec = regs.new()
            yield load(pcs.site(f"agg_ld_{column}{pos}"),
                       table.column(column).address_of(start),
                       (stop - start) * 4, dst=vec)
            column_regs[column] = vec
        # Products shared by every group (e.g. price * discount).
        product_regs: Dict[int, int] = {}
        for a in products:
            spec = aggs[a]
            prod = regs.new()
            yield Uop(UopClass.INT_MUL, pcs.site(f"agg_prod{a}_{pos}"),
                      srcs=(column_regs[spec.column], column_regs[spec.times]),
                      dst=prod)
            product_regs[a] = prod
        for g, key in enumerate(keys):
            if key_columns:
                cursor: Optional[int] = None
                for k, column in enumerate(key_columns):
                    eq = regs.new()
                    yield alu(pcs.site(f"agg_eq{g}_{k}_{pos}"),
                              srcs=(column_regs[column],), dst=eq)
                    if cursor is None:
                        cursor = eq
                    else:
                        both = regs.new()
                        yield alu(pcs.site(f"agg_kand{g}_{k}_{pos}"),
                                  srcs=(cursor, eq), dst=both)
                        cursor = both
                gmask = regs.new()
                yield alu(pcs.site(f"agg_gmask{g}_{pos}"),
                          srcs=(cursor, mask_reg), dst=gmask)
            else:
                gmask = mask_reg
            for a, spec in enumerate(aggs):
                slot_reg = acc_regs[(key, a)]
                if spec.func == "count":
                    source = gmask
                else:
                    source = product_regs.get(a, column_regs.get(spec.column, gmask))
                    masked = regs.new()
                    yield alu(pcs.site(f"agg_mask{g}_{a}_{pos}"),
                              srcs=(source, gmask), dst=masked)
                    source = masked
                yield alu(pcs.site(f"agg_acc{g}_{a}_{pos}"),
                          srcs=(slot_reg, source), dst=slot_reg)

    def iteration_key(i: int):
        first = i * unroll
        limit = min(first + unroll, n_chunks)
        flags = tuple(dead[first:limit].tolist())
        sizes = tuple(min((c + 1) * rpc, rows) - c * rpc
                      for c in range(first, limit))
        nregs = len(flags) + live_regs * flags.count(False)
        return (flags, sizes, limit != n_chunks), nregs

    def make_iteration(i: int) -> Iterator[Uop]:
        first = i * unroll
        limit = min(first + unroll, n_chunks)
        for pos, c in enumerate(range(first, limit)):
            start = c * rpc
            stop = min(start + rpc, rows)
            mask_reg = regs.new()
            yield load(pcs.site(f"agg_ldmask{pos}"), buffers.mask_address(start),
                       buffers.mask_bytes_for(stop - start), dst=mask_reg)
            skip = bool(dead[c])
            yield branch(pcs.site(f"agg_skip{pos}"), taken=skip, srcs=(mask_reg,))
            if not skip:
                yield from live_chunk(pos, start, stop, mask_reg)
        yield alu(pcs.site("agg_ind"), srcs=(induction,), dst=induction)
        yield branch(pcs.site("agg_loop"), taken=limit != n_chunks,
                     srcs=(induction,))

    def reduce_and_store() -> Iterator[Uop]:
        """Horizontal reductions and one store per (group, aggregate) slot."""
        for index, slot in enumerate(slots):
            reduced = regs.new()
            yield alu(pcs.site(f"agg_red{index}"), srcs=(acc_regs[slot],),
                      dst=reduced)
            yield store(pcs.site(f"agg_st{index}"),
                        buffers.aggregate_address(index), 8, srcs=(reduced,))

    yield from group_runs(
        regs, skip_pattern_key_ids([dead], n_iters, unroll),
        iteration_key=iteration_key,
        make_iteration=make_iteration,
        run_key=run_key,
        regions_of=column_regions([table.column(c) for c in columns],
                                  buffers, rows, unroll * rpc),
        fixed_regs=fixed_regs,
        family=family,
    )
    yield from _one_iteration_run(regs, "reduce", len(slots), reduce_and_store,
                                  run_key, family, fixed_regs)


# -- engine-side lowering (HIVE / HIPE) ---------------------------------------


def engine_aggregate(
    workload: ScanWorkload,
    config: ScanConfig,
    engine_regs: int,
    predicated: bool,
    tag: str,
) -> Iterator[TraceRun]:
    """Logic-layer grouped reduction with per-slot accumulator registers.

    ``predicated`` gates the column loads on the unpacked filter mask
    (HIPE); plain HIVE streams every chunk.  MIN/MAX aggregates have no
    engine ALU function and fall back to :func:`core_aggregate`.

    One iteration is one cycle of ``unroll`` locked blocks of ``unroll``
    chunks each (the pc sites' body counter), or two or four cycles when
    a cycle covers less than a bitmask byte.  Every chunk is processed,
    so every iteration but the last lowers to the same uops; the runs
    declare no regions, because an iteration updates engine accumulator
    registers that no bulk hook could replay.  A one-iteration run
    before them zeroes the accumulators, and one after stores them.
    """
    if workload.dsm is None:
        raise ValueError("aggregation reads the DSM column layout")
    if engine_lowering_falls_back(workload, config):
        yield from core_aggregate(workload, config, tag)
        return
    plan = workload.plan
    aggregate = plan.aggregate
    buffers = workload.buffers
    table = workload.dsm
    pcs = PcAllocator()
    regs = RegAllocator()
    slots = aggregate_slots(workload)
    key_columns, value_columns = _needed_columns(workload)
    product_aggs = [
        a for a, spec in enumerate(workload.plan.aggregate.aggs)
        if spec.times is not None
    ]
    distinct_columns = len(dict.fromkeys(key_columns + value_columns))
    work_regs = (_ENGINE_FIXED_WORK_REGS + distinct_columns
                 + len(product_aggs))
    if len(slots) + work_regs > engine_regs:
        raise ValueError(
            f"{len(slots)} accumulator slots + {work_regs} scratch "
            f"registers exceed the {engine_regs}-entry engine bank"
        )
    # Accumulators occupy the bank's head; scratch registers the tail.
    # One register per distinct column: a column serving both as group
    # key and aggregate input is loaded once and read by both roles.
    acc_reg = {slot: index for index, slot in enumerate(slots)}
    scratch = itertools.count(len(slots))
    w_rawmask = next(scratch)
    w_mask = next(scratch)
    columns = list(dict.fromkeys(key_columns + value_columns))
    w_col = {column: next(scratch) for column in columns}
    w_key = {column: w_col[column] for column in key_columns}
    w_val = {column: w_col[column] for column in value_columns}
    w_tmp = next(scratch)
    w_tmp2 = next(scratch)
    # One live register per product aggregate: the products are computed
    # once per chunk and consumed by every group's accumulation.
    w_prod = {a: next(scratch) for a in product_aggs}
    _record_aggregates(workload)
    keys = group_keys(workload)
    aggs = aggregate.aggs
    rows = workload.rows
    rpc = config.rows_per_op
    unroll = config.unroll
    pred_reg = w_mask if predicated else None
    n_chunks = ceil_div(rows, rpc)
    n_blocks = ceil_div(n_chunks, unroll)
    # One iteration is one cycle of the pc sites' body counter (unroll
    # blocks), repeated until it covers whole bitmask bytes: each chunk
    # unpacks its mask from bit ``start % 8``, so iterations of sub-byte
    # chunks would alternate that offset and never lower alike.
    blocks_per_iter = unroll * (8 // math.gcd(8, unroll * unroll * rpc))
    n_iters = ceil_div(n_blocks, blocks_per_iter)
    chunks_per_iter = blocks_per_iter * unroll
    run_key = lambda key: (tag, config.op_bytes, unroll) + key  # noqa: E731
    family = (tag, config.op_bytes, unroll)

    def zero_accumulators() -> Iterator[Uop]:
        """Zero every accumulator (the filter pass dirtied the bank)."""
        yield pim(pcs.site("agg_zlock"), PimInstruction(PimOp.LOCK))
        for index, slot in enumerate(slots):
            yield pim(
                pcs.site(f"agg_zero{index}"),
                PimInstruction(PimOp.PIM_ALU, src_regs=(acc_reg[slot],),
                               dst_reg=acc_reg[slot], func=AluFunc.MUL, imm_lo=0),
            )
        yield pim(pcs.site("agg_zunlock"), PimInstruction(PimOp.UNLOCK))

    def chunk_body(body: int, start: int, stop: int) -> Iterator[Uop]:
        lanes = stop - start
        # The scan's packed bitmask, unpacked to 0/1 lanes: the
        # combined filter mask of this chunk (tail lanes stay 0).
        yield pim(
            pcs.site(f"agg_ldmask{body}"),
            PimInstruction(PimOp.PIM_LOAD,
                           address=buffers.mask_address(start),
                           size=buffers.mask_bytes_for(lanes),
                           dst_reg=w_rawmask, lane_bytes=1),
        )
        yield pim(
            pcs.site(f"agg_unpack{body}"),
            PimInstruction(PimOp.UNPACK_MASK, size=lanes * 4,
                           src_regs=(w_rawmask,), dst_reg=w_mask,
                           imm_lo=start % 8),
        )
        for column in columns:
            yield pim(
                pcs.site(f"agg_ld_{column}{body}"),
                PimInstruction(PimOp.PIM_LOAD,
                               address=table.column(column).address_of(start),
                               size=lanes * 4, dst_reg=w_col[column],
                               pred_reg=pred_reg),
            )
        # Shared products (full-register ops: value tails are zero).
        product_reg: Dict[int, int] = {}
        for a, spec in enumerate(aggs):
            if spec.times is not None:
                yield pim(
                    pcs.site(f"agg_prod{a}_{body}"),
                    PimInstruction(PimOp.PIM_ALU,
                                   src_regs=(w_val[spec.column],
                                             w_val[spec.times]),
                                   dst_reg=w_prod[a], func=AluFunc.MUL),
                )
                product_reg[a] = w_prod[a]
        for g, key in enumerate(keys):
            if key_columns:
                first = key_columns[0]
                yield pim(
                    pcs.site(f"agg_eq{g}_0_{body}"),
                    PimInstruction(PimOp.PIM_ALU, src_regs=(w_key[first],),
                                   dst_reg=w_tmp, func=AluFunc.CMP_EQ,
                                   imm_lo=key[0]),
                )
                for k, column in enumerate(key_columns[1:], start=1):
                    yield pim(
                        pcs.site(f"agg_eq{g}_{k}_{body}"),
                        PimInstruction(PimOp.PIM_ALU,
                                       src_regs=(w_key[column],),
                                       dst_reg=w_tmp2, func=AluFunc.CMP_EQ,
                                       imm_lo=key[k]),
                    )
                    yield pim(
                        pcs.site(f"agg_kand{g}_{k}_{body}"),
                        PimInstruction(PimOp.PIM_ALU,
                                       src_regs=(w_tmp, w_tmp2),
                                       dst_reg=w_tmp, func=AluFunc.AND),
                    )
                # Conjoin with the filter mask (also zeroes key-compare
                # artefacts in the tail lanes beyond a partial chunk).
                yield pim(
                    pcs.site(f"agg_gmask{g}_{body}"),
                    PimInstruction(PimOp.PIM_ALU, src_regs=(w_tmp, w_mask),
                                   dst_reg=w_tmp, func=AluFunc.MUL),
                )
                gmask = w_tmp
            else:
                gmask = w_mask
            for a, spec in enumerate(aggs):
                slot_reg = acc_reg[(key, a)]
                if spec.func == "count":
                    source = gmask
                else:
                    source = product_reg.get(a, w_val.get(spec.column))
                    yield pim(
                        pcs.site(f"agg_mask{g}_{a}_{body}"),
                        PimInstruction(PimOp.PIM_ALU,
                                       src_regs=(source, gmask),
                                       dst_reg=w_tmp2, func=AluFunc.MUL),
                    )
                    source = w_tmp2
                yield pim(
                    pcs.site(f"agg_acc{g}_{a}_{body}"),
                    PimInstruction(PimOp.PIM_ALU,
                                   src_regs=(slot_reg, source),
                                   dst_reg=slot_reg, func=AluFunc.ADD),
                )

    def iteration_key(i: int):
        """(chunks, last chunk's rows, final iteration) of iteration ``i``."""
        first = i * chunks_per_iter
        limit = min(first + chunks_per_iter, n_chunks)
        last_rows = min(limit * rpc, rows) - (limit - 1) * rpc
        return (limit - first, last_rows, i == n_iters - 1), 0

    def make_iteration(i: int) -> Iterator[Uop]:
        first_block = i * blocks_per_iter
        for block in range(first_block,
                           min(first_block + blocks_per_iter, n_blocks)):
            body = block % unroll
            first = block * unroll
            yield pim(pcs.site(f"agg_lock{body}"), PimInstruction(PimOp.LOCK))
            for c in range(first, min(first + unroll, n_chunks)):
                yield from chunk_body(body, c * rpc, min((c + 1) * rpc, rows))
            yield pim(pcs.site(f"agg_unlock{body}"), PimInstruction(PimOp.UNLOCK))

    def store_accumulators() -> Iterator[Uop]:
        """One block stores every accumulator's per-lane partial sums (a
        whole 256 B register each) to the scan's aggregate buffer."""
        yield pim(pcs.site("agg_stlock"), PimInstruction(PimOp.LOCK))
        for index, slot in enumerate(slots):
            yield pim(
                pcs.site(f"agg_st{index}"),
                PimInstruction(PimOp.PIM_STORE,
                               address=buffers.aggregate_address(index),
                               size=buffers.AGGREGATE_SLOT_BYTES,
                               src_regs=(acc_reg[slot],)),
            )
        yield pim(pcs.site("agg_stunlock"), PimInstruction(PimOp.UNLOCK))

    yield from _one_iteration_run(regs, "zero", 0, zero_accumulators,
                                  run_key, family)
    yield from group_runs(
        regs, skip_pattern_key_ids([], n_iters, chunks_per_iter),
        iteration_key=iteration_key,
        make_iteration=make_iteration,
        run_key=run_key,
        regions_of=lambda i0, count: (),
        family=family,
    )
    yield from _one_iteration_run(regs, "store", 0, store_accumulators,
                                  run_key, family)
