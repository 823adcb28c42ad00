"""Shared codegen infrastructure.

A *codegen* plays the role of the compiler in the paper's methodology
("no source code change is required, but it needs to be compiled to use
HIPE instructions", §III): it lowers a relational query plan onto one
architecture's instruction repertoire, for a given storage layout,
processing strategy, operation size and unroll depth — and, because the
simulator is trace-driven, it resolves branch directions and skip
decisions from the actual data while doing so.

Every codegen consumes a :class:`ScanWorkload` (the materialised tables,
output buffers and the plan's predicates) and a :class:`ScanConfig`, and
yields :class:`~repro.cpu.isa.Uop` streams.

Per-operator lowering protocol
------------------------------

Each backend module (``x86``/``hmc``/``hive``/``hipe``) implements

* ``lower_filter(workload, config)``    — the select scan (the classic
  ``generate`` entry point, one strategy per layout), and
* ``lower_aggregate(workload, config)`` — the plan's Aggregate node
  (grouped SUM/COUNT/MIN/MAX over the filter's bitmask).

:func:`lower_plan` walks a workload's :class:`~repro.db.plan.QueryPlan`
and dispatches each operator to the backend, concatenating the uop
streams; ``generate_plan`` in every backend module binds it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..cpu.isa import AluFunc, Uop, alu, branch
from ..db.datagen import LineitemData
from ..db.plan import Predicate, QueryPlan
from ..db.table import DsmTable, NsmTable, ScanBuffers

#: operation sizes of each architecture (Table I)
X86_OP_SIZES = (16, 32, 64)  # up to AVX-512's 64 B
PIM_OP_SIZES = (16, 32, 64, 128, 256)
#: unroll depths evaluated in Figure 3c
X86_UNROLLS = (1, 2, 4, 8)  # bounded by the general-purpose register file
PIM_UNROLLS = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class ScanConfig:
    """One point of the evaluation space."""

    layout: str  # "nsm" | "dsm"
    strategy: str  # "tuple" | "column"
    op_bytes: int
    unroll: int = 1

    def __post_init__(self) -> None:
        if self.layout not in ("nsm", "dsm"):
            raise ValueError(f"unknown layout {self.layout!r}")
        if self.strategy not in ("tuple", "column"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.op_bytes not in PIM_OP_SIZES:
            raise ValueError(f"op_bytes must be one of {PIM_OP_SIZES}")
        if self.unroll < 1:
            raise ValueError("unroll must be >= 1")

    @property
    def rows_per_op(self) -> int:
        """Tuples covered by one vector operation in column mode."""
        return self.op_bytes // 4

    def to_dict(self) -> Dict[str, int | str]:
        """JSON-safe export (cache keys, worker boundaries)."""
        return {
            "layout": self.layout,
            "strategy": self.strategy,
            "op_bytes": self.op_bytes,
            "unroll": self.unroll,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, int | str]) -> "ScanConfig":
        """Rebuild a config exported by :meth:`to_dict` (re-validates)."""
        return cls(
            layout=str(payload["layout"]),
            strategy=str(payload["strategy"]),
            op_bytes=int(payload["op_bytes"]),
            unroll=int(payload.get("unroll", 1)),
        )


@dataclass
class ScanWorkload:
    """Everything a codegen needs about the data and its placement.

    ``plan`` carries the full query when the workload was built from a
    :class:`~repro.db.plan.QueryPlan`; ``predicates`` always holds the
    Filter's conjunction (the pre-IR field every scan lowering reads).
    ``computed_aggregates`` is filled by the Aggregate lowering: the
    per-group values implied by the chunks its uops actually processed,
    checked against the numpy plan interpreter by the runner.
    """

    data: LineitemData
    predicates: Tuple[Predicate, ...]
    buffers: ScanBuffers
    nsm: Optional[NsmTable] = None
    dsm: Optional[DsmTable] = None
    plan: Optional[QueryPlan] = None
    #: the machine runs the partial-predicated-loads extension: a
    #: predicated load's DRAM transfer is sized by the chunk's matched
    #: lane count, so run-shape keys must carry those counts (not just
    #: dead flags) for replay to see the full timing shape
    partial_lanes: bool = False
    computed_aggregates: Dict[Tuple[int, ...], Dict[str, int]] = field(
        default_factory=dict, repr=False
    )
    _mask_cache: Dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    @property
    def rows(self) -> int:
        return self.data.rows

    # -- reference predicate evaluations (drive branch directions) ---------

    def predicate_mask(self, index: int) -> np.ndarray:
        """Boolean match vector of predicate ``index`` alone."""
        key = index
        if key not in self._mask_cache:
            predicate = self.predicates[index]
            self._mask_cache[key] = predicate.evaluate(self.data[predicate.column])
        return self._mask_cache[key]

    def running_mask(self, upto: int) -> np.ndarray:
        """Conjunction of predicates ``0..upto`` inclusive."""
        key = -(upto + 1)  # separate cache namespace
        if key not in self._mask_cache:
            mask = np.ones(self.rows, dtype=bool)
            for i in range(upto + 1):
                mask &= self.predicate_mask(i)
            self._mask_cache[key] = mask
        return self._mask_cache[key]

    @property
    def final_mask(self) -> np.ndarray:
        """The full conjunction (the scan's expected result)."""
        return self.running_mask(len(self.predicates) - 1)


class Region:
    """One address stream of a trace run: ``[lo, hi)`` advancing uniformly.

    ``stride`` is the per-iteration address advance in bytes (an exact
    :class:`fractions.Fraction` — bit-packed bitmask streams advance by
    sub-byte amounts per iteration).  The replay layer uses regions to
    relabel address-keyed timing state when it fast-forwards a run.
    """

    __slots__ = ("lo", "hi", "stride")

    def __init__(self, lo: int, hi: int, stride) -> None:
        self.lo = lo
        self.hi = hi
        self.stride = Fraction(stride)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Region({self.lo:#x}..{self.hi:#x} +{self.stride}/iter)"


class TraceRun:
    """A run of ``count`` structurally identical loop-body iterations.

    The steady-state trace protocol: codegen emits the dynamic uop stream
    as a sequence of runs instead of one flat iterator.  Each run is

    * ``key`` — a hashable shape descriptor; two iterations share a key
      exactly when they lower to the same static uops (same pcs, same
      classes, same branch directions, same sizes) with addresses that
      advance uniformly by the declared ``regions``.  ``key=None`` marks
      an *opaque* run the replay layer must always simulate (aggregate
      reductions, whose uop streams are data-dependent per chunk).
    * ``count`` / ``make(j)`` — ``make`` yields the uops of iteration
      ``j`` (0-based within the run) and may be called for any subset of
      iterations in increasing order; it must reseat its register
      allocator itself so generated register ids match the fully
      materialised stream.  Opaque runs have ``count == 1`` and a
      ``make`` that may be consumed only once.
    * ``regs_per_iter`` — core registers allocated per iteration (the
      replay layer relabels the rotating register file by this amount
      when it skips iterations); ``fixed_regs`` names the loop-invariant
      register ids the body keeps live (induction/state registers),
      which must *not* rotate with the allocation phase.
    * ``regions`` — the address streams the iterations touch.
    * ``bulk(machine, j0, j1)`` — apply the *functional* side effects
      of iterations ``[j0, j1)`` without simulating them (memory-image
      writes of engine-computed bitmasks, HMC verification masks); only
      required for runs whose iterations have functional effects.
    * ``reg_base`` — the register-allocator counter at the run's first
      iteration (None for hand-built runs).  Together with ``regions``
      it lets the run-compiled kernels *synthesise* a previously
      validated body shape onto this run without materialising a single
      iteration (see :mod:`repro.cpu.kernel`).
    """

    __slots__ = ("key", "count", "make", "regs_per_iter", "regions", "bulk",
                 "fixed_regs", "reg_base", "family")

    def __init__(
        self,
        key,
        count: int,
        make: Callable[[int], Iterator[Uop]],
        regs_per_iter: int = 0,
        regions: Tuple[Region, ...] = (),
        bulk: Optional[Callable[..., None]] = None,
        fixed_regs: Tuple[int, ...] = (),
        reg_base: Optional[int] = None,
        family: Optional[Tuple] = None,
    ) -> None:
        self.key = key
        self.count = count
        self.make = make
        self.regs_per_iter = regs_per_iter
        self.regions = regions
        self.bulk = bulk
        self.fixed_regs = fixed_regs
        self.reg_base = reg_base
        #: flag-free pass identity shared by every run of one generated
        #: pass; a change of family is a checkpoint pass boundary
        #: (:class:`~repro.sim.checkpoint.RunMonitor`)
        self.family = family

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceRun(key={self.key!r}, count={self.count})"


def opaque_run(uops: Iterator[Uop]) -> TraceRun:
    """Wrap an arbitrary uop stream as a single always-simulated run."""
    return TraceRun(key=None, count=1, make=lambda j, _uops=uops: _uops)


def group_runs(
    regs: "RegAllocator",
    n_iters: int,
    iteration_key: Callable[[int], Tuple],
    make_iteration: Callable[[int], Iterator[Uop]],
    run_key: Callable[[Tuple], Tuple],
    regions_of: Callable[[int, int], Tuple[Region, ...]],
    bulk_of: Optional[Callable[[int, Tuple], Optional[Callable]]] = None,
    fixed_regs: Tuple[int, ...] = (),
    key_ids: Optional[np.ndarray] = None,
    family: Optional[Tuple] = None,
) -> Iterator[TraceRun]:
    """Group consecutive same-shaped iterations into :class:`TraceRun`\\ s.

    The scaffold every column codegen shares: scan ``iteration_key``
    (returning ``(shape, regs_per_iter)``) forward to find maximal runs
    of identical shape, bind a ``make`` that reseats the register
    allocator at the run-relative iteration so ``make(j)`` can be called
    for any subset in increasing order, and assemble the full run from
    the per-codegen hooks — ``run_key`` prefixes the shape into the
    run's identity, ``regions_of(i0, count)`` declares the address
    streams, ``bulk_of(i0, shape)`` supplies the functional-side-effect
    hook.  The flattened stream is byte-identical to lowering every
    iteration in sequence.

    ``key_ids``, when given, is an integer per iteration such that two
    iterations share an id exactly when they share a key: the run
    boundaries then come from one vectorised comparison and
    ``iteration_key`` is evaluated once per *run* instead of once per
    iteration (the dominant codegen cost of a fragmented pass).

    ``family`` is the pass's flag-free identity (arch tag, pass index,
    op bytes, unroll — everything the run key holds *except* the data-
    dependent flag word); checkpoints snapshot where it changes.
    """
    if key_ids is not None and n_iters > 1:
        ids = np.asarray(key_ids)
        boundaries = np.flatnonzero(ids[1:] != ids[:-1]) + 1
        segments = np.empty(boundaries.size + 2, dtype=np.int64)
        segments[0] = 0
        segments[1:-1] = boundaries
        segments[-1] = n_iters
        for s in range(segments.size - 1):
            i0 = int(segments[s])
            count = int(segments[s + 1]) - i0
            key, nregs = iteration_key(i0)
            base_counter = regs.counter

            def make(j, _i0=i0, _base=base_counter, _nregs=nregs,
                     _mk=make_iteration):
                regs.seek(_base + j * _nregs)
                return _mk(_i0 + j)

            yield TraceRun(
                key=run_key(key),
                count=count,
                make=make,
                regs_per_iter=nregs,
                regions=regions_of(i0, count),
                bulk=None if bulk_of is None else bulk_of(i0, key),
                fixed_regs=fixed_regs,
                reg_base=base_counter,
                family=family,
            )
            regs.seek(base_counter + count * nregs)
        return
    i = 0
    while i < n_iters:
        key, nregs = iteration_key(i)
        count = 1
        while i + count < n_iters:
            next_key, __ = iteration_key(i + count)
            if next_key != key:
                break
            count += 1
        base_counter = regs.counter
        i0 = i

        def make(j, _i0=i0, _base=base_counter, _nregs=nregs,
                 _mk=make_iteration):
            regs.seek(_base + j * _nregs)
            return _mk(_i0 + j)

        yield TraceRun(
            key=run_key(key),
            count=count,
            make=make,
            regs_per_iter=nregs,
            regions=regions_of(i0, count),
            bulk=None if bulk_of is None else bulk_of(i0, key),
            fixed_regs=fixed_regs,
            reg_base=base_counter,
            family=family,
        )
        regs.seek(base_counter + count * nregs)
        i += count


def skip_pattern_key_ids(dead, n_iters: int, unroll: int) -> np.ndarray:
    """Vectorised run-boundary ids for a flag-keyed pass.

    Two iterations share a :func:`group_runs` key exactly when their
    per-item flag patterns match — except the final iteration, whose
    loop branch (and possibly item sizes) always differ, so it gets an
    id no flag pattern can produce.  ``dead`` holds ``unroll`` flags per
    iteration: the per-chunk dead flags of a column pass (None for an
    unconditioned first pass) or the per-tuple match flags of a tuple
    pass.
    """
    if dead is None:
        key_ids = np.zeros(n_iters, dtype=np.int64)
    else:
        padded = np.zeros(n_iters * unroll, dtype=bool)
        padded[:len(dead)] = dead
        patterns = padded.reshape(n_iters, unroll)
        if unroll < 63:
            key_ids = patterns.dot(1 << np.arange(unroll, dtype=np.int64))
        else:  # too wide for one integer: number the distinct patterns
            packed = np.packbits(patterns, axis=1)
            key_ids = np.unique(packed, axis=0, return_inverse=True)[1]
            key_ids = key_ids.reshape(-1).astype(np.int64)
    key_ids[-1] = -1
    return key_ids


def tuple_grouping(op_bytes: int, tuple_bytes: int) -> Tuple[int, int]:
    """``(tuples per op, ops per tuple)`` of a tuple-at-a-time scan.

    An op of at least one tuple covers ``op // tuple`` whole tuples (2
    and 4 at 128 and 256 B over 64 B tuples); a smaller op visits each
    tuple in ``ceil(tuple / op)`` pieces.
    """
    if op_bytes >= tuple_bytes:
        return op_bytes // tuple_bytes, 1
    return 1, -(-tuple_bytes // op_bytes)


def tuple_runs(
    workload: ScanWorkload,
    config: ScanConfig,
    tag: str,
    pcs: "PcAllocator",
    regs: "RegAllocator",
    induction: int,
    fixed_regs: Tuple[int, ...],
    group_body: Callable[[int, int, int, int], Iterator[Uop]],
    group_regs: int,
    match_regs: int,
    bulk_of: Optional[Callable[[int, Tuple], Optional[Callable]]] = None,
) -> Iterator[TraceRun]:
    """A tuple-at-a-time (NSM) pass as match-keyed trace runs.

    The scaffold every tuple lowering shares.  One iteration is one
    unrolled loop body: up to ``unroll`` *groups* — the tuples one op
    covers (:func:`tuple_grouping`) — then the induction/loop-branch
    overhead.  ``group_body(u, row, n, out)`` lowers the group in body
    slot ``u``: ``n`` tuples from ``row``, whose matches materialise to
    output slots ``out, out + 1, ...``; it allocates ``group_regs``
    registers plus ``match_regs`` per matching tuple.

    An iteration's key is its per-tuple match flags plus a final-
    iteration bit (:func:`skip_pattern_key_ids`), so a run is a stretch
    of iterations whose matches sit at the same body positions.  Its
    regions are the tuple stream and the materialisation stream, which
    advances by the run's matches per iteration.  Tuple runs declare no
    family: a tuple scan is one pass, so it has no checkpoint boundary.
    """
    table = workload.nsm
    if table is None:
        raise ValueError("tuple-at-a-time needs the NSM table")
    tuple_bytes = table.tuple_bytes
    group, __ = tuple_grouping(config.op_bytes, tuple_bytes)
    rows = workload.rows
    unroll = config.unroll
    groups = -(-rows // group)
    n_iters = -(-groups // unroll)
    width = unroll * group  # tuples per full iteration
    matches = workload.final_mask
    padded = np.zeros(n_iters * width, dtype=bool)
    padded[:rows] = matches
    per_iter = padded.reshape(n_iters, width).sum(axis=1)
    out_before = np.zeros(n_iters + 1, dtype=np.int64)
    np.cumsum(per_iter, out=out_before[1:])
    mat_base = workload.buffers.materialize_base

    def iteration_key(i: int):
        flags = tuple(matches[i * width:(i + 1) * width].tolist())
        n_groups = min(unroll, groups - i * unroll)
        nregs = n_groups * group_regs + int(per_iter[i]) * match_regs
        return (flags, i == n_iters - 1), nregs

    def make_iteration(i: int) -> Iterator[Uop]:
        out_index = int(out_before[i])
        first = i * unroll
        last = min(first + unroll, groups) - 1
        for g in range(first, last + 1):
            row = g * group
            n = min(group, rows - row)
            yield from group_body(g - first, row, n, out_index)
            out_index += int(np.count_nonzero(matches[row:row + n]))
            if g == last:
                yield alu(pcs.site("ind"), srcs=(induction,), dst=induction)
                yield branch(pcs.site("loop"), taken=g != groups - 1,
                             srcs=(induction,))

    def regions_of(i0: int, count: int) -> Tuple[Region, ...]:
        lo = i0 * width
        hi = min((i0 + count) * width, rows)
        return (
            Region(table.tuple_address(lo), table.tuple_address(hi),
                   width * tuple_bytes),
            Region(mat_base + int(out_before[i0]) * tuple_bytes,
                   mat_base + int(out_before[i0 + count]) * tuple_bytes,
                   int(per_iter[i0]) * tuple_bytes),
        )

    return group_runs(
        regs, n_iters,
        iteration_key=iteration_key,
        make_iteration=make_iteration,
        run_key=lambda key: (tag, config.op_bytes, unroll) + key,
        regions_of=regions_of,
        bulk_of=bulk_of,
        fixed_regs=fixed_regs,
        key_ids=skip_pattern_key_ids(matches, n_iters, width),
    )


def flatten_runs(runs: Iterator[TraceRun]) -> Iterator[Uop]:
    """The flat dynamic uop stream of a run sequence (the exact path)."""
    for run in runs:
        make = run.make
        for j in range(run.count):
            yield from make(j)


class PcAllocator:
    """Stable static-instruction identifiers for predictor/prefetcher PCs."""

    def __init__(self) -> None:
        self._counter = itertools.count(0x1000)
        self._sites: Dict[str, int] = {}

    def site(self, name: str) -> int:
        """The pc of the named static instruction (created on first use)."""
        if name not in self._sites:
            self._sites[name] = next(self._counter)
        return self._sites[name]


class RegAllocator:
    """Core-register name space (rotating pool, models renaming).

    Ids cycle within a window large enough that no two live values ever
    collide (the ROB bounds liveness at 168 uops), while keeping the
    core's ready-time table bounded for long traces.
    """

    #: defaults every codegen uses; the replay layer's register
    #: relabelling is defined in terms of these
    DEFAULT_START = 100
    DEFAULT_WINDOW = 4096

    def __init__(self, start: int = DEFAULT_START,
                 window: int = DEFAULT_WINDOW) -> None:
        self._start = start
        self._window = window
        self._next = 0

    def new(self) -> int:
        """A fresh register id (eventually recycled)."""
        reg = self._start + (self._next % self._window)
        self._next += 1
        return reg

    def batch(self, count: int) -> List[int]:
        """``count`` fresh register ids."""
        return [self.new() for _ in range(count)]

    @property
    def counter(self) -> int:
        """Total allocations so far (ids are a pure function of this)."""
        return self._next

    def seek(self, counter: int) -> None:
        """Reposition the allocation counter (steady-state trace runs
        re-seat the allocator so any iteration's ids can be generated
        without materialising its predecessors)."""
        self._next = counter

    @property
    def window(self) -> int:
        """Id recycling period (the replay layer relabels modulo this)."""
        return self._window



def chunk_dead_flags(prev_running, rpc: int, n_chunks: int):
    """Per-chunk "no candidate tuples" flags, vectorised.

    Shared by every column lowering: a chunk whose previous-pass running
    mask is all-false is dead, and the codegen resolves its skip branch
    (and run-shape key) from these flags.
    """
    rows = prev_running.shape[0]
    padded = rpc * n_chunks
    if padded != rows:
        buf = np.zeros(padded, dtype=bool)
        buf[:rows] = prev_running
    else:
        buf = prev_running
    return ~buf.reshape(n_chunks, rpc).any(axis=1)


def chunk_matched_counts(running, rpc: int, n_chunks: int):
    """Per-chunk matched-lane counts, vectorised.

    Under the partial-predicated-loads extension a predicated access's
    DRAM transfer is sized by how many of the chunk's lanes the running
    mask keeps, so the counts are part of the iteration's timing shape
    (``chunk_dead_flags`` is exactly ``counts == 0``).
    """
    rows = running.shape[0]
    padded = rpc * n_chunks
    if padded != rows:
        buf = np.zeros(padded, dtype=bool)
        buf[:rows] = running
    else:
        buf = running
    return buf.reshape(n_chunks, rpc).sum(axis=1)


def compare_uop_count(predicate: Predicate) -> int:
    """Core compare uops one predicate costs (range = 2 compares + AND)."""
    return 3 if predicate.func == AluFunc.CMP_RANGE else 1


def iterator_overhead(pcs: PcAllocator, regs: RegAllocator, state_reg: int,
                      scratch_base: int, copy: int):
    """The Volcano iterator's per-tuple interpretation work.

    Tuple-at-a-time processing (paper §II-B, citing Graefe's Volcano) pays
    per-tuple interpretation: the operator tree's ``next()`` chain walks
    and updates cursor/operator state.  That state is carried from tuple
    to tuple, so the work forms a *serial* dependence chain the
    out-of-order core cannot hide — the amortisation of exactly this
    chain is why column-at-a-time exists ([13]).  Modelled as dependent
    loads (operator state, cache-hot), multiplies (offset/typing
    arithmetic) and ALU ops threaded through ``state_reg``.

    Yields the uops; the caller interleaves them per tuple.
    """
    from ..cpu.isa import Uop, UopClass

    cursor = state_reg
    for step in range(2):
        loaded = regs.new()
        yield Uop(UopClass.LOAD, pcs.site(f"iter_ld{copy}_{step}"),
                  srcs=(cursor,), dst=loaded,
                  address=scratch_base + 64 * step, size=8)
        scaled = regs.new()
        yield Uop(UopClass.INT_MUL, pcs.site(f"iter_mul{copy}_{step}"),
                  srcs=(loaded,), dst=scaled)
        cursor = scaled
    yield Uop(UopClass.INT_ALU, pcs.site(f"iter_upd{copy}"),
              srcs=(cursor,), dst=state_reg)


def chunk_bounds(rows: int, rows_per_chunk: int):
    """Yield ``(chunk_index, start_row, stop_row)`` over the table."""
    index = 0
    for start in range(0, rows, rows_per_chunk):
        yield index, start, min(start + rows_per_chunk, rows)
        index += 1


def lower_plan(backend, workload: ScanWorkload, config: ScanConfig) -> Iterator[Uop]:
    """Lower ``workload.plan`` operator by operator on ``backend``.

    ``backend`` is a codegen module implementing the per-operator
    protocol (``lower_filter`` / ``lower_aggregate``).  The Scan and
    Project nodes need no instructions of their own — the tables are
    materialised in the memory image, and projection only narrows what
    an Aggregate or materialisation touches — so a plan lowers to its
    Filter's scan followed, when present, by its Aggregate's reduction.
    """
    plan = workload.plan
    if plan is None:
        raise ValueError("workload carries no plan; use lower_filter directly")
    if plan.filter is None:
        raise ValueError(
            "plan lowering needs a Filter: every backend's scan produces the "
            "bitmask the Aggregate consumes (use a keep-everything predicate "
            "for full-table aggregation)"
        )
    yield from backend.lower_filter(workload, config)
    if plan.aggregate is not None:
        yield from backend.lower_aggregate(workload, config)


def lower_plan_runs(
    backend, workload: ScanWorkload, config: ScanConfig
) -> Iterator[TraceRun]:
    """Lower ``workload.plan`` as a steady-state run sequence.

    The Filter comes from the backend's ``lower_filter_runs``: structured
    loop-body runs the kernels compile and the replay layer can
    fast-forward — keyed by chunk-skip flags in column mode and by
    per-tuple match flags in tuple mode.  Aggregate lowerings stay
    opaque: their uop streams are data-dependent per chunk.
    """
    plan = workload.plan
    if plan is None:
        raise ValueError("workload carries no plan; use lower_filter directly")
    if plan.filter is None:
        raise ValueError(
            "plan lowering needs a Filter: every backend's scan produces the "
            "bitmask the Aggregate consumes (use a keep-everything predicate "
            "for full-table aggregation)"
        )
    yield from backend.lower_filter_runs(workload, config)
    if plan.aggregate is not None:
        yield opaque_run(backend.lower_aggregate(workload, config))
