"""The scan runner: plan -> data -> tables -> codegen -> simulation -> result.

This is the top of the public API: :func:`run_scan` simulates one
(architecture, scan configuration) point end-to-end and returns a
:class:`~repro.sim.results.RunResult` with timing, statistics, energy
and — for the architectures that compute in memory — a functional
verification of the produced mask (or, in a HIVE/HIPE tuple scan, of
each group's compare result) against the numpy reference.

Every run executes a :class:`~repro.db.plan.QueryPlan`; the default is
the paper's workload, the Q6 select scan
(:func:`~repro.db.query6.q6_select_plan`), whose lowering is
byte-identical to the pre-IR Q6 path.  Plans carrying an Aggregate are
additionally verified operator-deep: the aggregates implied by the
chunks the codegen actually processed — and, on HIVE/HIPE, the partial
sums the logic-layer engine physically left in the aggregate buffer —
must equal the numpy plan interpreter's exact answer.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..codegen import hipe as hipe_codegen
from ..codegen import hive as hive_codegen
from ..codegen import hmc as hmc_codegen
from ..codegen import x86 as x86_codegen
from ..codegen.aggregate import aggregate_slots, engine_lowering_falls_back
from ..codegen.base import ScanConfig, ScanWorkload, chunk_dead_flags, tuple_grouping
from ..common.config import DEFAULT_SCALE
from ..db.datagen import LineitemData, generate_table
from ..db.plan import QueryPlan
from ..db.query6 import Q6_PREDICATES, q6_select_plan
from ..db.scan import execute_plan
from ..db.table import DsmTable, NsmTable, allocate_scan_buffers
from ..energy.model import compute_energy
from .machine import Machine, build_machine
from .results import RunResult

_CODEGENS = {
    "x86": x86_codegen,
    "hmc": hmc_codegen,
    "hive": hive_codegen,
    "hipe": hipe_codegen,
}

#: default experiment size: 32 K rows against the scale-80 caches keeps
#: the paper's working-set >> LLC regime at tractable simulation times
DEFAULT_ROWS = 32_768

#: generated tables memoised per (schema digest, rows, seed): a sweep
#: process simulating many points of one workload regenerates the same
#: deterministic table for every point otherwise.  Tables are read-only
#: to every consumer (codegen reads columns, tables copy or map them
#: into the machine's memory image), so sharing is safe; the cap bounds
#: memory.
_TABLE_MEMO: dict = {}
_TABLE_MEMO_MAX = 4


def _memoised_table(schema, rows: int, seed: int) -> LineitemData:
    key = (schema.digest() if hasattr(schema, "digest") else repr(schema),
           rows, seed)
    data = _TABLE_MEMO.get(key)
    if data is None:
        data = generate_table(schema, rows, seed)
        if len(_TABLE_MEMO) >= _TABLE_MEMO_MAX:
            _TABLE_MEMO.pop(next(iter(_TABLE_MEMO)))
        _TABLE_MEMO[key] = data
    return data


def build_workload(
    machine: Machine,
    data: LineitemData,
    layout: str,
    predicates=Q6_PREDICATES,
    plan: Optional[QueryPlan] = None,
) -> ScanWorkload:
    """Materialise the table (in the machine's memory image) and buffers.

    When ``plan`` is given its Filter supplies the predicates; the bare
    ``predicates`` argument remains for plan-less custom scans.
    """
    if plan is not None:
        predicates = plan.predicates
    nsm = NsmTable(machine.image, data) if layout == "nsm" else None
    dsm = DsmTable(machine.image, data) if layout == "dsm" else None
    buffers = allocate_scan_buffers(machine.image, data.rows)
    partial = (machine.engine is not None
               and machine.engine.config.partial_predicated_loads)
    return ScanWorkload(
        data=data, predicates=tuple(predicates), buffers=buffers,
        nsm=nsm, dsm=dsm, plan=plan, partial_lanes=partial,
    )


def run_scan(
    arch: str,
    scan: ScanConfig,
    rows: int = DEFAULT_ROWS,
    seed: int = 1994,
    scale: int = DEFAULT_SCALE,
    data: Optional[LineitemData] = None,
    plan: Optional[QueryPlan] = None,
    exact: Optional[bool] = None,
    config=None,
    monitor=None,
) -> RunResult:
    """Simulate one query plan on one architecture/configuration.

    ``plan`` defaults to the Q6 select scan (the paper's workload).
    ``exact`` is tri-state: ``None`` defers to ``REPRO_EXACT`` (the one
    environment switch that turns replay off), ``True`` forces the
    uop-by-uop slow path, and an explicit ``False`` forces the
    bit-identical steady-state replay path even when ``REPRO_EXACT=1``
    is set — per-run overrides win over the environment in both
    directions.  ``config`` overrides the machine
    (e.g. :func:`~repro.common.config.reduced_cube_config`); cached
    experiment sweeps always use the standard per-arch machines.

    ``monitor`` (a :class:`~repro.sim.checkpoint.RunMonitor`) adds
    heartbeats and per-pass crash checkpoints; when it finds a snapshot
    for its key, simulation resumes from that pass boundary.  The fresh
    machine still serves codegen — the run stream is a deterministic
    function of the *data*, and memory-image addresses are a
    deterministic function of the allocation sequence — and lends the
    restored machine its read-only table regions (checksum-verified);
    the runs the snapshot already covers are skipped and the restored
    machine carries all timing state and written memory, so the resumed
    result is bit-identical to an uninterrupted run.
    """
    arch = arch.lower()
    if arch not in _CODEGENS:
        raise ValueError(f"unknown architecture {arch!r}")
    if plan is None:
        plan = q6_select_plan()
    if data is None:
        data = _memoised_table(plan.table, rows, seed)
    machine = build_machine(arch, scale=scale, config=config)
    workload = build_workload(machine, data, scan.layout, plan=plan)
    runs = _CODEGENS[arch].generate_plan_runs(workload, scan)
    if monitor is not None:
        restored = monitor.load_resume(machine)
        if restored is not None:
            machine = restored
    core_result = machine.run_runs(runs, exact=exact, monitor=monitor)

    verified: Optional[bool] = None
    if scan.strategy == "column" and arch in ("hive", "hipe"):
        mask_bytes = workload.buffers.mask_bytes_for(workload.rows)
        produced = machine.image.read(workload.buffers.bitmask_base, mask_bytes)
        expected = np.packbits(workload.final_mask, bitorder="little")
        verified = bool(np.array_equal(produced[: expected.size], expected))
    elif arch in ("hive", "hipe"):
        verified = _verify_engine_tuples(machine, workload, scan)
    elif arch == "hmc":
        verified = _verify_hmc_masks(machine, workload, scan)

    aggregates = None
    if plan.aggregate is not None:
        aggregates = {
            key: dict(values)
            for key, values in workload.computed_aggregates.items()
        }
        agg_ok = _verify_aggregates(machine, workload, scan, arch)
        verified = agg_ok if verified is None else (verified and agg_ok)

    energy = compute_energy(
        machine.config,
        core_result.cycles,
        machine.stats.child("hmc"),
        machine.stats.child("caches"),
        machine.stats.child("core"),
        machine.stats.child(arch) if machine.engine is not None else None,
    )
    if monitor is not None:
        monitor.finish()
    return RunResult(
        arch=arch,
        scan=scan,
        rows=data.rows,
        cycles=core_result.cycles,
        uops=core_result.uops,
        energy=energy,
        verified=verified,
        stats=machine.stats.flatten(),
        aggregates=aggregates,
        replay=machine.replay_stats,
    )


def _verify_aggregates(
    machine: Machine, workload: ScanWorkload, scan: ScanConfig, arch: str
) -> bool:
    """Check the lowered Aggregate against the numpy plan interpreter.

    Two layers of evidence: the per-group values implied by the chunks
    the codegen processed (all backends — a wrong skip decision breaks
    them), and, on the logic-layer engines, the per-lane partial sums
    the engine physically stored to the aggregate buffer.
    """
    plan = workload.plan
    reference = execute_plan(plan, workload.data)
    if workload.computed_aggregates != reference.aggregates:
        return False
    if arch not in ("hive", "hipe") or scan.strategy != "column":
        return True
    if engine_lowering_falls_back(workload, scan):
        return True  # min/max or overflow risk: core-side lowering ran
    slots = aggregate_slots(workload)
    aggs = plan.aggregate.aggs
    produced: dict = {}
    for index, (key, a) in enumerate(slots):
        raw = machine.image.read(
            workload.buffers.aggregate_address(index),
            workload.buffers.AGGREGATE_SLOT_BYTES,
        )
        total = int(raw.view(np.int32).astype(np.int64).sum())
        produced.setdefault(key, {})[aggs[a].label()] = total
    for key, values in reference.aggregates.items():
        if produced.get(key) != values:
            return False
    return True


def _verify_hmc_masks(machine: Machine, workload: ScanWorkload, scan: ScanConfig) -> bool:
    """Check the vault-computed compare masks against the reference.

    In column mode the HMC load-compare masks, conjoined per chunk in
    issue order, must reproduce the final reference mask.  In tuple mode
    each group's piece masks, ANDed, must reproduce its tuples' matches.
    """
    backend = machine.backend
    if backend is None or not hasattr(backend, "mask_table"):
        return False
    flat, widths = backend.mask_table()
    if widths.size == 0:
        return False
    if scan.strategy == "tuple":
        produced = _tuple_mask(flat, widths, workload, scan)
    else:
        produced = _column_mask(flat, widths, workload, scan)
    return produced is not None and bool(np.array_equal(produced, workload.final_mask))


def _verify_engine_tuples(machine: Machine, workload: ScanWorkload,
                          scan: ScanConfig) -> bool:
    """Check a HIVE/HIPE tuple scan: the compare result each group's
    value-returning UNLOCK read must reproduce its tuples' matches."""
    flags = machine.engine.unlock_flags()
    group, __ = tuple_grouping(scan.op_bytes, workload.nsm.tuple_bytes)
    if flags.shape[0] != -(-workload.rows // group):
        return False
    produced = _group_matches(flags, group, workload.rows)
    return bool(np.array_equal(produced, workload.final_mask))


def _tuple_mask(flat, widths, workload: ScanWorkload, scan: ScanConfig):
    """The match vector a tuple pass's load-compare masks imply (None if
    the ops do not cover the table one group at a time)."""
    group, pieces = tuple_grouping(scan.op_bytes, workload.nsm.tuple_bytes)
    rows = workload.rows
    groups = -(-rows // group)
    if widths.size != groups * pieces or (widths != 1).any():
        return None
    per_group = np.bitwise_and.reduce(flat.reshape(groups, pieces), axis=1)
    return _group_matches(per_group[:, None], group, rows)


def _group_matches(packed: np.ndarray, group: int, rows: int) -> np.ndarray:
    """Per-tuple matches from each group's packed match bits (one row
    per group, the group's tuples in its first bits)."""
    bits = np.unpackbits(packed, axis=1, bitorder="little")
    return bits[:, :group].reshape(-1)[:rows].astype(bool)


def _column_mask(flat, widths, workload: ScanWorkload, scan: ScanConfig):
    """The conjunction a column scan's load-compare masks imply: one op
    per live chunk and pass, in issue order (None if the ops do not)."""
    rows = workload.rows
    rpc = scan.rows_per_op
    n_chunks = -(-rows // rpc)
    tail = rows - (n_chunks - 1) * rpc  # lanes of the last chunk
    full_bytes = -(-rpc // 8)
    ends = np.cumsum(widths, dtype=np.int64)
    running = np.ones(rows, dtype=bool)
    cursor = 0
    for p in range(len(workload.predicates)):
        if p > 0:  # a dead chunk was skipped: no HMC op was issued
            live = np.flatnonzero(~chunk_dead_flags(
                workload.running_mask(p - 1), rpc, n_chunks))
        else:
            live = np.arange(n_chunks)
        ops = live.size
        expected = np.full(ops, full_bytes, dtype=np.int64)
        short = bool(ops) and int(live[-1]) == n_chunks - 1 and tail != rpc
        if short:
            expected[-1] = -(-tail // 8)
        if cursor + ops > widths.size or not np.array_equal(
                widths[cursor:cursor + ops], expected):
            return None
        start = int(ends[cursor - 1]) if cursor else 0
        pass_bytes = flat[start:start + int(expected.sum())]
        whole = ops - short
        lanes = np.zeros((n_chunks, rpc), dtype=bool)
        lanes[live[:whole]] = np.unpackbits(
            pass_bytes[:whole * full_bytes].reshape(whole, full_bytes),
            axis=1, bitorder="little")[:, :rpc]
        if short:
            lanes[-1, :tail] = np.unpackbits(
                pass_bytes[whole * full_bytes:], bitorder="little")[:tail]
        running &= lanes.reshape(-1)[:rows]
        cursor += ops
    return running if cursor == widths.size else None
