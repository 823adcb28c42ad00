"""Steady-state trace replay: fast-forward converged loop-body runs.

The database scans this repository simulates are one loop body repeated
thousands of times.  A ZSim-class analytic model spends identical work
on every repetition; this module exploits the repetition instead, the
way the bulk-bitwise PIM reproductions replay steady-state behaviour to
reach full TPC-H scale factors.

The machinery operates on the :class:`~repro.codegen.base.TraceRun`
protocol: codegen hands the simulator runs of structurally identical
iterations (same static uops, addresses advancing uniformly).  Within a
run the executor

1. **detects convergence** — simulates iterations normally while
   watching the per-iteration commit-cycle deltas; when the delta
   sequence repeats with some period ``p`` it takes a *probe*: two more
   periods simulated with a full machine-state *signature* captured at
   each period boundary,
2. **verifies shift-periodicity** — the signature normalises every
   timing quantity to the current commit cycle, every address to the
   run's declared region advances, and every rotating resource pool
   (round-robin link lanes and functional units, address-routed vaults
   and DRAM banks) to its rotation phase; two consecutive boundaries
   with byte-equal signatures and equal statistics deltas prove the
   machine is advancing uniformly: state(k+1) = shift(state(k)),
3. **extrapolates** — the remaining whole periods are applied
   analytically: statistics counters grow by the verified per-period
   deltas, every clock in the machine advances by the period's cycle
   delta, address-keyed state (cache tags, MSHR merge tables, prefetch
   tables, store-forward entries, bank/vault busy times) is relabelled
   by the region advances, round-robin cursors advance by their
   per-period grant counts, and the run's ``bulk`` hook applies the
   skipped iterations' functional side effects (engine-stored bitmask
   bytes, HMC verification masks),
4. **guards exactness** — anything that breaks uniformity refuses to
   converge and keeps full simulation: data-dependent chunk skipping,
   HIPE's squashed/partial predicated loads under non-uniform
   selectivity, cache-resident warmup (residue accumulating in the
   tags), ambiguous relabels (two live resources landing on one
   server).  ``REPRO_EXACT=1`` bypasses the replay layer entirely so
   any point can be re-verified against the slow path; replayed and
   exact runs produce bit-identical
   :class:`~repro.sim.results.RunResult`\\ s.

Each run is fully simulated or extrapolated before the next one is
pulled, so a checkpoint may snapshot the machine at any pass boundary.
Runs shorter than a structural period (the data-fragmented passes,
whose skip or squash flags split them into short keyed runs) get only
the commit-delta probe; runs too short even for that simulate as one
kernel span, as on the exact path.

The schedulers themselves are periodic *by construction* (PR 4): link
lanes and functional units rotate round-robin instead of greedy
earliest-free tie-breaking, vault command/FU servers are deterministic
scalar resources tagged with their last routed address, and the core's
fetch floor is coupled to ROB commit state — so the steady state of the
paper's Q6/selectivity workloads recurs (up to relabelling) with the
vault-aligned structural period and the probe engages at SF1.

The replay layer lives inside the timing-model source digest
(``repro.sim``), so cached experiment results are invalidated whenever
this file changes — replayed and exact runs share cache keys by design.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Optional, Tuple

from ..codegen.base import RegAllocator, TraceRun
from ..common.resources import (
    OccupancyResource,
    SlottedResource,
)
from ..common.stats import StatGroup
from ..cpu.kernel import KernelRunner

#: the register-id convention every codegen follows (replay relabels
#: rotating ids in terms of it; loop-invariant ids are left alone)
REG_START = RegAllocator.DEFAULT_START
REG_WINDOW = RegAllocator.DEFAULT_WINDOW

#: smallest run worth attempting convergence on
MIN_RUN_ITERATIONS = 12
#: longest period considered (iterations); the paper workloads' full
#: DRAM-phase period is 8192 iterations (HMC/HIVE/HIPE 256 B ops) and
#: 32768 (x86 64 B ops)
MAX_PERIOD = 32768
#: ceiling for runs with no/short structural period (synthetic or
#: cache-resident loops converge quickly or not at all; scanning every
#: candidate up to MAX_PERIOD for them is wasted work)
SHORT_MAX_PERIOD = 256
#: structural periods at least this long probe directly (no commit-delta
#: prescan): the slowest stream needs a full DRAM phase per period, so
#: waiting for (MIN_REPEATS+1) periods of identical deltas before the
#: first probe would eat most of a paper-scale run
STRUCT_PROBE_MIN = 512
#: DRAM block granularity: region advances that are whole 256 B blocks
#: keep a stream's (vault, bank) decomposition advancing uniformly
BLOCK_BYTES = 256
#: minimum repetitions of the delta period before probing
MIN_REPEATS = 2
#: iterations of back-off after a failed probe before trying again
RETRY_BACKOFF_PERIODS = 4
#: failed probes per run before giving up (bounds the state-signature
#: overhead on runs that never converge to ~a few percent)
MAX_PROBES_PER_RUN = 3
#: structural (direct) probes get a larger budget: their periods are
#: huge, every iteration in a failed probe would have been simulated
#: anyway, and long cache transients (an L3-sized fill or residue
#: drain) legitimately eat several probes before the steady state
#: begins
MAX_STRUCT_PROBES_PER_RUN = 10
#: minimum remaining iterations, in periods, to make a probe worthwhile
MIN_SKIP_PERIODS = 3
#: how far below "now" timing entries still enter the state signature
#: (bounds the skew the out-of-order front end can produce)
GRACE = 1024


def replay_enabled() -> bool:
    """Replay is on unless ``REPRO_EXACT=1`` disables it."""
    return os.environ.get("REPRO_EXACT", "0").lower() not in ("1", "true", "yes")


class ReplayStats:
    """Bookkeeping of one replayed trace (not part of the RunResult)."""

    # Always zero: perfbench's layer trace still reads these counters.
    fragment_sigs = fragments_seen = fragments_stitched = 0

    def __init__(self) -> None:
        self.runs_seen = 0
        self.runs_converged = 0
        self.probes_failed = 0
        self.simulated_iterations = 0
        self.skipped_iterations = 0
        self.skipped_uops = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplayStats(converged {self.runs_converged}/{self.runs_seen} runs, "
            f"skipped {self.skipped_iterations} iters / {self.skipped_uops} uops, "
            f"simulated {self.simulated_iterations})"
        )


# ---------------------------------------------------------------------------
# address normalisation helpers
# ---------------------------------------------------------------------------


class _AddressMap:
    """Maps addresses to per-region deltas (normalisation / relabelling)."""

    def __init__(self, regions, deltas: List[int]) -> None:
        self._spans = [(r.lo, r.hi, d) for r, d in zip(regions, deltas)]

    def delta_of(self, address: int) -> Tuple[int, int]:
        """(region index, delta) for ``address``; (-1, 0) when unregioned."""
        for index, (lo, hi, delta) in enumerate(self._spans):
            if lo <= address < hi:
                return index, delta
        return -1, 0

    def normalize(self, address: int) -> Tuple[int, int]:
        region, delta = self.delta_of(address)
        return region, address - delta

    def relabel(self, address: int) -> int:
        __, delta = self.delta_of(address)
        return address + delta


# ---------------------------------------------------------------------------
# the state signature (normalised, comparison decides convergence)
# ---------------------------------------------------------------------------


def _sig_slotted(res: SlottedResource, now: int):
    return (_sig_clock(res._horizon, now),) + res.sig_entries(now, GRACE)


def _sig_occupancy(res: OccupancyResource, now: int):
    return res.sig_entries(now, GRACE)


def _sig_clock(value: int, now: int) -> int:
    slack = value - now
    return slack if slack > -GRACE else -GRACE


def _policy_dict(policy):
    """The ordered tag container of any replacement policy flavour."""
    for name in ("_stack", "_queue", "_tags"):
        container = getattr(policy, name, None)
        if container is not None:
            return container
    raise TypeError(f"unsupported replacement policy {type(policy).__name__}")


def _sig_tags(level, amap: _AddressMap):
    """A cache level's tags as a set-position-independent multiset.

    Each line is recorded as (region, normalised address, LRU rank,
    dirty).  The steady tag state of a streaming scan is a *conveyor*
    — lines install, sit idle for some retention, and are evicted when
    their set's LRU turns over — and the whole conveyor advances with
    the address streams, so every line normalises by the region deltas.
    The set a line occupies is a pure function of its actual address,
    and the actual address at any boundary is the normalised address
    plus that boundary's accumulated region delta — so equal multisets
    at two boundaries mean the full per-set tag/LRU/dirty state at the
    second is exactly the relabelling of the first, even when lines
    have migrated to rotated set indices.  State that does *not* convey
    (a filling cache, parked residue, a fully resident buffer) cannot
    match under normalisation and correctly refuses.
    """
    entries = []
    for cache_set in level._sets:
        for rank, line in enumerate(_policy_dict(cache_set.policy)):
            region, norm = amap.normalize(line)
            entries.append((region, norm, rank,
                            bool(cache_set.dirty.get(line, False))))
    entries.sort()
    return tuple(entries)


def _stride_table(prefetcher) -> Optional[Dict]:
    """The pc-indexed stride table, None for other prefetcher kinds."""
    return getattr(prefetcher, "_table", None)


def _sig_prefetcher(prefetcher, amap: _AddressMap, prev_pf: Dict):
    """Prefetcher tables in LRU order, stream state normalised.

    The stream prefetcher's region table is pure conveyor state (the
    scan trains a region, leaves a cooling trail behind, the LRU trims
    it), so every entry normalises — keys and addresses alike.  The
    stride table is pc-keyed: entries of finished code (a dead pass's
    load pcs) freeze at their final raw addresses forever, so entries
    are classified by a raw diff against the previous period boundary —
    unchanged entries are fossils and compare raw, changed ones belong
    to the running loop and normalise.  Iteration order is part of the
    signature — it is the tables' LRU eviction order.
    """
    table = _stride_table(prefetcher)
    if table is not None:
        entries = []
        for pc, value in table.items():
            if prev_pf.get(pc) == value:
                entries.append((pc, value, False))
            else:
                last, stride, conf = value
                entries.append((pc, (amap.normalize(last), stride, conf), True))
        return tuple(entries)
    streams = getattr(prefetcher, "_streams", None)
    if streams is not None:
        return tuple(
            (amap.normalize(last), direction, trained, amap.normalize(head))
            for last, direction, trained, head in streams.values()
        )
    return ()


def _walk_stats(group: StatGroup, out: List[Tuple[Dict, str]]) -> None:
    for key in group._counters:
        out.append((group._counters, key))
    for child in group._children.values():
        _walk_stats(child, out)


class _MachineState:
    """Enumerates every timing-relevant part of one machine + execution."""

    def __init__(self, machine, execution) -> None:
        self.machine = machine
        self.execution = execution
        core = execution

        # Positional structures: one fixed instance each.
        self.slotted: List[SlottedResource] = [
            core._fetch_slots, core._branch_slots, core._issue_slots,
            core._commit_slots,
        ]
        self.occupancy: List[OccupancyResource] = [
            core._mob_reads, core._mob_writes,
        ]
        if core._pim_window is not None:
            self.occupancy.append(core._pim_window)

        # Round-robin pools: lane/unit assignment is a pure rotation of
        # the pool cursor, so member states compare (and shift) relative
        # to the cursor phase.  Each entry is (pool, members, counter) —
        # ``counter`` names the per-member statistic the pool total
        # extrapolates through, and doubles as the busy-vs-bandwidth
        # kind for the flat time-shift views.
        self.rr_pools: List[Tuple[object, List, str]] = []
        seen = set()
        for pool, __ in machine.core.units._pools.values():
            if id(pool) in seen:
                continue
            seen.add(id(pool))
            self.rr_pools.append((pool, list(pool.units), "busy_cycles"))
        hmc = machine.hmc
        for lanes in (hmc.links._request_lanes, hmc.links._response_lanes):
            self.rr_pools.append((lanes, list(lanes.channels), "bytes_moved"))

        # Address-routed pools: requests land on the server their DRAM
        # address decodes to, so a live server's state is keyed by the
        # last address that touched it and relabels with the region
        # advances like any other address-keyed state.  Each entry is
        # (members, index_of_address, counter).
        mapping = hmc.mapping
        banks_per_vault = hmc.config.banks_per_vault

        def vault_index(address: int) -> int:
            return mapping.decompose(address).vault

        def bank_index(address: int) -> int:
            decoded = mapping.decompose(address)
            return decoded.vault * banks_per_vault + decoded.bank

        self.addr_pools: List[Tuple[List, object, str]] = [
            ([v._command_queue for v in hmc.vaults], vault_index, "busy_cycles"),
            ([v._fu for v in hmc.vaults], vault_index, "busy_cycles"),
            ([v._data_bus for v in hmc.vaults], vault_index, "bytes_moved"),
            ([bank._resource for vault in hmc.vaults for bank in vault.banks],
             bank_index, "busy_cycles"),
        ]

        self.levels = [machine.hierarchy.l1, machine.hierarchy.l2,
                       machine.hierarchy.l3]
        for level in self.levels:
            self.slotted.append(level._ports)
            for pool in (level.mshr.requests, level.mshr.writes,
                         level.mshr.evictions):
                self.occupancy.append(pool)

        self.engine = machine.engine

        # Flat views for time-shifting (order irrelevant there), derived
        # from the pools' declared kinds.
        self.all_slotted = list(self.slotted)
        self.all_busy = []
        self.all_bandwidth = []
        for __, members, counter in self.rr_pools:
            target = self.all_busy if counter == "busy_cycles" else self.all_bandwidth
            target.extend(members)
        for members, __, counter in self.addr_pools:
            target = self.all_busy if counter == "busy_cycles" else self.all_bandwidth
            target.extend(members)

        # Monotonic counters outside the stats tree (extrapolated, not
        # part of the structural signature).
        counters: List[Tuple[object, str]] = []
        _walk_stats(machine.stats, counters)  # type: ignore[arg-type]
        self.stat_cells = counters
        # Scalar counters: positionally stable between periods.  The
        # ``_n_*`` attributes are the hot-path batched counters that
        # flush lazily into the stats tree (StatGroup.register_flush).
        self.scalar_cells: List[Tuple[object, str]] = [
            (hmc.links, "request_packets"),
            (hmc.links, "response_packets"),
            (hmc, "_n_vault_accesses"),
            (hmc, "_n_vault_bytes_read"),
            (hmc, "_n_vault_bytes_written"),
            (hmc, "_n_line_reads"),
            (hmc, "_n_line_writes"),
            (hmc, "_n_pim_updates"),
            (machine.hierarchy, "_n_loads"),
            (machine.hierarchy, "_n_stores"),
        ]
        for name in ("_n_loads", "_n_stores", "_n_branches", "_n_alu",
                     "_n_pim", "_n_redirects", "_n_forwards"):
            self.scalar_cells.append((execution, name))
        predictor = machine.core.predictor
        for name in ("_n_predictions", "_n_correct", "_n_mispredictions",
                     "_n_btb_misses"):
            self.scalar_cells.append((predictor, name))
        self.dict_cells: List[Tuple[Dict, object]] = []
        for level in self.levels:
            self.scalar_cells.append((level.mshr, "merges"))
            self.scalar_cells.append((level.mshr, "allocations"))
            self.scalar_cells.append((level.prefetcher, "issued"))
            for name in ("_n_accesses", "_n_hits", "_n_misses",
                         "_n_prefetch_hits", "_n_invalidations",
                         "_n_evictions", "_n_writebacks",
                         "_n_prefetches_issued", "_n_prefetches_dropped"):
                self.scalar_cells.append((level, name))
            for index in range(len(level._n_miss_by_type)):
                self.dict_cells.append((level._n_miss_by_type, index))
        if self.engine is not None:
            for name in ("_n_instructions", "_n_locks", "_n_unlocks",
                         "_n_loads", "_n_squashed_loads", "_n_partial_loads",
                         "_n_stores", "_n_squashed_stores", "_n_pack",
                         "_n_unpack", "_n_alu", "_n_alu_lanes",
                         "_n_bytes_loaded", "_n_bytes_stored",
                         "_n_bytes_skipped"):
                self.scalar_cells.append((self.engine, name))
            self.scalar_cells.append((self.engine.registers, "_n_reads"))
            self.scalar_cells.append((self.engine.registers, "_n_writes"))
        backend = machine.backend
        if backend is not None:
            for name in ("_n_loadcmp_ops", "_n_loadcmp_bytes", "_n_sent"):
                if hasattr(backend, name):
                    self.scalar_cells.append((backend, name))
        # Group-summed counters: requests rotate across the pool's
        # members, so only the pool total extrapolates linearly (and
        # only the total ever reaches results, via collect_stats).  One
        # group per pool — request lanes, response lanes and the vault
        # buses feed *separate* statistics.
        banks = [bank for vault in hmc.vaults for bank in vault.banks]
        self.group_cells: List[List[Tuple[object, str]]] = [
            [(vault, "fu_ops") for vault in hmc.vaults],
        ]
        for name in ("activations", "reads", "writes", "bytes_read",
                     "bytes_written"):
            self.group_cells.append([(bank, name) for bank in banks])
        for __, members, counter in self.rr_pools:
            self.group_cells.append([(m, counter) for m in members])
        for members, __, counter in self.addr_pools:
            self.group_cells.append([(m, counter) for m in members])

    # -- counters (values extrapolate linearly) -----------------------------

    def counter_vector(self) -> List[float]:
        values = [cells[key] for cells, key in self.stat_cells]
        values.extend(getattr(obj, name, 0) for obj, name in self.scalar_cells)
        values.extend(cells[key] for cells, key in self.dict_cells)
        values.extend(
            sum(getattr(obj, name, 0) for obj, name in group)
            for group in self.group_cells
        )
        return values

    def rotation_vector(self) -> List[int]:
        """Round-robin cursors (monotone grant counts) of every rr pool."""
        return [pool.cursor for pool, __, ___ in self.rr_pools]

    def stat_keys(self):
        """Stable identity of the stats cells (new counters may appear)."""
        return [
            (id(cells), key) for cells, key in self.stat_cells
        ]

    def refresh_stats(self) -> None:
        """Re-walk the stats tree (counters can be created lazily)."""
        counters: List[Tuple[Dict, str]] = []
        _walk_stats(self.machine.stats, counters)
        self.stat_cells = counters

    def add_counters(self, delta: List[float], times: int) -> None:
        n_stats = len(self.stat_cells)
        n_scalar = len(self.scalar_cells)
        n_dict = len(self.dict_cells)
        for (cells, key), d in zip(self.stat_cells, delta[:n_stats]):
            if d:
                cells[key] = cells[key] + d * times
        for (obj, name), d in zip(self.scalar_cells,
                                  delta[n_stats:n_stats + n_scalar]):
            if d:
                setattr(obj, name, getattr(obj, name) + int(d) * times)
        for (cells, key), d in zip(
            self.dict_cells, delta[n_stats + n_scalar:n_stats + n_scalar + n_dict]
        ):
            if d:
                cells[key] = cells[key] + int(d) * times
        for group, d in zip(self.group_cells,
                            delta[n_stats + n_scalar + n_dict:]):
            if d:
                # Attribute the whole pool's growth to its first member;
                # results only ever read the pool total.
                obj, name = group[0]
                setattr(obj, name, getattr(obj, name) + int(d) * times)

    # -- structural signature ----------------------------------------------

    def raw_snapshot(self) -> List[Dict]:
        """Per-level raw stride-table state, for the fossil diff."""
        out = []
        for level in self.levels:
            table = _stride_table(level.prefetcher)
            out.append({} if table is None else dict(table))
        return out

    def signature(self, amap: _AddressMap, prev_raw: List[Dict]):
        core = self.execution
        now = core.last_commit
        parts: List = []

        parts.append(tuple(_sig_slotted(r, now) for r in self.slotted))
        parts.append(tuple(_sig_occupancy(r, now) for r in self.occupancy))

        # Round-robin pools compare cursor-relative: member (cursor + i)
        # at one boundary corresponds to member (cursor' + i) at the
        # next.  The cursor advance itself is verified separately
        # (rotation_vector deltas must match period over period).
        rr_parts = []
        for pool, members, __ in self.rr_pools:
            n = len(members)
            phase = pool.cursor % n
            rr_parts.append(tuple(
                _sig_clock(members[(phase + i) % n]._next_free, now)
                for i in range(n)
            ))
        parts.append(tuple(rr_parts))

        # Address-routed pools compare as multisets of live servers
        # keyed by the (normalised) address that last touched them: the
        # server an address lands on is a pure function of the address,
        # so equal multisets mean the live bank/vault busy pattern at
        # the next boundary is exactly the relabelling of this one.
        # Stale servers (idle longer than GRACE) are behaviourally dead
        # — any future request's max(cycle, next_free) resolves to the
        # request cycle — and are excluded.
        addr_parts = []
        for members, __, ___ in self.addr_pools:
            live = []
            for i, member in enumerate(members):
                slack = member._next_free - now
                if slack <= -GRACE:
                    continue
                address = member.last_address
                if address is None:
                    live.append(((-2, i), slack))
                else:
                    live.append((self.normalize_addr(amap, address), slack))
            live.sort()
            addr_parts.append(tuple(live))
        parts.append(tuple(addr_parts))

        # Core scalar clocks + the ROB in age order (rotation-invariant).
        parts.append((
            _sig_clock(core._fetch_floor, now),
            _sig_clock(core._branch_resolve_watermark, now),
            _sig_clock(core._last_pim_issue, now),
        ))
        rob = core._rob
        size = len(rob)
        head = core.index % size
        parts.append(tuple(
            _sig_clock(rob[(head - 1 - o) % size], now) for o in range(size)
        ))

        # Register ready times: rotating ids relabelled to allocation
        # age; loop-invariant ids (induction/state registers the run
        # declares) compare — and later shift — by identity.
        reg_shift = self._reg_phase() % REG_WINDOW
        fixed = self.fixed_regs
        regs = tuple(sorted(
            (("f", rid) if rid in fixed
             else ("r", (rid - REG_START - reg_shift) % REG_WINDOW),
             t - now)
            for rid, t in core._reg_ready.items() if t > now - GRACE
        ))
        parts.append(regs)

        # Store-forward entries in insertion order, addresses normalised.
        parts.append(tuple(
            (amap.normalize(addr), size_, _sig_clock(t, now))
            for addr, (size_, t) in core._store_forward.items()
        ))

        # Branch predictor (must be fully trained and periodic).
        predictor = self.machine.core.predictor
        parts.append((predictor._history, bytes(predictor._pht),
                      tuple(predictor._btb.keys())))

        # Cache tags + dirty bits + LRU ranks as relabel-invariant
        # multisets; MSHR merge tables; prefetcher state.
        for level, prev_pf in zip(self.levels, prev_raw):
            parts.append(_sig_tags(level, amap))
            parts.append(tuple(sorted(
                (amap.normalize(line), t - now)
                for line, t in level.mshr._in_flight.items() if t > now - GRACE
            )))
            parts.append(_sig_prefetcher(level.prefetcher, amap, prev_pf))

        # Logic-layer engine clocks + register interlock times.
        engine = self.engine
        if engine is not None:
            parts.append((
                _sig_clock(engine._seq_time, now),
                _sig_clock(engine._lock_free, now),
                _sig_clock(engine._block_watermark, now),
                _sig_clock(engine.last_completion, now),
                tuple(_sig_clock(r.ready, now) for r in engine.registers.registers),
            ))
        return tuple(parts)

    @staticmethod
    def normalize_addr(amap: _AddressMap, address: int) -> Tuple[int, int]:
        return amap.normalize(address)

    def _reg_phase(self) -> int:
        """Core-register allocation phase (set by the executor per run)."""
        return getattr(self, "reg_phase", 0)

    @property
    def fixed_regs(self):
        """Loop-invariant register ids of the current run (executor-set)."""
        return getattr(self, "_fixed_regs", frozenset())

    @fixed_regs.setter
    def fixed_regs(self, value) -> None:
        self._fixed_regs = frozenset(value)

    # -- the shift (fast-forward by `times` periods) ------------------------

    def plan_tag_relabel(self, amap: _AddressMap) -> Optional[List]:
        """Dry-run the cache-tag relabelling; None when it is ambiguous.

        Every line relabels with the conveyor — possibly into a
        different set, since region advances are not set-aligned in
        general.  Each destination set is reconstructed from its lines'
        LRU ranks; two lines claiming one rank (or one address) would
        make the merged state ambiguous, and the executor refuses.
        """
        plans = []
        for level in self.levels:
            num_sets = level.num_sets
            line_bytes = level.line_bytes
            new_sets: Dict[int, List] = {}
            for cache_set in level._sets:
                for rank, line in enumerate(_policy_dict(cache_set.policy)):
                    dirty = bool(cache_set.dirty.get(line, False))
                    new_line = amap.relabel(line)
                    new_index = (new_line // line_bytes) % num_sets
                    new_sets.setdefault(new_index, []).append(
                        (rank, new_line, dirty)
                    )
            for entries in new_sets.values():
                entries.sort()
                ranks = [rank for rank, __, ___ in entries]
                if len(set(ranks)) != len(ranks):
                    return None
                lines = [line for __, line, ___ in entries]
                if len(set(lines)) != len(lines):
                    # Two lines landing on one address: the cache is
                    # (partly) position-static, not conveying —
                    # extrapolating the advance would corrupt it.
                    return None
            plans.append(new_sets)
        return plans

    def plan_prefetcher_relabel(self, amap: _AddressMap,
                                prev_raw: List[Dict]) -> Optional[List]:
        """Dry-run the prefetcher-table relabelling; None on collision.

        Stream tables relabel wholesale (conveyor state); stride
        entries relabel per the fossil diff — unchanged (dead-pc)
        entries keep their raw values.  A relabelled stream landing on
        a key another entry keeps would merge two table rows, so the
        executor refuses.
        """
        plans = []
        for level, prev_pf in zip(self.levels, prev_raw):
            table = _stride_table(level.prefetcher)
            items: List[Tuple] = []
            if table is not None:
                kind = "stride"
                for pc, value in table.items():
                    if prev_pf.get(pc) == value:
                        items.append((pc, value))
                    else:
                        last, stride, conf = value
                        items.append((pc, (amap.relabel(last), stride, conf)))
            else:
                streams = getattr(level.prefetcher, "_streams", None)
                if streams is None:
                    plans.append(("none", items))
                    continue
                kind = "stream"
                span = (level.prefetcher.REGION_LINES
                        * level.prefetcher.line_bytes)
                for last, direction, trained, head in streams.values():
                    new_last = amap.relabel(last)
                    items.append((new_last // span,
                                  (new_last, direction, trained,
                                   amap.relabel(head))))
            keys = [key for key, __ in items]
            if len(set(keys)) != len(keys):
                return None
            plans.append((kind, items))
        return plans

    def plan_pool_relabel(self, amap: _AddressMap) -> Optional[List]:
        """Dry-run the address-routed pool relabelling; None on conflict.

        Every live server's last address is relabelled and re-decoded;
        the server's busy state moves to the server the new address
        routes to.  Two live servers landing on the same destination
        (streams crossing in vault space) would leave the destination's
        state ambiguous, so the executor refuses.
        """
        plans = []
        for members, index_of, __ in self.addr_pools:
            now = self.execution.last_commit
            moves = []
            targets = set()
            for i, member in enumerate(members):
                if member._next_free - now <= -GRACE:
                    continue
                address = member.last_address
                if address is None:
                    return None
                new_address = amap.relabel(address)
                try:
                    target = index_of(new_address)
                except ValueError:
                    return None
                if target in targets:
                    return None
                targets.add(target)
                moves.append((i, target, new_address))
            plans.append(moves)
        return plans

    def apply_tag_relabel(self, plans: List) -> None:
        for level, new_sets in zip(self.levels, plans):
            for index, cache_set in enumerate(level._sets):
                entries = new_sets.get(index)
                container = _policy_dict(cache_set.policy)
                container.clear()
                cache_set.dirty.clear()
                if entries:
                    for __, line, dirty in entries:  # in LRU-rank order
                        container[line] = None
                        if dirty:
                            cache_set.dirty[line] = True

    def apply_prefetcher_relabel(self, plans: List) -> None:
        for level, (kind, items) in zip(self.levels, plans):
            if kind == "stride":
                table = _stride_table(level.prefetcher)
            elif kind == "stream":
                table = level.prefetcher._streams
            else:
                continue
            table.clear()
            table.update(items)

    def apply_pool_relabel(self, plans: List, dead_floor: int) -> None:
        """Move live servers' (already time-shifted) state to their new
        routing positions.  A vacated server's busy time is clamped to
        the stale horizon: the slow path would have touched it during
        the skipped span and let the touch age out of the GRACE window,
        so all that matters — and all that is preserved — is that it is
        behaviourally dead (any future request's ``max(cycle,
        next_free)`` resolves to the request cycle)."""
        for (members, __, ___), moves in zip(self.addr_pools, plans):
            snapshot = [
                (target, members[i]._next_free, new_address)
                for i, target, new_address in moves
            ]
            targets = {target for target, __, ___ in snapshot}
            for i, __, ___ in moves:
                if i not in targets:
                    members[i].clamp_next_free(dead_floor)
            for target, next_free, new_address in snapshot:
                member = members[target]
                member._next_free = next_free
                member.last_address = new_address

    def shift(self, dt: int, amap: _AddressMap, uop_advance: int,
              reg_advance: int, rotations: Optional[List[int]] = None,
              pool_plans: Optional[List] = None,
              prefetch_plans: Optional[List] = None) -> None:
        """Advance the whole machine by ``dt`` cycles / region deltas."""
        core = self.execution

        for res in self.all_slotted:
            res.shift_time(dt)
        for res in self.occupancy:
            res.shift_time(dt)
        for res in self.all_busy:
            res._next_free += dt
        for res in self.all_bandwidth:
            res._next_free += dt

        # Round-robin pools: advance the cursor by the accumulated grant
        # count and rotate the member states with it, so member
        # (cursor + i) keeps the state the probe verified for phase i.
        if rotations is not None:
            for (pool, members, __), advance in zip(self.rr_pools, rotations):
                n = len(members)
                pool.cursor += advance
                rot = advance % n
                if rot:
                    values = [m._next_free for m in members]
                    for i, value in enumerate(values):
                        members[(i + rot) % n]._next_free = value

        if pool_plans is not None:
            self.apply_pool_relabel(
                pool_plans, dead_floor=core.last_commit + dt - GRACE
            )

        core._fetch_floor += dt
        core._branch_resolve_watermark += dt
        core._last_pim_issue += dt
        core.last_commit += dt

        rob = core._rob
        size = len(rob)
        shift = uop_advance % size
        rotated = [rob[(s - shift) % size] + dt for s in range(size)]
        core._rob[:] = rotated
        core.index += uop_advance

        shift_ids = reg_advance % REG_WINDOW
        fixed = self.fixed_regs
        core._reg_ready = {
            (rid if rid in fixed
             else REG_START + ((rid - REG_START + shift_ids) % REG_WINDOW)): t + dt
            for rid, t in core._reg_ready.items()
        }
        core._store_forward = {
            amap.relabel(addr): (size_, t + dt)
            for addr, (size_, t) in core._store_forward.items()
        }

        for level in self.levels:
            mshr = level.mshr
            mshr._in_flight = {
                amap.relabel(line): t + dt
                for line, t in mshr._in_flight.items()
            }
            mshr._fifo = type(mshr._fifo)(
                (t + dt, amap.relabel(line)) for t, line in mshr._fifo
            )
            mshr._watermark += dt
        if prefetch_plans is not None:
            self.apply_prefetcher_relabel(prefetch_plans)

        engine = self.engine
        if engine is not None:
            engine._seq_time += dt
            engine._lock_free += dt
            engine._block_watermark += dt
            engine.last_completion += dt
            for register in engine.registers.registers:
                register.ready += dt


# ---------------------------------------------------------------------------
# the executor
# ---------------------------------------------------------------------------


class ReplayExecutor:
    """Consumes a :class:`TraceRun` stream against one machine."""

    def __init__(self, machine, execution) -> None:
        self.machine = machine
        self.execution = execution
        self.state = _MachineState(machine, execution)
        self.stats = ReplayStats()
        #: full-DRAM-phase alignment: a period whose region advances are
        #: all multiples of one complete vault x bank interleave span
        #: keeps every stream's (vault, bank) decomposition — and the
        #: streams' *relative* phases, i.e. where column traffic crosses
        #: the mask stream's current vault/bank — boundary-invariant.
        #: (Vault alignment alone is not enough: the cost of a crossing
        #: depends on whether the two streams also share a bank, and the
        #: bank phase of the slowest stream advances once per vault
        #: sweep.)
        config = machine.hmc.config
        self._dram_span = (BLOCK_BYTES * config.num_vaults
                           * config.banks_per_vault)

    # -- plumbing -----------------------------------------------------------

    def _simulate_iteration(self, run: TraceRun, j: int) -> Tuple[int, int]:
        """Run iteration ``j``; returns (commit delta, uop count).

        Simulation goes through the current run's compiled kernel (see
        :mod:`repro.cpu.kernel`): the replay layer decides *which*
        iterations must be simulated, the kernel makes each one cheap.
        """
        execution = self.execution
        before = execution.last_commit
        uops = self._runner.iteration(j)
        self.stats.simulated_iterations += 1
        return execution.last_commit - before, uops

    # -- convergence detection ---------------------------------------------

    @staticmethod
    def _find_period(deltas: List[int], floor: int = 1,
                     limit: int = MAX_PERIOD) -> Optional[int]:
        """Smallest multiple of ``floor`` whose recent deltas repeat.

        ``floor`` is the structural period (vault-aligned region
        advances) and escalates after failed probes: the commit-delta
        sequence often repeats at a short period while deeper machine
        state (mask-line crossings, stream crossings in vault space)
        cycles with a longer one that only the signature can see.  Only
        multiples of the structural period are viable, and slice
        comparison keeps the scan cheap enough to run while simulating.
        """
        n = len(deltas)
        p = max(1, floor)
        while p <= limit:
            need = (MIN_REPEATS + 1) * p
            if need > n:
                return None
            tail = deltas[-need:]
            base = tail[:p]
            if all(tail[r * p:(r + 1) * p] == base
                   for r in range(1, MIN_REPEATS + 1)):
                return p
            p += max(1, floor)
        return None

    def _region_deltas(self, run: TraceRun, periods: int, p: int) -> Optional[List[int]]:
        """Per-region address advance over ``periods`` periods (ints only)."""
        deltas = []
        for region in run.regions:
            advance = region.stride * p * periods
            if advance.denominator != 1:
                return None
            deltas.append(int(advance))
        return deltas

    def _structural_period(self, run: TraceRun) -> int:
        """Smallest period advancing every region by whole DRAM phases.

        When every address stream advances by a multiple of the full
        vault x bank interleave span per period, each stream returns to
        the same (vault, bank) phase at every boundary and the relative
        phases of the streams — where and how severely they collide in
        the memory — recur exactly: the natural candidate the
        commit-delta sequence alone cannot see (its period is usually
        1).
        """
        period = 1
        span = self._dram_span
        for region in run.regions:
            if region.stride == 0:
                continue
            # Smallest integer p with p * (a/b) ≡ 0 (mod span).
            a = abs(region.stride.numerator)
            b = region.stride.denominator
            p = (span * b) // math.gcd(a, span * b)
            period = period * p // math.gcd(period, p)
        return period

    # -- the probe ----------------------------------------------------------

    def _probe_and_skip(self, run: TraceRun, j: int, p: int) -> Tuple[int, bool]:
        """Verify shift-periodicity at ``j`` and extrapolate if it holds.

        Simulates 2 periods for the probe (always exact); on success
        skips every remaining whole period.  Returns (iterations
        consumed, converged).
        """
        state = self.state
        execution = self.execution

        one = self._region_deltas(run, 1, p)
        if one is None:
            # Sub-byte per-period advance (bit-packed mask streams):
            # scale the period up to the smallest integral multiple.
            scale = 1
            for region in run.regions:
                denominator = (region.stride * p).denominator
                if denominator > 1:
                    scale = scale * denominator // math.gcd(scale, denominator)
            p = p * scale
            if run.count - j < 3 * p:
                return 0, False
            one = self._region_deltas(run, 1, p)
            if one is None:
                return 0, False

        # Three consecutive period boundaries: a raw snapshot at the
        # first anchors the moving/frozen classification, then the two
        # following boundaries' signatures — each normalised by its
        # accumulated region advance and classified against the boundary
        # before it — must agree byte for byte.
        state.fixed_regs = run.fixed_regs
        base_phase = (j * run.regs_per_iter) % REG_WINDOW
        state.refresh_stats()
        keys0 = state.stat_keys()
        raw0 = state.raw_snapshot()
        cnt0 = state.counter_vector()
        rot0 = state.rotation_vector()
        now0 = execution.last_commit

        uops_a = 0
        for k in range(p):
            __, uops = self._simulate_iteration(run, j + k)
            uops_a += uops
        state.reg_phase = (base_phase + p * run.regs_per_iter) % REG_WINDOW
        amap1 = _AddressMap(run.regions, list(one))
        state.refresh_stats()
        if state.stat_keys() != keys0:
            return p, False  # new counters appeared: not steady yet
        raw1 = state.raw_snapshot()
        sig1 = state.signature(amap1, raw0)
        cnt1 = state.counter_vector()
        rot1 = state.rotation_vector()
        now1 = execution.last_commit

        uops_b = 0
        for k in range(p):
            __, uops = self._simulate_iteration(run, j + p + k)
            uops_b += uops
        state.reg_phase = (base_phase + 2 * p * run.regs_per_iter) % REG_WINDOW
        amap2 = _AddressMap(run.regions, [2 * d for d in one])
        state.refresh_stats()
        if state.stat_keys() != keys0:
            return 2 * p, False
        sig2 = state.signature(amap2, raw1)
        cnt2 = state.counter_vector()
        rot2 = state.rotation_vector()
        now2 = execution.last_commit

        dt1 = now1 - now0
        dt2 = now2 - now1
        if sig2 != sig1 or dt1 != dt2 or uops_a != uops_b:
            return 2 * p, False
        delta_a = [b - a for a, b in zip(cnt0, cnt1)]
        delta_b = [b - a for a, b in zip(cnt1, cnt2)]
        if delta_a != delta_b:
            return 2 * p, False
        rot_a = [b - a for a, b in zip(rot0, rot1)]
        rot_b = [b - a for a, b in zip(rot1, rot2)]
        if rot_a != rot_b:
            return 2 * p, False

        # Converged.  Skip every remaining whole period.
        consumed = 2 * p
        remaining = run.count - (j + consumed)
        periods = remaining // p
        if periods <= 0:
            return consumed, False

        total = self._region_deltas(run, periods, p)
        amap_skip = _AddressMap(run.regions, total)
        plans = state.plan_tag_relabel(amap_skip)
        if plans is None:  # ambiguous LRU merge: the driver logs the failure
            return consumed, False
        pool_plans = state.plan_pool_relabel(amap_skip)
        if pool_plans is None:  # streams cross in vault space
            return consumed, False
        prefetch_plans = state.plan_prefetcher_relabel(amap_skip, raw1)
        if prefetch_plans is None:
            return consumed, False

        state.apply_tag_relabel(plans)
        state.shift(dt1 * periods, amap_skip,
                    uop_advance=uops_a * periods,
                    reg_advance=run.regs_per_iter * p * periods,
                    rotations=[advance * periods for advance in rot_a],
                    pool_plans=pool_plans,
                    prefetch_plans=prefetch_plans)
        state.add_counters(delta_a, periods)
        if run.bulk is not None:
            run.bulk(self.machine, j + consumed, j + consumed + periods * p)
        self.stats.runs_converged += 1
        self.stats.skipped_iterations += periods * p
        self.stats.skipped_uops += uops_a * periods
        return consumed + periods * p, True

    # -- the driver ---------------------------------------------------------

    def consume(self, runs) -> None:
        """Simulate/extrapolate the full run stream, one run at a time."""
        for run in runs:
            self._consume_run(run)

    def _consume_run(self, run: TraceRun) -> None:
        execution = self.execution
        count = run.count
        self._runner = KernelRunner(execution, run)
        if run.key is None or count < MIN_RUN_ITERATIONS:
            # Too short to probe: one kernel span, as on the exact path.
            self._runner.iterations(0, count)
            if run.key is not None:
                self.stats.simulated_iterations += count
            return

        self.stats.runs_seen += 1
        deltas: List[int] = []
        j = 0
        next_probe = 0
        p_floor = self._structural_period(run)
        # Long structural periods (DRAM-striding paper workloads) probe
        # directly: the probe itself is the verification, and waiting
        # for (MIN_REPEATS+1) periods of repeating commit deltas first
        # would consume most of even an SF1-scale run.  One skipped
        # period is already tens of thousands of iterations.
        # Non-structural runs keep the short scan ceiling: their commit
        # deltas are examined every iteration, and a deep candidate scan
        # over a 100 K-entry delta window would throttle exactly the
        # runs that gain nothing from replay.
        structural = p_floor >= STRUCT_PROBE_MIN
        min_skip = 1 if structural else MIN_SKIP_PERIODS
        if structural:
            # Structural probes may escalate past MAX_PERIOD (see the
            # failure handling below) up to whatever still fits the run.
            p_limit = max(MAX_PERIOD, count // (2 + min_skip))
        else:
            p_limit = SHORT_MAX_PERIOD
        if structural and count < (2 + min_skip) * p_floor:
            # The run ends before even one probe-plus-skip could fit:
            # no per-iteration bookkeeping is needed, so hand the whole
            # run to the kernel in one span (paper workloads below the
            # structural scale — e.g. the 32 K benchmark points — spend
            # their entire runtime here).
            self._runner.iterations(0, count)
            self.stats.simulated_iterations += count
            return
        failures_at_floor = 0
        probes_left = (MAX_STRUCT_PROBES_PER_RUN if structural
                       else MAX_PROBES_PER_RUN)
        start_commit = execution.last_commit
        while j < count:
            # Probing before the GRACE window, the ROB, the caches and
            # the branch history have filled with this run's steady
            # behaviour can only fail (boundary states still carry
            # start-up residue).
            warmed = execution.last_commit - start_commit >= 2 * GRACE
            if warmed and j >= next_probe and p_floor <= p_limit \
                    and probes_left > 0:
                if structural:
                    p = p_floor if j >= p_floor // 2 else None
                else:
                    p = self._find_period(deltas, p_floor, p_limit)
                if p is not None and count - j >= (2 + min_skip) * p:
                    consumed, converged = self._probe_and_skip(run, j, p)
                    if consumed:
                        j += consumed
                        deltas.clear()
                        if not converged:
                            self.stats.probes_failed += 1
                            probes_left -= 1
                            failures_at_floor += 1
                            if structural:
                                # The probe simulated two whole periods
                                # and proved the state is not p-periodic
                                # — either a draining transient (which
                                # fails at any p) or a slow oscillation
                                # whose true period is a multiple of the
                                # structural one (x86's L2/L3 conveyor
                                # phase flips sign every 32 K-iteration
                                # sweep at SF1).  Doubling catches the
                                # oscillation and still matches once a
                                # transient drains, since any multiple
                                # of the structural period keeps every
                                # stream vault/bank-aligned.
                                p_floor = p * 2
                            elif failures_at_floor >= 2:
                                # Not just warmup: deeper state cycles
                                # with a longer period than the commit
                                # deltas show — escalate the floor.
                                p_floor = p * 2
                                failures_at_floor = 0
                            next_probe = j + p
                        continue
                    next_probe = j + RETRY_BACKOFF_PERIODS * p
            delta, __ = self._simulate_iteration(run, j)
            if not structural:
                deltas.append(delta)
                if len(deltas) > (MIN_REPEATS + 1) * p_limit:
                    del deltas[: len(deltas) - (MIN_REPEATS + 1) * p_limit]
            j += 1
