"""Trace-driven out-of-order core timing model.

A ZSim-class analytic model: every dynamic uop gets O(1) bookkeeping that
computes its fetch, dispatch, issue, completion and commit cycles from

* front-end bandwidth (16 B fetch, one branch per fetch cycle, a fixed
  fetch-to-dispatch depth, mispredict redirects from the GAs predictor),
* the 168-entry ROB occupancy window and 6-wide issue/commit,
* register dependences (per-register ready times),
* functional-unit structural hazards (Table I pools/latencies),
* the memory-order buffer (64 read / 36 write entries) and the cache
  hierarchy for loads/stores (stores access the caches at commit),
* the PIM issue rules of the paper: PIM instructions travel the pipeline
  "in the same way as a memory load" (§III), but are issued
  *non-speculatively* — only once every older branch has resolved — in
  program order among themselves, and bounded by the memory controller's
  outstanding-request window.

The non-speculative rule is what round-trip-serialises the
tuple-at-a-time scans (the per-tuple match branch depends on the PIM
compare's result, so the next tuple's PIM op waits a full cube round
trip), while branchless column-at-a-time streams at the window limit —
the central contrast of Figures 3a vs 3b.

:class:`CoreExecution` exposes per-uop stepping, which the machine uses
to consume a run stream; :meth:`OoOCore.run` executes one flat trace.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..common.config import MachineConfig
from ..common.resources import OccupancyResource, SlottedResource
from ..common.stats import StatGroup, ratio
from .branch_predictor import TwoLevelGAs
from .functional_units import FunctionalUnits
from .isa import Uop, UopClass


class PimBackend:
    """Interface the core uses to hand PIM uops to a memory-side engine."""

    #: outstanding PIM requests the memory controller tracks at once
    max_outstanding: int = 4

    def submit(self, uop: Uop, cycle: int) -> tuple:
        """Inject ``uop`` at ``cycle``; return ``(completion, release)``.

        ``completion`` is what the uop's dependants see: the response
        arrival for value-returning instructions (compares, unlock-status
        reads), link acceptance for posted ones.  ``release`` is when the
        backend's tracking entry (controller window slot, engine
        instruction-buffer entry) frees — posted instructions may release
        long after they complete at the core, which is what lets a
        bounded buffer backpressure a core that streams faster than the
        memory side drains.
        """
        inst = uop.pim
        if inst is None:
            raise ValueError("PIM uop without an instruction payload")
        return self.submit_inst(inst, cycle)

    def submit_inst(self, inst, cycle: int) -> tuple:
        """Inject a bare instruction payload (see :meth:`submit`).

        The run-compiled kernels call this directly — a compiled body
        carries payloads, not Uop objects.
        """
        raise NotImplementedError


class CoreResult:
    """Outcome of running one trace."""

    def __init__(self, cycles: int, uops: int, stats: StatGroup) -> None:
        self.cycles = cycles
        self.uops = uops
        self.stats = stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CoreResult(cycles={self.cycles:,}, uops={self.uops:,})"


class CoreExecution:
    """Mutable pipeline state of one core; call :meth:`process` per uop."""

    def __init__(
        self,
        config: MachineConfig,
        hierarchy,
        units: FunctionalUnits,
        predictor: TwoLevelGAs,
        stats: StatGroup,
        pim_backend: Optional[PimBackend] = None,
    ) -> None:
        core = config.core
        self.core = core
        self.hierarchy = hierarchy
        self.units = units
        self.predictor = predictor
        self.stats = stats
        self.pim_backend = pim_backend

        self._fetch_slots = SlottedResource(max(1, core.fetch_bytes // core.avg_uop_bytes))
        self._branch_slots = SlottedResource(core.branches_per_fetch)
        self._issue_slots = SlottedResource(core.issue_width)
        self._commit_slots = SlottedResource(core.issue_width)
        self._mob_reads = OccupancyResource(core.mob_read_entries)
        self._mob_writes = OccupancyResource(core.mob_write_entries)
        self._pim_window = (
            OccupancyResource(pim_backend.max_outstanding)
            if pim_backend is not None
            else None
        )
        self._reg_ready: Dict[int, int] = {}
        self._rob = [0] * core.rob_entries
        # Store-to-load forwarding, keyed by exact byte address: a load
        # forwards only from a store covering its range.  (Line-granular
        # matching would fabricate dependences between different bytes
        # that happen to share a cache line — e.g. consecutive chunks'
        # bitmask bytes — and serialise the scan.)
        self._store_forward: Dict[int, tuple] = {}

        self._fetch_floor = 0
        self._branch_resolve_watermark = 0
        self._last_pim_issue = 0
        self.last_commit = 0
        self.index = 0

        #: validated run-body shapes (run key -> generated kernel); the
        #: kernel runners re-anchor these onto later runs of the same
        #: shape without materialising them (repro.cpu.kernel),
        #: ``kernel_pending`` counts iterations of not-yet-compiled
        #: shapes so one-shot boundary shapes never pay codegen, and
        #: ``kernel_samples`` keeps the first iteration of up to two
        #: earlier runs of a pending key, to compile it across its runs
        self.kernel_shapes: dict = {}
        self.kernel_pending: dict = {}
        self.kernel_samples: dict = {}

        stats.batch(self, (
            ("_n_loads", "loads"),
            ("_n_stores", "stores"),
            ("_n_branches", "branches"),
            ("_n_alu", "alu_ops"),
            ("_n_pim", "pim_ops"),
            ("_n_redirects", "redirects"),
            ("_n_forwards", "store_forwards"),
        ))

    def process(self, uop: Uop) -> int:
        """Account one uop; returns its commit cycle."""
        core = self.core
        cls = uop.cls
        rob = self._rob
        index = self.index

        # ---- front end ----
        fetch = self._fetch_slots.reserve(self._fetch_floor)
        if cls is UopClass.BRANCH:
            branch_fetch = self._branch_slots.reserve(fetch)
            if branch_fetch > fetch:
                fetch = branch_fetch
        dispatch = fetch + core.front_end_depth
        rob_slot = index % len(rob)
        if index >= len(rob) and rob[rob_slot] > dispatch:
            dispatch = rob[rob_slot]
            # ROB full: the front end stalls until the head commits, and
            # resumes from there.  Coupling the fetch floor to the ROB's
            # commit state (instead of letting fetch run arbitrarily far
            # ahead on its own bandwidth clock) keeps the fetch/commit
            # skew bounded, so a memory-bound loop's recovery schedule is
            # a pure function of the loop body.
            floor = dispatch - core.front_end_depth
            if floor > self._fetch_floor:
                self._fetch_floor = floor

        # ---- register dependences ----
        ready = dispatch
        reg_ready_get = self._reg_ready.get
        for src in uop.srcs:
            t = reg_ready_get(src, 0)
            if t > ready:
                ready = t

        # ---- issue + execute ----
        issue = ready
        if cls is UopClass.LOAD:
            issue = self._issue_slots.reserve(ready)
            issue = self._mob_reads.acquire(issue, issue)
            start, __ = self.units.execute(cls, issue)
            forwarded = self._store_forward.get(uop.address)
            if forwarded is not None and forwarded[0] >= uop.size:
                completion = max(start, forwarded[1]) + 1
                self._n_forwards += 1
            else:
                completion = self.hierarchy.load(start, uop.address, uop.size, uop.pc)
            self._mob_reads.acquire(start, completion)
            self._n_loads += 1
        elif cls is UopClass.STORE:
            issue = self._issue_slots.reserve(ready)
            start, __ = self.units.execute(cls, issue)
            completion = start + 1
            self._n_stores += 1
        elif cls is UopClass.BRANCH:
            issue = self._issue_slots.reserve(ready)
            __, completion = self.units.execute(cls, issue)
            resolve = completion
            if resolve > self._branch_resolve_watermark:
                self._branch_resolve_watermark = resolve
            if not self.predictor.update(uop.pc, uop.taken):
                redirect = resolve + core.mispredict_penalty
                if redirect > self._fetch_floor:
                    self._fetch_floor = redirect
                self._n_redirects += 1
            elif uop.taken:
                # A correctly predicted taken branch still ends the fetch
                # group; the next fetch starts the following cycle.
                if fetch + 1 > self._fetch_floor:
                    self._fetch_floor = fetch + 1
            self._n_branches += 1
        elif cls is UopClass.PIM:
            if self.pim_backend is None:
                raise RuntimeError("trace contains PIM uops but no backend is wired")
            earliest = ready
            if self._last_pim_issue > earliest:
                earliest = self._last_pim_issue
            if uop.pim is None or not uop.pim.speculative:
                # State-mutating PIM instructions issue non-speculatively.
                if self._branch_resolve_watermark > earliest:
                    earliest = self._branch_resolve_watermark
            earliest = self._issue_slots.reserve(earliest)
            window_free = self._pim_window.earliest_free(earliest)
            if window_free > earliest:
                earliest = window_free
            start, __ = self.units.execute(cls, earliest)
            completion, release = self.pim_backend.submit(uop, start)
            self._pim_window.acquire(start, release)
            self._last_pim_issue = start
            self._n_pim += 1
        elif cls is UopClass.NOP:
            issue = self._issue_slots.reserve(ready)
            completion = issue
        else:  # plain ALU classes
            issue = self._issue_slots.reserve(ready)
            __, completion = self.units.execute(cls, issue)
            self._n_alu += 1

        # ---- in-order commit ----
        commit_ready = completion if completion > self.last_commit else self.last_commit
        commit = self._commit_slots.reserve(commit_ready)
        self.last_commit = commit
        rob[rob_slot] = commit
        if cls is UopClass.STORE:
            accepted = self.hierarchy.store(commit, uop.address, uop.size, uop.pc)
            self._mob_writes.acquire(issue, accepted)
            store_forward = self._store_forward
            store_forward[uop.address] = (uop.size, completion)
            if len(store_forward) > core.mob_write_entries:
                store_forward.pop(next(iter(store_forward)))

        if uop.dst is not None:
            self._reg_ready[uop.dst] = completion
        self.index = index + 1
        return commit

    def __getstate__(self):
        # Pass-boundary checkpoints pickle the execution mid-run.  The
        # run-compiled kernel caches hold exec-generated functions that
        # cannot cross a pickle; they are pure performance memos
        # (recompiled on demand, bit-identical by contract), so a
        # restored execution simply starts with cold kernel caches.
        state = self.__dict__.copy()
        state["kernel_shapes"] = {}
        state["kernel_pending"] = {}
        state["kernel_samples"] = {}
        return state

    def result(self) -> CoreResult:
        """Finalise counters and wrap up."""
        self.stats.set("uops", self.index)
        self.stats.set("cycles", self.last_commit)
        return CoreResult(cycles=self.last_commit, uops=self.index, stats=self.stats)


class OoOCore:
    """One out-of-order core executing uop traces against a memory system."""

    def __init__(
        self,
        config: MachineConfig,
        hierarchy,
        pim_backend: Optional[PimBackend] = None,
        stats: Optional[StatGroup] = None,
    ) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.pim_backend = pim_backend
        self.stats = stats if stats is not None else StatGroup("core")
        self.stats.derive("ipc", ratio("uops", "cycles"))
        self.predictor = TwoLevelGAs(
            config.branch_predictor, self.stats.child("branch_predictor")
        )
        self.units = FunctionalUnits(config.core)

    def execution(self) -> CoreExecution:
        """A fresh stepping execution context."""
        return CoreExecution(
            self.config,
            self.hierarchy,
            self.units,
            self.predictor,
            self.stats,
            self.pim_backend,
        )

    def run(self, trace: Iterable[Uop]) -> CoreResult:
        """Execute ``trace`` to completion; returns cycles and stats."""
        execution = self.execution()
        for uop in trace:
            execution.process(uop)
        return execution.result()
