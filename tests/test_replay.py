"""Steady-state trace replay: equivalence, convergence and the guard.

The replay layer's contract is absolute: whatever it does — fast-forward
a converged run or refuse and simulate — the :class:`RunResult` must be
bit-identical to the ``REPRO_EXACT=1`` slow path.  These tests pin that
contract across every architecture, layout and plan family, exercise
real extrapolation on genuinely periodic traces, and check that the
exactness guard refuses the aperiodic cases (data-dependent timing,
latency-bound fetch drift) instead of approximating them.
"""

from __future__ import annotations

import pytest

from repro.codegen import hipe, hive, hmc, x86
from repro.codegen.base import (
    Region,
    RegAllocator,
    ScanConfig,
    TraceRun,
    flatten_runs,
    lower_filter_runs,
    opaque_run,
)
from repro.common.settings import setting
from repro.cpu.isa import Uop, UopClass, alu, branch, load
from repro.db.datagen import generate_table
from repro.db.query6 import q6_select_plan
from repro.db.workloads import q1_style_plan, selectivity_scan_plan
from repro.sim.machine import build_machine
from repro.sim.replay import ReplayExecutor
from repro.sim.runner import build_workload, run_scan

_CODEGENS = {"x86": x86, "hmc": hmc, "hive": hive, "hipe": hipe}


def result_fingerprint(result):
    """Everything a RunResult carries, in comparable form."""
    return (
        result.cycles,
        result.uops,
        result.verified,
        result.energy.to_dict(),
        dict(result.stats),
        None if result.aggregates is None else sorted(result.aggregates.items()),
    )


# ---------------------------------------------------------------------------
# replay vs exact equivalence on the real workloads
# ---------------------------------------------------------------------------


_PLANS = {
    "q6": q6_select_plan,
    "q1_style": q1_style_plan,
    "sel_low": lambda: selectivity_scan_plan(0.05),
    "sel_high": lambda: selectivity_scan_plan(0.8),
}


@pytest.mark.parametrize("arch", ["x86", "hmc", "hive", "hipe"])
@pytest.mark.parametrize("layout,strategy", [("dsm", "column"), ("nsm", "tuple")])
@pytest.mark.parametrize("plan_name", ["q6", "q1_style", "sel_low", "sel_high"])
def test_replay_matches_exact(arch, layout, strategy, plan_name):
    """Replay-path results equal full simulation bit-for-bit."""
    plan = _PLANS[plan_name]()
    if strategy == "tuple" and plan.aggregate is not None:
        pytest.skip("aggregate lowering targets the DSM layout (ROADMAP item)")
    op = 64 if arch == "x86" else 256
    scan = ScanConfig(layout, strategy, op, 2)
    rows = 2048
    exact = run_scan(arch, scan, rows=rows, plan=plan, exact=True)
    replay = run_scan(arch, scan, rows=rows, plan=plan, exact=False)
    assert result_fingerprint(exact) == result_fingerprint(replay)


@pytest.mark.parametrize("arch,op", [("x86", 16), ("hmc", 16), ("hive", 16), ("hipe", 16)])
def test_replay_matches_exact_small_ops(arch, op):
    """Small-op column scans (fractional mask strides) stay identical."""
    scan = ScanConfig("dsm", "column", op, 1)
    exact = run_scan(arch, scan, rows=2048, exact=True)
    replay = run_scan(arch, scan, rows=2048, exact=False)
    assert result_fingerprint(exact) == result_fingerprint(replay)


# ---------------------------------------------------------------------------
# the run protocol
# ---------------------------------------------------------------------------


#: golden digests of the Q6 uop streams (1024 rows, seed 7) — pinned at
#: PR 3, byte-identical to the PR 2 lowering.  A change here means the
#: emitted trace changed, which invalidates every calibrated figure.
_GOLDEN_STREAMS = {
    ("x86", "dsm", "column", 64, 1): "dc9715cb93ae7c48",
    ("x86", "nsm", "tuple", 16, 2): "f35e266432ae7769",
    ("hmc", "dsm", "column", 256, 1): "189f51f072420e31",
    ("hive", "dsm", "column", 256, 4): "b1c087833d5eaca7",
    ("hipe", "dsm", "column", 256, 1): "1acfced95b014c7c",
    ("hive", "nsm", "tuple", 64, 1): "d0cf2f4de5a7485b",
    # pinned before the tuple scans became match-keyed runs
    ("hmc", "nsm", "tuple", 16, 1): "91df16368af60fa5",
    ("hmc", "nsm", "tuple", 256, 2): "3af567b69aecb5df",
    ("hive", "nsm", "tuple", 256, 2): "1fce6bccecaa2803",
    # pinned when the flat lowering entry points were deleted
    ("hmc", "dsm", "column", 64, 1): "4f3938baf14b1d6a",
    ("hive", "dsm", "column", 64, 1): "ec945288d096033d",
    ("hipe", "dsm", "column", 64, 1): "f65550667252f90a",
    ("hmc", "dsm", "column", 256, 4): "3e004af0fc58596c",
    ("hipe", "dsm", "column", 256, 4): "2b1744836008fb43",
}


@pytest.mark.parametrize("point", sorted(_GOLDEN_STREAMS))
def test_uop_streams_match_golden_digests(point):
    """The lowered traces are pinned: run-structuring must not drift."""
    import hashlib

    arch, layout, strategy, op, unroll = point
    plan = q6_select_plan()
    data = generate_table(plan.table, 1024, 7)
    machine = build_machine(arch)
    workload = build_workload(machine, data, layout, plan=plan)
    digest = hashlib.sha256()
    trace = _CODEGENS[arch].generate_plan_runs(
        workload, ScanConfig(layout, strategy, op, unroll)
    )
    for u in flatten_runs(trace):
        p = u.pim
        pim_t = None if p is None else (
            p.op.value, p.address, p.size, p.dst_reg, tuple(p.src_regs),
            None if p.func is None else p.func.value, p.imm_lo, p.imm_hi,
            p.lane_bytes, p.pred_reg, p.pred_expect, p.returns_value,
            p.compound, p.tuple_stride,
        )
        digest.update(repr((u.cls.value, u.pc, tuple(u.srcs), u.dst,
                            u.address, u.size, u.taken, pim_t)).encode())
    assert digest.hexdigest()[:16] == _GOLDEN_STREAMS[point]


_GROUPING_SCANS = [
    ("dsm", "column", 16, 1), ("dsm", "column", 64, 1),
    ("dsm", "column", 64, 4), ("nsm", "tuple", 16, 2),
    ("nsm", "tuple", 64, 1),
]


@pytest.mark.parametrize("scan", _GROUPING_SCANS, ids=lambda s: "-".join(map(str, s)))
@pytest.mark.parametrize("plan_name", ["q6", "sel_0.4"])
@pytest.mark.parametrize("arch,partial", [
    ("x86", False), ("hmc", False), ("hive", False), ("hipe", False),
    ("hipe", True),
])
def test_run_grouping_is_maximal_and_uniform(arch, partial, plan_name, scan):
    """Runs are maximal (neighbours differ) and uniform (alike at both ends).

    4 099 rows leave a partial last chunk and tuple group.  The runs
    are consumed in stream order: a codegen's closures may bind its
    pass state late.
    """
    plan = (q6_select_plan() if plan_name == "q6"
            else selectivity_scan_plan(0.4))
    layout = scan[0]
    machine = build_machine(arch)
    workload = build_workload(
        machine, generate_table(plan.table, 4099, 7), layout, plan=plan)
    workload.partial_lanes = partial

    def shape(run, j):
        return [(u.cls, u.pc, u.taken, u.size if u.pim is None else u.pim.size)
                for u in run.make(j)]

    previous = None
    runs = 0
    for run in lower_filter_runs(_CODEGENS[arch], workload, ScanConfig(*scan)):
        runs += 1
        if previous is not None and previous.family == run.family:
            assert previous.key != run.key
        if run.count > 1:
            assert shape(run, 0) == shape(run, run.count - 1), run.key[:4]
        previous = run
    assert runs > 1


@pytest.mark.parametrize("layout,strategy,op", [
    ("dsm", "column", 16), ("dsm", "column", 256),
    ("nsm", "tuple", 16), ("nsm", "tuple", 256),
])
def test_hmc_bulk_logs_what_simulation_logs(layout, strategy, op):
    """A replayed span's masks come from memory, like simulated ones.

    Each run's bulk hook, called on a span, must leave exactly the
    load-compare masks that simulating the same iterations leaves.
    """
    plan = q6_select_plan()
    data = generate_table(plan.table, 4099, 7)  # a partial last chunk/group
    scan = ScanConfig(layout, strategy, op, 2)
    skipped, simulated = build_machine("hmc"), build_machine("hmc")
    runs = lower_filter_runs(
        hmc, build_workload(skipped, data, layout, plan=plan), scan)
    execution = simulated.core.execution()
    build_workload(simulated, data, layout, plan=plan)
    for run in runs:
        j0 = run.count // 3
        run.bulk(skipped, j0, run.count)
        for j in range(j0, run.count):
            for uop in run.make(j):
                execution.process(uop)
    bulk_bytes, bulk_widths = skipped.backend.mask_table()
    sim_bytes, sim_widths = simulated.backend.mask_table()
    assert bulk_widths.size > 0
    assert bulk_widths.tolist() == sim_widths.tolist()
    assert bulk_bytes.tolist() == sim_bytes.tolist()


def test_run_make_reseats_registers():
    """make(j) yields identical uops regardless of materialisation order."""
    plan = q6_select_plan()
    data = generate_table(plan.table, 2048, 7)
    machine = build_machine("x86")
    workload = build_workload(machine, data, "dsm", plan=plan)
    runs = [r for r in x86.column_runs(workload, ScanConfig("dsm", "column", 64, 1))
            if r.count > 4]
    run = runs[0]
    later = [(u.cls, u.pc, u.srcs, u.dst, u.address) for u in run.make(3)]
    again = [(u.cls, u.pc, u.srcs, u.dst, u.address) for u in run.make(3)]
    assert later == again  # deterministic under repeated/out-of-order calls


def test_region_strides_are_exact_fractions():
    """Bit-packed mask streams advance by sub-byte per-iteration strides."""
    plan = q6_select_plan()
    data = generate_table(plan.table, 2048, 7)
    machine = build_machine("x86")
    workload = build_workload(machine, data, "dsm", plan=plan)
    run = next(iter(x86.column_runs(workload, ScanConfig("dsm", "column", 16, 1))))
    mask_region = run.regions[-1]
    assert mask_region.stride.denominator == 2  # 4 rows/chunk = half a byte


def test_opaque_run_consumes_once():
    source = iter([alu(1, srcs=(), dst=100)])
    run = opaque_run(source)
    assert run.key is None and run.count == 1
    assert len(list(run.make(0))) == 1


def test_reg_allocator_seek():
    regs = RegAllocator()
    a = [regs.new() for _ in range(5)]
    regs.seek(0)
    b = [regs.new() for _ in range(5)]
    assert a == b
    assert regs.counter == 5


# ---------------------------------------------------------------------------
# real extrapolation on periodic traces; refusal on aperiodic ones
# ---------------------------------------------------------------------------


#: the synthetic loops' declared address stream: 8 B per iteration, so a
#: structural period of 512 iterations on the reduced cube (8 vaults x 2
#: banks x 256 B).  The loops touch no memory; the region only gives
#: them the structural period a scan streaming through the cube has.
_LOOP_COUNT = 3000
_STREAM = (Region(0x100000, 0x100000 + 8 * _LOOP_COUNT, 8),)


def _fetch_bound_runs(regions=_STREAM):
    """A fetch-bound loop: uop flow rates match, state is shift-periodic."""

    def make(j):
        for k in range(11):
            yield Uop(UopClass.NOP, 0x2000 + k)
        yield branch(0x2010, taken=True, srcs=())

    return [TraceRun(key=("synthetic", "fetchbound"), count=_LOOP_COUNT,
                     make=make, regions=regions)]


def _fixed_reg_runs():
    """A steady loop keeping a loop-invariant register live: the run
    declares it via ``fixed_regs`` so the phase relabelling leaves it
    alone (regression: fixed ids used to block convergence outright)."""

    def make(j):
        yield alu(0x1FFF, srcs=(100,), dst=100)  # the induction register
        for k in range(9):
            yield Uop(UopClass.NOP, 0x2000 + k)
        yield branch(0x2010, taken=True, srcs=(100,))

    return [TraceRun(key=("synthetic", "fixedreg"), count=_LOOP_COUNT,
                     make=make, regs_per_iter=1, fixed_regs=(100,),
                     regions=_STREAM)]


def _latency_bound_runs():
    """A dependent ALU chain.  Before PR 4 the fetch clock ran ahead of
    commit without bound here, so the state never recurred; with the
    fetch floor coupled to ROB commit state the skew is bounded by
    construction and the loop converges."""

    def make(j):
        reg = 100 + (j % 4096)
        for k in range(11):
            yield alu(0x2000 + k, srcs=(reg,), dst=reg)
        yield branch(0x2010, taken=True, srcs=(reg,))

    return [TraceRun(key=("synthetic", "chain"), count=_LOOP_COUNT,
                     make=make, regs_per_iter=1, regions=_STREAM)]


def _aperiodic_branch_runs():
    """A data-dependent branch following the Thue-Morse sequence: the
    taken pattern never repeats, the predictor state never recurs, and
    the guard must refuse — there is no period to extrapolate."""

    def make(j):
        taken = bool(bin(j).count("1") % 2)  # Thue-Morse: aperiodic
        for k in range(7):
            yield Uop(UopClass.NOP, 0x2000 + k)
        yield branch(0x2010, taken=taken, srcs=())

    return [TraceRun(key=("synthetic", "thue-morse"), count=_LOOP_COUNT,
                     make=make, regions=_STREAM)]


def _run_both(make_runs):
    """Exact (uop by uop) and replayed runs on the reduced-cube x86."""
    from repro.common.config import reduced_cube_config

    config = reduced_cube_config("x86")
    m1 = build_machine("x86", config=config)
    ex1 = m1.core.execution()
    for run in make_runs():
        for j in range(run.count):
            for u in run.make(j):
                ex1.process(u)
    r1 = ex1.result()
    m2 = build_machine("x86", config=config)
    ex2 = m2.core.execution()
    executor = ReplayExecutor(m2, ex2)
    executor.consume(make_runs())
    r2 = ex2.result()
    return r1, m1.stats.flatten(), r2, m2.stats.flatten(), executor.stats


def test_replay_extrapolates_periodic_loop():
    r1, s1, r2, s2, stats = _run_both(_fetch_bound_runs)
    assert (stats.runs_converged, stats.skipped_iterations) == (1, 1024)
    assert (r1.cycles, r1.uops) == (r2.cycles, r2.uops)
    assert s1 == s2  # every counter identical, not just the cycle count


def test_replay_extrapolates_with_fixed_register():
    r1, s1, r2, s2, stats = _run_both(_fixed_reg_runs)
    assert (stats.runs_converged, stats.skipped_iterations) == (1, 1024)
    assert (r1.cycles, r1.uops) == (r2.cycles, r2.uops)
    assert s1 == s2


def test_replay_extrapolates_latency_chain():
    """ROB-coupled fetch floor: the dependent chain's fetch/commit skew
    is bounded, so the loop is shift-periodic and replay engages."""
    r1, s1, r2, s2, stats = _run_both(_latency_bound_runs)
    assert (stats.runs_converged, stats.skipped_iterations) == (1, 1536)
    assert (r1.cycles, r1.uops) == (r2.cycles, r2.uops)
    assert s1 == s2


def test_replay_guard_refuses_aperiodic_branches():
    r1, s1, r2, s2, stats = _run_both(_aperiodic_branch_runs)
    assert stats.probes_failed >= 1  # a probe ran and refused
    assert stats.runs_converged == 0  # no period exists to verify
    assert (r1.cycles, r1.uops) == (r2.cycles, r2.uops)
    assert s1 == s2


def _count_signatures(monkeypatch):
    """Count ``_MachineState.signature`` calls for the rest of a test."""
    from repro.sim import replay

    signature = replay._MachineState.signature
    calls = [0]

    def counted(self, *args):
        calls[0] += 1
        return signature(self, *args)

    monkeypatch.setattr(replay._MachineState, "signature", counted)
    return calls


def test_replay_never_probes_a_regionless_loop(monkeypatch):
    """A loop that declares no address stream has no structural period:
    however periodic it is, replay takes no signature, skips nothing and
    matches the exact path."""
    calls = _count_signatures(monkeypatch)
    r1, s1, r2, s2, stats = _run_both(lambda: _fetch_bound_runs(regions=()))
    assert calls[0] == 0
    assert stats.runs_converged == 0
    assert stats.simulated_iterations == _LOOP_COUNT
    assert (r1.cycles, r1.uops) == (r2.cycles, r2.uops)
    assert s1 == s2


# ---------------------------------------------------------------------------
# the counter registry: the stats tree declares every batched counter
# ---------------------------------------------------------------------------


def _short_point(arch):
    """A machine and its execution after a short Q6 column point."""
    plan = q6_select_plan()
    data = generate_table(plan.table, 2048, 1994)
    machine = build_machine(arch)
    workload = build_workload(machine, data, "dsm", plan=plan)
    execution = machine.core.execution()
    op = 64 if arch == "x86" else 256
    ReplayExecutor(machine, execution).consume(
        _CODEGENS[arch].generate_plan_runs(
            workload, ScanConfig("dsm", "column", op)))
    return machine, execution


@pytest.mark.parametrize("arch", ["x86", "hmc", "hive", "hipe"])
def test_every_batched_counter_is_declared(arch):
    """Every ``_n_*`` attribute of a hot component is a cell the stats
    tree declares (``StatGroup.batch``), so replay extrapolates it: a
    counter that skips the declaration fails here instead of silently
    escaping replay."""
    from repro.sim.replay import _MachineState

    machine, execution = _short_point(arch)
    hierarchy = machine.hierarchy
    owners = [execution, hierarchy, hierarchy.l1, hierarchy.l2,
              hierarchy.l3, machine.core.predictor, machine.hmc]
    if machine.engine is not None:
        owners += [machine.engine, machine.engine.registers]
    if machine.backend is not None:
        owners.append(machine.backend)
    declared = {(id(cells), key) for cells, key
                in _MachineState(machine, execution).batched_cells}
    batched = 0
    for owner in owners:
        for name, value in vars(owner).items():
            if not name.startswith("_n_"):
                continue
            if isinstance(value, list):
                cells = {(id(value), index) for index in range(len(value))}
            else:
                cells = {(id(vars(owner)), name)}
            assert cells <= declared, \
                f"{type(owner).__name__}.{name} is not declared"
            batched += len(cells)
    assert batched == len(declared)


@pytest.mark.parametrize("arch", ["x86", "hmc", "hive", "hipe"])
def test_counter_names_match_the_counter_vector(arch):
    """One dotted stats-tree name per extrapolated counter cell."""
    from repro.sim.replay import _MachineState

    machine, execution = _short_point(arch)
    machine.stats.flatten()  # fold the batched cells into the tree
    machine.hmc.collect_stats()
    state = _MachineState(machine, execution)
    names = state.counter_names()
    assert len(names) == len(state.counter_vector())
    counters = {name for name in machine.stats.flatten()
                if not name.endswith(("hit_ratio", "ipc", "accuracy"))}
    assert counters <= set(names)
    assert f"{arch}.caches.l2.misses" in names
    assert f"{arch}.hmc.row_activations" in names


def test_counter_refusal_names_the_counter(monkeypatch):
    """A counter whose per-period delta changes refuses every probe of
    an otherwise periodic loop, and the refusal names it."""
    from repro.common.config import reduced_cube_config

    machine = build_machine("x86", config=reduced_cube_config("x86"))
    ticker = type("Ticker", (), {})()
    machine.stats.child("ticker").batch(ticker, (("_n_ticks", "ticks"),))
    spans = []
    reasons = []
    simulate = ReplayExecutor._simulate
    probe = ReplayExecutor._probe_and_skip

    def ticking(self, jlo, jhi):
        spans.append(jhi - jlo)
        ticker._n_ticks += len(spans)  # a growing count per span
        return simulate(self, jlo, jhi)

    def logged(self, run, j, p):
        consumed, refusal = probe(self, run, j, p)
        reasons.append(refusal)
        return consumed, refusal

    monkeypatch.setattr(ReplayExecutor, "_simulate", ticking)
    monkeypatch.setattr(ReplayExecutor, "_probe_and_skip", logged)
    executor = ReplayExecutor(machine, machine.core.execution())
    executor.consume(_fetch_bound_runs())
    assert reasons
    assert set(reasons) == {"counter deltas differ: x86.ticker.ticks"}
    assert executor.stats.runs_converged == 0


# ---------------------------------------------------------------------------
# periodic-by-construction schedulers (PR 4)
# ---------------------------------------------------------------------------


def test_round_robin_lane_assignment():
    """Link lanes rotate deterministically: packet k rides lane k mod n,
    even when another lane is idle — the pinned scheduler contract the
    replay layer's rotation algebra depends on."""
    from repro.common.resources import MultiChannelBandwidth

    pool = MultiChannelBandwidth(4, 2.0)
    grants = [pool.transfer(0, 4) for _ in range(6)]
    # Lane 0 gets packets 0 and 4, lane 1 gets 1 and 5, etc.
    assert grants == [(0, 2), (0, 2), (0, 2), (0, 2), (2, 4), (2, 4)]
    assert pool.cursor == 6
    assert [ch.bytes_moved for ch in pool.channels] == [8, 8, 4, 4]
    # An earliest-free scheduler would give the late packet to lane 2;
    # round-robin makes it wait for its assigned lane.
    late = pool.transfer(0, 4)
    assert late == (2, 4)  # lane 2's second slot, not lane 2 at cycle 0


def test_round_robin_unit_pool():
    from repro.common.resources import UnitPool

    pool = UnitPool(3)
    starts = [pool.occupy(0, 5)[0] for _ in range(6)]
    assert starts == [0, 0, 0, 5, 5, 5]  # strict rotation, no stealing
    assert pool.cursor == 6


def test_bandwidth_resource_public_next_free():
    """MultiChannelBandwidth no longer reaches into _next_free; the
    public property is the supported view of a pipe's availability."""
    from repro.common.resources import BandwidthResource

    pipe = BandwidthResource(4.0)
    __, end = pipe.transfer(3, 8, address=0x1234)
    assert pipe.next_free == end
    assert pipe.last_address == 0x1234


def test_vault_servers_track_last_address():
    from repro.common.config import HmcConfig
    from repro.memory.vault import Vault

    vault = Vault(0, HmcConfig())
    vault.access_times(0, bank=2, nbytes=64, is_write=False, address=0xABC0)
    assert vault._command_queue.last_address == 0xABC0
    assert vault.banks[2]._resource.last_address == 0xABC0
    assert vault._data_bus.last_address == 0xABC0


# ---------------------------------------------------------------------------
# engagement on the paper workloads (reduced-interleave cube)
# ---------------------------------------------------------------------------


def _engagement_point(arch, op, rows, plan=None, data=None, config=None,
                      unroll=1):
    """Replay vs exact on one column point (reduced cube by default)."""
    from repro.common.config import reduced_cube_config

    scan = ScanConfig("dsm", "column", op, unroll)
    if config is None:
        config = reduced_cube_config(arch)
    replayed = run_scan(arch, scan, rows=rows, data=data, plan=plan,
                        config=config, exact=False)
    exact = run_scan(arch, scan, rows=rows, data=data, plan=plan,
                     config=config, exact=True)
    assert result_fingerprint(replayed) == result_fingerprint(exact)
    return replayed.replay


def _engagement(stats):
    return (stats.runs_converged, stats.skipped_iterations,
            stats.simulated_iterations, stats.probes_failed)


def test_replay_engages_hive_q6_reduced_cube(monkeypatch):
    """The full pipeline — round-robin lanes, vault relabelling, tag
    conveyor — engages on the paper's Q6 for HIVE, bit-identically:
    pass 0 converges at its first probe, pass 1 refuses one.  The
    uncompiled path (``REPRO_KERNEL=0``) replays the same spans to the
    same result."""
    from repro.common.config import reduced_cube_config

    scan = ScanConfig("dsm", "column", 256, 1)
    config = reduced_cube_config("hive")
    exact = run_scan("hive", scan, rows=262_144, config=config, exact=True)
    for kernel in ("1", "0"):
        monkeypatch.setenv("REPRO_KERNEL", kernel)
        replayed = run_scan("hive", scan, rows=262_144, config=config,
                            exact=False)
        assert result_fingerprint(replayed) == result_fingerprint(exact)
        assert _engagement(replayed.replay) == (1, 2_560, 9_728, 1)


def test_replay_engages_hipe_selectivity_reduced_cube():
    """HIPE engages when the predicate stream is uniform (a single
    predicate leaves predication nothing to squash)."""
    from repro.db.workloads import selectivity_scan_plan

    stats = _engagement_point("hipe", 256, 262_144,
                              plan=selectivity_scan_plan(0.4))
    assert _engagement(stats) == (1, 2_560, 1_536, 0)


def test_replay_engages_unrolled_hive_at_a_short_period():
    """Unrolling shortens the structural period (HIVE at unroll 8 on the
    reduced cube: 8 iterations), and the probe still sits there: each of
    the three passes converges at its first probe, bit-identically."""
    stats = _engagement_point("hive", 256, 262_144, unroll=8)
    assert _engagement(stats) == (3, 120, 72, 0)


def test_replay_guards_hipe_q6_squashes():
    """HIPE's Q6 predicated-load squashes are data-positional: the
    codegen splits runs at squashing chunks, so the replay layer must
    refuse (the squash pattern never repeats) and stay bit-identical."""
    stats = _engagement_point("hipe", 256, 131_072)
    assert stats.runs_converged == 0  # aperiodic predicate stream


def test_hipe_run_keys_carry_squash_flags():
    """Iterations whose chunks squash a predicated load lower to a
    different run shape than squash-free iterations."""
    plan = q6_select_plan()
    data = generate_table(plan.table, 65_536, 1994)
    machine = build_machine("hipe")
    workload = build_workload(machine, data, "dsm", plan=plan)
    runs = [r for r in hipe.column_runs(workload, ScanConfig("dsm", "column", 256, 1))]
    assert len(runs) > 1  # Q6's conjunction dies on some 64-row chunks
    # Each key embeds the per-chunk squash flags per predicated level.
    shapes = {r.key[3] for r in runs if r.key is not None}
    assert len(shapes) > 1


def test_replay_env_escape_hatch(monkeypatch):
    monkeypatch.setenv("REPRO_EXACT", "1")
    assert setting("REPRO_EXACT")
    monkeypatch.delenv("REPRO_EXACT")
    assert not setting("REPRO_EXACT")


# ---------------------------------------------------------------------------
# result-cache keying: replayed and exact runs share entries
# ---------------------------------------------------------------------------


def test_replay_and_exact_share_cache_key(tmp_path, monkeypatch):
    from repro.sim.engine import ExperimentEngine, TIMING_MODEL_DIRS, code_digest
    from pathlib import Path

    # The replay layer must live inside the timing-model code digest, so
    # editing it invalidates cached results automatically.
    assert "sim" in TIMING_MODEL_DIRS
    assert (Path(__file__).parent.parent / "src/repro/sim/replay.py").exists()
    assert code_digest()  # computable

    scan = ScanConfig("dsm", "column", 256, 4)
    engine = ExperimentEngine(jobs=1, cache_dir=tmp_path, use_cache=True)
    first = engine.run_point("hive", scan, rows=1024)
    assert engine.cache_misses == 1
    # The exact path must hit the entry the (possibly replayed) run wrote.
    monkeypatch.setenv("REPRO_EXACT", "1")
    second = engine.run_point("hive", scan, rows=1024)
    assert engine.cache_hits == 1
    assert result_fingerprint(first) == result_fingerprint(second)


# ---------------------------------------------------------------------------
# the per-run exact tri-state: explicit arguments beat the environment
# ---------------------------------------------------------------------------


def test_exact_argument_overrides_env_both_directions(monkeypatch):
    scan = ScanConfig("dsm", "column", 256, 1)
    # REPRO_EXACT=1 forces the slow path by default...
    monkeypatch.setenv("REPRO_EXACT", "1")
    defaulted = run_scan("hive", scan, rows=1024)
    assert defaulted.replay is None
    # ...but an explicit exact=False wins and takes the replay path.
    forced_replay = run_scan("hive", scan, rows=1024, exact=False)
    assert forced_replay.replay is not None
    monkeypatch.delenv("REPRO_EXACT")
    # With replay on by default, an explicit exact=True still wins.
    forced_exact = run_scan("hive", scan, rows=1024, exact=True)
    assert forced_exact.replay is None
    assert result_fingerprint(forced_replay) == result_fingerprint(forced_exact)


# ---------------------------------------------------------------------------
# data-fragmented passes: short keyed runs simulate, bit-identically
# ---------------------------------------------------------------------------
#
# Skip and squash flags split a pass into keyed runs far shorter than a
# structural period.  Replay must leave them to the compiled kernels:
# no convergence and a result bit-identical to the exact path.


@pytest.mark.parametrize("arch,op", [("x86", 64), ("hmc", 256),
                                     ("hive", 256), ("hipe", 256)])
@pytest.mark.parametrize("plan_name", ["q6", "sel"])
def test_fragment_bit_identity_reduced_cube(arch, op, plan_name):
    """Fragmented Q6 and selectivity passes on each arch: replay
    converges nowhere at 32 K rows and stays bit-identical."""
    plan = q6_select_plan() if plan_name == "q6" else selectivity_scan_plan(0.2)
    stats = _engagement_point(arch, op, 32_768, plan=plan)
    assert stats.runs_converged == 0


@pytest.mark.parametrize("arch,op", [("x86", 64), ("hmc", 256),
                                     ("hive", 256), ("hipe", 256)])
def test_replay_signs_nothing_on_32k_q6(arch, op, monkeypatch):
    """No run of a 32 K-row Q6 column point on the standard machines
    holds a structural probe, so replay takes no machine-state
    signature at all and matches the exact path."""
    calls = _count_signatures(monkeypatch)
    scan = ScanConfig("dsm", "column", op, 1)
    replayed = run_scan(arch, scan, rows=32_768, exact=False)
    assert calls[0] == 0
    exact = run_scan(arch, scan, rows=32_768, exact=True)
    assert result_fingerprint(replayed) == result_fingerprint(exact)


def test_fragment_thue_morse_aperiodic_guard():
    """An aperiodic (Thue-Morse) chunk-squash pattern: squash flags
    recur but never periodically, so nothing converges and the result
    stays bit-identical."""
    import numpy as np

    from repro.db.datagen import Q6_SHIPDATE_HI, Q6_SHIPDATE_LO

    plan = q6_select_plan()
    rows, chunk = 65_536, 64
    data = generate_table(plan.table, rows, 1994)
    n_chunks = rows // chunk
    # tm[c] = parity of popcount(c): the canonical aperiodic 0/1 sequence
    tm = np.array([bin(c).count("1") & 1 for c in range(n_chunks)], dtype=bool)
    shipdate = np.where(np.repeat(tm, chunk),
                        Q6_SHIPDATE_HI + 30,  # whole chunk fails -> squash
                        Q6_SHIPDATE_LO)       # whole chunk passes
    data.columns["l_shipdate"] = shipdate.astype(
        data.columns["l_shipdate"].dtype)
    stats = _engagement_point("hipe", 256, rows, plan=plan, data=data)
    assert stats.runs_converged == 0  # nothing about this trace is periodic


def test_fragment_partial_loads_bit_identity():
    """partial_predicated_loads no longer bypasses replay: the run key
    carries per-chunk matched-lane counts, so the replay path sees the
    full timing shape and stays bit-identical."""
    from dataclasses import replace

    from repro.common.config import hipe_logic_config, reduced_cube_config

    config = replace(reduced_cube_config("hipe"),
                     pim=replace(hipe_logic_config(),
                                 partial_predicated_loads=True))
    stats = _engagement_point("hipe", 256, 32_768, config=config)
    assert stats is not None  # the replay path actually ran
    assert stats.runs_converged == 0
