"""Run-compiled kernel tests: bit-identity, shape reuse, gating knobs.

The kernels of :mod:`repro.cpu.kernel` are a *compiler*, not a model:
their single correctness property is that a compiled run body produces
exactly the timing, statistics and energy of the uncompiled
uop-by-uop path.  These tests pin that property across architectures
and paths, and pin the compilation economics (shape reuse via
synthesis, the skip of one-shot boundary shapes, the ``REPRO_KERNEL``
escape hatch).
"""

import pytest

from collections import Counter

from repro.codegen.base import ScanConfig
from repro.common.settings import setting
from repro.cpu.kernel import (
    MIN_COMPILE_BENEFIT,
    MIN_KERNEL_ITERATIONS,
    KernelRunner,
    consume_runs,
    cross_run_samples,
)
from repro.db.datagen import generate_table
from repro.db.query6 import q6_select_plan
from repro.db.workloads import selectivity_scan_plan
from repro.sim.machine import build_machine
from repro.sim.runner import _CODEGENS, build_workload, run_scan

ROWS = 8192


def _fingerprint(result):
    return (result.cycles, result.uops, result.verified, result.stats,
            result.energy.to_dict())


POINTS = [("x86", 64), ("hmc", 256), ("hive", 256), ("hipe", 256)]


@pytest.mark.parametrize("arch,op", POINTS)
@pytest.mark.parametrize("exact", [False, True])
def test_kernel_bit_identical_to_uncompiled(arch, op, exact, monkeypatch):
    scan = ScanConfig("dsm", "column", op, 1)
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    assert setting("REPRO_KERNEL")
    compiled = run_scan(arch, scan, rows=ROWS, exact=exact)
    monkeypatch.setenv("REPRO_KERNEL", "0")
    assert not setting("REPRO_KERNEL")
    uncompiled = run_scan(arch, scan, rows=ROWS, exact=exact)
    assert _fingerprint(compiled) == _fingerprint(uncompiled)


#: tuple points: groups of 1, 2 and 4 tuples; HIPE falls back to HIVE
TUPLE_POINTS = [("x86", 16), ("hmc", 16), ("hmc", 256), ("hive", 128),
                ("hipe", 64)]


@pytest.mark.parametrize("arch,op", TUPLE_POINTS)
def test_tuple_points_identical_across_paths(arch, op, monkeypatch):
    """Match-keyed tuple runs: kernel on/off x exact/replay agree.

    2053 rows is a multiple of neither the group size nor the unroll,
    so the final iteration holds a partial group.
    """
    scan = ScanConfig("nsm", "tuple", op, 3)
    fingerprints = []
    for kernel in ("1", "0"):
        monkeypatch.setenv("REPRO_KERNEL", kernel)
        for exact in (False, True):
            fingerprints.append(
                _fingerprint(run_scan(arch, scan, rows=2053, exact=exact)))
    assert fingerprints[0][2] in (None, True)
    assert all(f == fingerprints[0] for f in fingerprints[1:])


def test_tuple_scan_compiles_kernels(monkeypatch):
    """An x86-16B tuple pass runs through compiled run bodies."""
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    plan = q6_select_plan()
    data = generate_table(plan.table, 4096, 1994)
    machine = build_machine("x86")
    workload = build_workload(machine, data, "nsm", plan=plan)
    execution = machine.core.execution()
    consume_runs(execution, _CODEGENS["x86"].generate_plan_runs(
        workload, ScanConfig("nsm", "tuple", 16, 1)))
    assert execution.kernel_shapes


def _drive(arch, op, rows=ROWS, plan=None):
    """Run one exact point by hand; returns the stepping execution."""
    plan = plan or q6_select_plan()
    data = generate_table(plan.table, rows, 1994)
    machine = build_machine(arch)
    workload = build_workload(machine, data, "dsm", plan=plan)
    runs = list(_CODEGENS[arch].generate_plan_runs(
        workload, ScanConfig("dsm", "column", op, 1)))
    execution = machine.core.execution()
    for run in runs:
        KernelRunner(execution, run).iterations(0, run.count)
    return execution, runs


def test_shapes_compile_and_are_reused():
    """Each productive run shape compiles once; later runs synthesise."""
    execution, runs = _drive("x86", 64)
    shapes = execution.kernel_shapes
    assert shapes, "no run shape compiled on the paper's Q6 column scan"
    keyed_runs = [run for run in runs if run.key is not None]
    assert len(keyed_runs) > len(shapes), (
        "every run compiled its own shape: the per-shape cache is dead"
    )
    for shape in shapes.values():
        assert shape.fn is not None
        assert shape.synth_ok, (
            "a grouped codegen run should anchor to its declared regions"
        )


def test_boundary_shapes_skip_codegen():
    """Unprofitable shapes stay uncompiled (pass-tail iterations and
    fragmented stragglers must not pay Python codegen)."""
    execution, __ = _drive("x86", 64, rows=ROWS)
    pending = execution.kernel_pending
    assert pending, "expected at least one uncompiled boundary shape"
    # Compiled shapes leave the pending ledger; what remains never
    # crossed the benefit threshold with a capturable run.
    assert not set(pending) & set(execution.kernel_shapes)
    assert any(seen - 3 < MIN_COMPILE_BENEFIT for seen in pending.values())


def test_repro_kernel_disables_compilation(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "0")
    execution, __ = _drive("hmc", 256)
    assert not execution.kernel_shapes


def test_synthesised_runs_skip_capture():
    """A second run of a known shape executes compiled from iteration 0."""
    execution, runs = _drive("hive", 256)
    shapes = execution.kernel_shapes
    assert shapes
    reused = None
    for run in runs:
        if run.key in shapes and run.count >= 1:
            runner = KernelRunner(execution, run)
            if runner.instance is not None:
                reused = runner
                break
    assert reused is not None, "no run could be synthesised from its shape"
    assert reused.instance.j0 == 0


def test_fractional_stride_shapes_compile_as_super_iterations():
    """x86's 16 B scan advances its mask bitmap half a byte per op: the
    region stride is fractional, so the shape compiles as q=2 super-
    iterations — and must stay bit-identical to the uncompiled path."""
    scan = ScanConfig("dsm", "column", 16, 1)
    compiled = run_scan("x86", scan, rows=ROWS, exact=True)
    execution, __ = _drive("x86", 16)
    supers = [s for s in execution.kernel_shapes.values() if s.q > 1]
    assert supers, "no fractional-stride shape compiled with q > 1"
    assert all(s.q == 2 for s in supers)
    import os
    os.environ["REPRO_KERNEL"] = "0"
    try:
        uncompiled = run_scan("x86", scan, rows=ROWS, exact=True)
    finally:
        del os.environ["REPRO_KERNEL"]
    assert _fingerprint(compiled) == _fingerprint(uncompiled)


def test_same_structure_shapes_share_code_objects():
    """Shape-varying literals are interned as parameters, so shapes with
    the same body structure re-exec one compiled code object instead of
    paying ``compile`` each (the sweep-scaling fix)."""
    from repro.cpu.kernel import code_cache_stats

    execution, __ = _drive("x86", 16)
    n_shapes = len(execution.kernel_shapes)
    assert n_shapes > 0
    # A fresh machine re-simulating the same workload emits the same
    # sources: every shape must find its code object already cached.
    before = code_cache_stats()
    _drive("x86", 16)
    after = code_cache_stats()
    assert after["compiled"] == before["compiled"], (
        "re-simulating an identical workload paid compile() again"
    )
    assert after["shared"] - before["shared"] >= n_shapes


@pytest.mark.parametrize("arch,op", [("x86", 64), ("hmc", 256), ("hive", 256),
                                     ("hipe", 256), ("hipe", 16)])
def test_aggregate_plans_lower_to_keyed_runs(arch, op, monkeypatch):
    """Every run of a filter-then-aggregate plan carries a key, and the
    engine aggregate's loop body compiles like the scan's (at 16 B too,
    where one block cycle covers half a bitmask byte)."""
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    execution, runs = _drive(arch, op, plan=selectivity_scan_plan(0.4))
    assert all(run.key is not None for run in runs)
    assert any(run.key[0].endswith("agg") for run in runs)
    if arch == "hipe":
        assert any(key[0] == "hipeagg" for key in execution.kernel_shapes)


def test_fragmented_pass_compiles_every_promising_key(monkeypatch):
    """A key that promises MIN_COMPILE_BENEFIT iterations across its
    runs compiles, even when none of its runs is long enough to capture
    three consecutive iterations; kernels on and off agree bit for bit.
    The later passes of HIVE's 16 B unroll-1 Q6 scan split into such
    short runs at every change of the chunks' skip flags."""
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    execution, runs = _drive("hive", 16)
    totals = Counter()
    longest = Counter()
    for run in runs:
        totals[run.key] += run.count
        longest[run.key] = max(longest[run.key], run.count)
    due = [key for key, total in totals.items()
           if total >= MIN_COMPILE_BENEFIT]
    assert any(longest[key] < MIN_KERNEL_ITERATIONS for key in due), (
        "no key builds up its iterations from short runs only")
    assert all(key in execution.kernel_shapes for key in due)
    scan = ScanConfig("dsm", "column", 16, 1)
    for exact in (False, True):
        compiled = run_scan("hive", scan, rows=ROWS, exact=exact)
        monkeypatch.setenv("REPRO_KERNEL", "0")
        uncompiled = run_scan("hive", scan, rows=ROWS, exact=exact)
        monkeypatch.delenv("REPRO_KERNEL")
        assert _fingerprint(compiled) == _fingerprint(uncompiled)


def test_cross_run_samples_check_all_three_runs():
    """Iteration 0 of three runs of one key extrapolates to the run's
    next iterations exactly; an observation from another key, or one
    address off its stream, refuses."""
    __, runs = _drive("hive", 16)
    by_key = {}
    for run in runs:
        by_key.setdefault(run.key, []).append(run)
    # a later pass's key with live chunks and a run of three iterations
    key = next(k for k, rs in by_key.items()
               if k[1] > 0 and not all(k[4][0][0])
               and any(r.count >= 3 for r in rs[2:]))
    first, second = by_key[key][:2]
    third = next(r for r in by_key[key][2:] if r.count >= 3)
    other = next(rs[0] for k, rs in by_key.items()
                 if k[:2] == key[:2] and k != key)

    def observed(run):
        return (list(run.make(0)), run.regions, run.reg_base)

    def fields(uops):
        return [(u.cls, u.pc, u.srcs, u.dst, u.address, u.size, u.taken,
                 None if u.pim is None else u.pim.address) for u in uops]

    sample = list(third.make(0))
    samples = cross_run_samples(third, sample,
                                [observed(first), observed(second)])
    assert samples is not None and samples[0] is sample
    assert fields(samples[1]) == fields(third.make(1))
    assert fields(samples[2]) == fields(third.make(2))
    assert cross_run_samples(third, sample,
                             [observed(first), observed(other)]) is None
    uops, regions, reg_base = observed(second)
    next(u for u in uops if u.address).address += 1
    assert cross_run_samples(third, sample,
                             [observed(first), (uops, regions, reg_base)]) is None
    uops, regions, reg_base = observed(second)
    renamed = next(u for u in uops if u.dst is not None
                   and u.dst not in second.fixed_regs)
    renamed.dst += 1  # one register off the run's allocation phase
    assert cross_run_samples(third, sample,
                             [observed(first), (uops, regions, reg_base)]) is None
