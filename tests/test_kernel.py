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

from repro.codegen.base import ScanConfig
from repro.cpu.kernel import (
    MIN_COMPILE_BENEFIT,
    KernelRunner,
    consume_runs,
    kernels_enabled,
)
from repro.db.datagen import generate_table
from repro.db.query6 import q6_select_plan
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
    assert kernels_enabled()
    compiled = run_scan(arch, scan, rows=ROWS, exact=exact)
    monkeypatch.setenv("REPRO_KERNEL", "0")
    assert not kernels_enabled()
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


def _drive(arch, op, rows=ROWS):
    """Run one exact point by hand; returns the stepping execution."""
    plan = q6_select_plan()
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
