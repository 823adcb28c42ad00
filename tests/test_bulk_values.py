"""The HIVE/HIPE engines time instructions at issue and compute their
values later, in bulk (:mod:`repro.pim.evaluator`).

When the log is evaluated must never matter: a slice bound of one op —
every op on its own, one iteration at a time — leaves the same memory
image, register file and statistics as the default bound, whose loop
bodies run as batches.  Verification must read what the engine itself
computed, on the exact path and for the iterations the replay layer
skips.  And a snapshot taken while the log still holds ops resumes
bit-identically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codegen import hipe, hive
from repro.codegen.base import ScanConfig
from repro.common.config import reduced_cube_config
from repro.cpu.isa import AluFunc
from repro.db.datagen import LINEITEM_Q6_SCHEMA, generate_table
from repro.db.plan import Filter, Predicate, QueryPlan, Scan
from repro.db.query6 import q6_revenue_plan, q6_select_plan
from repro.db.workloads import q1_style_plan, selectivity_scan_plan
from repro.pim import evaluator, ops
from repro.pim import hive as hive_engine
from repro.sim.checkpoint import CheckpointStore, RunMonitor
from repro.sim.machine import build_machine
from repro.sim.runner import build_workload, run_scan

ROWS = 8193
_CODEGENS = {"hive": hive, "hipe": hipe}
_PLANS = {
    "q6": q6_select_plan,
    "q6_revenue": q6_revenue_plan,
    "q1_style": q1_style_plan,
    "sel_0.4": lambda: selectivity_scan_plan(0.4),
}

#: (arch, layout, strategy, op bytes, unroll, plan): column, tuple and
#: aggregate points at unroll 1, 4 and 32, HIPE's predicated Q6 among them
POINTS = [
    ("hive", "dsm", "column", 256, 1, "q6"),
    ("hive", "dsm", "column", 16, 4, "q6"),
    ("hive", "dsm", "column", 64, 32, "q6"),
    ("hipe", "dsm", "column", 256, 1, "q6"),
    ("hipe", "dsm", "column", 16, 32, "q6"),
    ("hipe", "dsm", "column", 256, 4, "sel_0.4"),
    ("hive", "nsm", "tuple", 16, 1, "q6"),
    ("hive", "nsm", "tuple", 256, 4, "q6"),
    ("hipe", "nsm", "tuple", 64, 1, "q6"),
    ("hive", "dsm", "column", 256, 1, "q6_revenue"),
    ("hipe", "dsm", "column", 64, 4, "q6_revenue"),
    ("hive", "dsm", "column", 16, 32, "q1_style"),
    ("hipe", "dsm", "column", 256, 1, "q1_style"),
]
#: points whose every load is predicated on the previous compare: each
#: predicated load evaluates the log, so no loop body is left to batch
_EAGER = {("hipe", "column", "q6"), ("hipe", "column", "q6_revenue")}


def _simulate(arch, layout, strategy, op, unroll, plan_name):
    plan = _PLANS[plan_name]()
    data = generate_table(plan.table, ROWS, 7)
    machine = build_machine(arch)
    workload = build_workload(machine, data, layout, plan=plan)
    runs = _CODEGENS[arch].generate_plan_runs(
        workload, ScanConfig(layout, strategy, op, unroll))
    machine.run_runs(runs, exact=True)
    return machine


def _state(machine):
    """Everything the engine's values reach: the writable image bytes,
    the register file, the statistics and the UNLOCK readouts."""
    engine = machine.engine
    image = [(alloc.name, alloc.data.tobytes())
             for alloc in machine.image._allocs if not alloc.frozen]
    registers = [(r.value.tobytes(), r.lane_match.tobytes(), r.ready)
                 for r in engine.registers]
    return (image, registers, machine.stats.flatten(),
            engine.unlock_flags().tobytes())


def _widest_batch(monkeypatch):
    """Record the most iterations any evaluation ran as one batch."""
    widest = [0]
    batch = evaluator.Evaluator._batch

    def spy(self, body, addresses, accumulators):
        widest[0] = max(widest[0], addresses.shape[0])
        return batch(self, body, addresses, accumulators)

    monkeypatch.setattr(evaluator.Evaluator, "_batch", spy)
    return widest


@pytest.mark.parametrize("point", POINTS, ids=lambda p: "-".join(map(str, p)))
def test_slice_bound_does_not_change_results(point, monkeypatch):
    widest = _widest_batch(monkeypatch)
    batched = _state(_simulate(*point))
    # the default bound evaluates loop bodies in bulk
    assert (widest[0] > 1) is ((point[0], point[2], point[5]) not in _EAGER)
    monkeypatch.setattr(hive_engine, "VALUE_SLICE_OPS", 1)
    widest[0] = 0
    one_by_one = _state(_simulate(*point))
    assert widest[0] == 0
    assert one_by_one == batched


def _inverted(compare_flags):
    def perturbed(func, lanes, lo, hi=0):
        return ~compare_flags(func, lanes, lo, hi)
    return perturbed


@pytest.mark.parametrize("arch,scan", [
    ("hive", ScanConfig("dsm", "column", 256, 1)),
    ("hive", ScanConfig("nsm", "tuple", 16, 1)),
    ("hipe", ScanConfig("dsm", "column", 256, 1)),
])
@pytest.mark.parametrize("exact", [True, False])
def test_a_wrong_compare_fails_verification(arch, scan, exact, monkeypatch):
    assert run_scan(arch, scan, rows=ROWS, exact=exact).verified is True
    monkeypatch.setattr(ops, "compare_flags", _inverted(ops.compare_flags))
    assert run_scan(arch, scan, rows=ROWS, exact=exact).verified is False


def _wrong_in_skipped_iterations(monkeypatch):
    """Invert the compares of the iterations replay skips, only."""
    log_iterations = hive_engine.HiveEngine.log_iterations
    right = ops.compare_flags

    def perturbed(self, insts, regions, count):
        self.settle()  # the simulated iterations before them stay right
        monkeypatch.setattr(ops, "compare_flags", _inverted(right))
        try:
            log_iterations(self, insts, regions, count)
        finally:
            monkeypatch.setattr(ops, "compare_flags", right)

    monkeypatch.setattr(hive_engine.HiveEngine, "log_iterations", perturbed)


@pytest.mark.parametrize("arch,scan,rows,plan", [
    ("hive", ScanConfig("dsm", "column", 256, 8), 262_144, q6_select_plan),
    ("hipe", ScanConfig("dsm", "column", 256, 1), 262_144,
     lambda: selectivity_scan_plan(0.4)),
])
def test_verification_reads_the_iterations_replay_skips(arch, scan, rows,
                                                        plan, monkeypatch):
    """The replay bulk hooks hand the skipped iterations to the engine,
    so their masks are the engine's own: a compare that goes wrong only
    there fails verification on the replay path and nowhere else."""
    config = reduced_cube_config(arch)
    _wrong_in_skipped_iterations(monkeypatch)
    replayed = run_scan(arch, scan, rows=rows, config=config, plan=plan(),
                        exact=False)
    assert replayed.replay.skipped_iterations > 0
    assert replayed.verified is False
    exact = run_scan(arch, scan, rows=rows, config=config, plan=plan(),
                     exact=True)
    assert exact.verified is True


def test_replay_skips_tuple_groups_and_verifies_them(monkeypatch):
    """HIVE tuple runs hand the groups replay skips to the engine too:
    with no matching tuple the scan is one long run that replay
    fast-forwards, and each skipped group's compare result is checked."""
    scan = ScanConfig("nsm", "tuple", 256, 1)
    plan = QueryPlan("no_match", (
        Scan(LINEITEM_Q6_SCHEMA),
        Filter((Predicate("l_quantity", AluFunc.CMP_LT, 0),)),
    ))
    config = reduced_cube_config("hive")
    replayed = run_scan("hive", scan, rows=65_536, config=config, plan=plan,
                        exact=False)
    exact = run_scan("hive", scan, rows=65_536, config=config, plan=plan,
                     exact=True)
    assert replayed.replay.skipped_iterations > 0
    assert replayed.verified is True
    assert (replayed.cycles, replayed.stats) == (exact.cycles, exact.stats)
    _wrong_in_skipped_iterations(monkeypatch)
    assert run_scan("hive", scan, rows=65_536, config=config, plan=plan,
                    exact=False).verified is False


def test_snapshot_with_a_pending_log_resumes_bit_identically(tmp_path,
                                                             monkeypatch):
    scan = ScanConfig("dsm", "column", 256, 1)
    reference = run_scan("hive", scan, rows=ROWS, seed=1994).to_dict()
    pending = []
    save = CheckpointStore.save

    def spy(self, key, machine, execution, *args, **kwargs):
        pending.append(len(machine.engine._log_insts))
        return save(self, key, machine, execution, *args, **kwargs)

    monkeypatch.setattr(CheckpointStore, "save", spy)

    class Interrupt(RuntimeError):
        pass

    def bomb(pass_ordinal):
        raise Interrupt(pass_ordinal)

    store = CheckpointStore(tmp_path)
    with pytest.raises(Interrupt):
        run_scan("hive", scan, rows=ROWS, seed=1994,
                 monitor=RunMonitor(store=store, key="hive", pass_hook=bomb))
    assert pending and pending[0] > 0  # the log held ops at the snapshot
    resumed = RunMonitor(store=store, key="hive")
    result = run_scan("hive", scan, rows=ROWS, seed=1994, monitor=resumed)
    assert resumed.resumed_from_pass == 1
    assert result.to_dict() == reference


def test_unlock_flags_are_each_groups_matches():
    """A HIVE tuple scan's UNLOCKs return each group's compare result."""
    scan = ScanConfig("nsm", "tuple", 128, 1)
    plan = q6_select_plan()
    data = generate_table(plan.table, 1001, 3)
    machine = build_machine("hive")
    workload = build_workload(machine, data, "nsm", plan=plan)
    machine.run_runs(hive.generate_plan_runs(workload, scan), exact=True)
    flags = machine.engine.unlock_flags()
    assert flags.shape == (501, 8)  # two 64 B tuples per 128 B group
    bits = np.unpackbits(flags, axis=1, bitorder="little")[:, :2]
    assert np.array_equal(bits.reshape(-1)[:1001], workload.final_mask)
