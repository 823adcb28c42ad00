"""Integration tests: full simulations, cross-architecture equivalence,
energy accounting and the experiment harnesses at tiny scale."""

import numpy as np
import pytest

from repro import (
    ScanConfig,
    build_machine,
    generate_lineitem,
    run_scan,
    speedup,
)
from repro.db.query6 import reference_mask
from repro.energy.model import compute_energy
from repro.sim.results import format_table, normalised

ROWS = 2048


@pytest.fixture(scope="module")
def data():
    return generate_lineitem(ROWS, seed=1994)


class TestRunScan:
    @pytest.mark.parametrize("arch,op", [
        ("x86", 64), ("hmc", 256), ("hive", 256), ("hipe", 256),
    ])
    def test_column_scan_completes_and_verifies(self, data, arch, op):
        result = run_scan(arch, ScanConfig("dsm", "column", op, unroll=4),
                          rows=ROWS, data=data)
        assert result.cycles > 0
        assert result.uops > 0
        assert result.verified in (None, True)
        assert result.energy.total_pj > 0

    @pytest.mark.parametrize("arch", ["x86", "hmc", "hive"])
    def test_tuple_scan_completes(self, data, arch):
        result = run_scan(arch, ScanConfig("nsm", "tuple", 64), rows=ROWS,
                          data=data)
        assert result.cycles > 0
        assert result.verified in (None, True)

    @pytest.mark.parametrize("arch", ["hmc", "hive", "hipe"])
    @pytest.mark.parametrize("op", [128, 256])
    @pytest.mark.parametrize("rows", [8193, 8194])
    def test_tuple_scan_partial_last_group(self, arch, op, rows):
        # The last op covers only the tuples that remain, never reading
        # past the NSM table.
        result = run_scan(arch, ScanConfig("nsm", "tuple", op), rows=rows)
        assert result.cycles > 0
        assert result.verified is (True if arch == "hmc" else None)

    @pytest.mark.parametrize("op", [16, 32, 64, 128, 256])
    def test_hive_all_op_sizes_verify(self, data, op):
        result = run_scan("hive", ScanConfig("dsm", "column", op, unroll=2),
                          rows=ROWS, data=data)
        assert result.verified is True

    @pytest.mark.parametrize("unroll", [1, 2, 8, 32])
    def test_hipe_all_unrolls_verify(self, data, unroll):
        result = run_scan("hipe", ScanConfig("dsm", "column", 256, unroll=unroll),
                          rows=ROWS, data=data)
        assert result.verified is True

    def test_odd_row_count_verifies(self):
        # A row count that is not a multiple of any chunk size.
        odd = generate_lineitem(1000, seed=3)
        for arch in ("hive", "hipe"):
            result = run_scan(arch, ScanConfig("dsm", "column", 256, unroll=32),
                              rows=1000, data=odd)
            assert result.verified is True, arch

    def test_unknown_arch(self):
        with pytest.raises(ValueError):
            run_scan("vax", ScanConfig("dsm", "column", 64))


class TestCrossArchitectureEquivalence:
    """Every architecture must compute the same query answer."""

    def test_engines_produce_reference_bitmask(self, data):
        expected = np.packbits(reference_mask(data), bitorder="little")
        for arch in ("hive", "hipe"):
            from repro.sim.runner import build_workload, _CODEGENS

            machine = build_machine(arch)
            workload = build_workload(machine, data, "dsm")
            machine.run(_CODEGENS[arch].generate(
                workload, ScanConfig("dsm", "column", 256, unroll=16)))
            produced = machine.image.read(workload.buffers.bitmask_base,
                                          expected.size)
            assert np.array_equal(produced, expected), arch

    def test_hmc_masks_conjoin_to_reference(self, data):
        result = run_scan("hmc", ScanConfig("dsm", "column", 64, unroll=2),
                          rows=ROWS, data=data)
        assert result.verified is True

    def test_engine_results_stable_across_op_sizes(self, data):
        masks = []
        for op in (64, 256):
            from repro.sim.runner import build_workload, _CODEGENS

            machine = build_machine("hive")
            workload = build_workload(machine, data, "dsm")
            machine.run(_CODEGENS["hive"].generate(
                workload, ScanConfig("dsm", "column", op, unroll=8)))
            masks.append(machine.image.read(workload.buffers.bitmask_base,
                                            ROWS // 8))
        assert np.array_equal(masks[0], masks[1])


class TestPerformanceShape:
    """Coarse performance invariants at tiny scale (full shapes are the
    benchmarks' job — these guard against gross regressions)."""

    def test_hive_unrolling_helps_dramatically(self, data):
        t1 = run_scan("hive", ScanConfig("dsm", "column", 256, unroll=1),
                      rows=ROWS, data=data).cycles
        t32 = run_scan("hive", ScanConfig("dsm", "column", 256, unroll=32),
                       rows=ROWS, data=data).cycles
        assert t1 / t32 > 3.0

    def test_hmc_256_beats_16_in_column_mode(self, data):
        t16 = run_scan("hmc", ScanConfig("dsm", "column", 16), rows=ROWS,
                       data=data).cycles
        t256 = run_scan("hmc", ScanConfig("dsm", "column", 256), rows=ROWS,
                        data=data).cycles
        assert t256 < t16

    def test_tuple_mode_hmc_serialised_by_result_branches(self, data):
        tuple_time = run_scan("hmc", ScanConfig("nsm", "tuple", 64),
                              rows=ROWS, data=data).cycles
        column_time = run_scan("hmc", ScanConfig("dsm", "column", 64),
                               rows=ROWS, data=data).cycles
        assert tuple_time > column_time  # round trips vs streaming

    def test_hipe_squashes_regions(self, data):
        result = run_scan("hipe", ScanConfig("dsm", "column", 16, unroll=32),
                          rows=ROWS, data=data)
        assert result.stats.get("hipe.hipe.squashed_loads", 0) > 0


class TestEnergyModel:
    def test_components_positive_and_consistent(self, data):
        result = run_scan("hipe", ScanConfig("dsm", "column", 256, unroll=8),
                          rows=ROWS, data=data)
        report = result.energy
        assert report.dram_total_pj == pytest.approx(
            report.dram_dynamic_pj + report.dram_background_pj)
        assert report.total_pj >= report.dram_total_pj
        assert report.pim_pj > 0  # the engine did real ALU work
        exported = report.to_dict()
        assert exported["total_pj"] == pytest.approx(report.total_pj)

    def test_x86_has_no_pim_energy(self, data):
        result = run_scan("x86", ScanConfig("dsm", "column", 64), rows=ROWS,
                          data=data)
        assert result.energy.pim_pj == 0

    def test_longer_runs_cost_more_background(self, data):
        short = run_scan("hmc", ScanConfig("dsm", "column", 256, unroll=32),
                         rows=ROWS, data=data)
        long = run_scan("hive", ScanConfig("dsm", "column", 256, unroll=1),
                        rows=ROWS, data=data)
        assert long.cycles > short.cycles
        assert long.energy.dram_background_pj > short.energy.dram_background_pj

    def test_compute_energy_direct(self):
        from repro.common.config import machine_for
        from repro.common.stats import StatGroup

        stats = StatGroup("hmc")
        stats.set("row_activations", 100)
        stats.set("dram_bytes_read", 1000)
        stats.set("dram_bytes_written", 500)
        report = compute_energy(machine_for("x86"), cycles=10_000,
                                hmc_stats=stats, cache_stats=StatGroup("c"),
                                core_stats=StatGroup("core"))
        assert report.dram_activate_pj == pytest.approx(100 * 40.0)
        assert report.dram_read_pj == pytest.approx(4000.0)
        assert report.dram_write_pj == pytest.approx(2200.0)


class TestResultsApi:
    def test_speedup_and_labels(self, data):
        a = run_scan("x86", ScanConfig("dsm", "column", 64), rows=ROWS, data=data)
        b = run_scan("hmc", ScanConfig("dsm", "column", 256, unroll=32),
                     rows=ROWS, data=data)
        assert speedup(a, b) > 1.0
        assert a.label() == "X86-64B"
        assert b.label() == "HMC-256B@32x"
        assert a.cycles_per_row == pytest.approx(a.cycles / ROWS)
        assert a.seconds > 0

    def test_format_table(self, data):
        a = run_scan("x86", ScanConfig("dsm", "column", 64), rows=ROWS, data=data)
        text = format_table([a], "demo", baseline=a)
        assert "X86-64B" in text
        assert "1.000" in text

    def test_normalised(self, data):
        a = run_scan("x86", ScanConfig("dsm", "column", 64), rows=ROWS, data=data)
        norm = normalised([a], baseline=a)
        assert norm["X86-64B"] == pytest.approx(1.0)


class TestExperimentHarnesses:
    """Each figure harness runs end to end at tiny scale."""

    def test_table1(self):
        from repro.experiments import run_table1

        assert "HMC v2.1" in run_table1()

    def test_fig3d_tiny(self):
        from repro.experiments import run_fig3d

        outcome = run_fig3d(rows=1024)
        assert set(outcome.headline) >= {
            "hmc_speedup", "hive_speedup", "hipe_speedup",
            "energy_saving_vs_hive",
        }
        assert len(outcome.runs) == 4
        assert outcome.headline["hive_speedup"] > 1.0

    def test_experiment_rows_env(self, monkeypatch):
        from repro.experiments.common import experiment_rows

        monkeypatch.setenv("REPRO_ROWS", "4096")
        assert experiment_rows() == 4096
        monkeypatch.setenv("REPRO_ROWS", "10")
        with pytest.raises(ValueError):
            experiment_rows()

    def test_experiment_result_lookup(self):
        from repro.experiments import run_fig3d

        outcome = run_fig3d(rows=1024)
        run = outcome.run_for("hipe", 256, unroll=32)
        assert run.arch == "hipe"
        with pytest.raises(KeyError):
            outcome.run_for("hipe", 16, unroll=2)
        assert "HIPE-256B@32x" in outcome.by_label()
        assert "Figure 3d" in outcome.report()
