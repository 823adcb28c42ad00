"""Unit tests for the ``repro.sim`` layer: machine assembly, the scan
runner across all four codegens, result serialisation, and functional
mask verification against the numpy reference."""

import numpy as np
import pytest

from repro.codegen.base import ScanConfig
from repro.common.config import ARCHITECTURES, machine_for, paper_config
from repro.db.datagen import generate_lineitem
from repro.db.query6 import reference_mask
from repro.sim.machine import build_machine
from repro.sim.results import ExperimentResult, RunResult
from repro.sim.runner import build_workload, run_scan

ROWS = 256  # tiny: these are unit tests, the benches own the full shapes


@pytest.fixture(scope="module")
def data():
    return generate_lineitem(ROWS, seed=1994)


class TestBuildMachine:
    def test_x86_has_no_pim_parts(self):
        machine = build_machine("x86")
        assert machine.arch == "x86"
        assert machine.backend is None
        assert machine.engine is None

    def test_hmc_has_backend_but_no_engine(self):
        machine = build_machine("hmc")
        assert machine.backend is not None
        assert machine.engine is None
        assert machine.backend.max_outstanding == machine.config.hmc.isa_window

    @pytest.mark.parametrize("arch", ["hive", "hipe"])
    def test_logic_layer_archs_have_engine(self, arch):
        machine = build_machine(arch)
        assert machine.backend is not None
        assert machine.engine is not None
        assert machine.config.pim is not None
        assert machine.config.pim.predication == (arch == "hipe")

    def test_every_arch_shares_one_stats_tree(self):
        for arch in ARCHITECTURES:
            machine = build_machine(arch)
            assert machine.stats.name == arch
            assert machine.core is not None
            assert machine.image.capacity == machine.config.hmc.total_size_bytes

    def test_unknown_arch_raises(self):
        with pytest.raises(ValueError):
            build_machine("sparc")

    def test_paper_scale_uses_table1_caches(self):
        machine = build_machine("x86", scale=1)
        assert machine.config.l3.size_bytes == paper_config().l3.size_bytes

    def test_explicit_config_is_respected(self):
        config = machine_for("hive")
        machine = build_machine("hive", config=config)
        assert machine.config is config


class TestRunScanSmoke:
    """Every codegen completes at tiny row counts and reports sane numbers."""

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_column_mode(self, data, arch):
        result = run_scan(arch, ScanConfig("dsm", "column", 64, unroll=2),
                          rows=ROWS, data=data)
        assert result.cycles > 0
        assert result.uops > 0
        assert result.rows == ROWS
        assert result.verified in (None, True)
        assert result.energy.dram_total_pj > 0

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_tuple_mode(self, data, arch):
        result = run_scan(arch, ScanConfig("nsm", "tuple", 64), rows=ROWS,
                          data=data)
        assert result.cycles > 0
        assert result.verified in (None, True)

    def test_generates_data_when_not_given(self):
        result = run_scan("x86", ScanConfig("dsm", "column", 64), rows=ROWS)
        assert result.rows == ROWS

    def test_unknown_arch_raises(self):
        with pytest.raises(ValueError):
            run_scan("vax", ScanConfig("dsm", "column", 64), rows=ROWS)


class TestRunResultSerialisation:
    def test_round_trip_preserves_everything(self, data):
        original = run_scan("hipe", ScanConfig("dsm", "column", 256, unroll=4),
                            rows=ROWS, data=data)
        restored = RunResult.from_dict(original.to_dict())
        assert restored.arch == original.arch
        assert restored.scan == original.scan
        assert restored.rows == original.rows
        assert restored.cycles == original.cycles
        assert restored.uops == original.uops
        assert restored.verified == original.verified
        assert restored.stats == original.stats
        assert restored.energy.to_dict() == original.energy.to_dict()
        assert restored.label() == original.label()

    def test_round_trip_survives_json(self, data):
        import json

        original = run_scan("hmc", ScanConfig("dsm", "column", 64), rows=ROWS,
                            data=data)
        wire = json.dumps(original.to_dict())
        restored = RunResult.from_dict(json.loads(wire))
        assert restored.cycles == original.cycles
        assert restored.energy.dram_total_pj == pytest.approx(
            original.energy.dram_total_pj)

    def test_scan_config_round_trip_validates(self):
        config = ScanConfig("nsm", "tuple", 128, unroll=8)
        assert ScanConfig.from_dict(config.to_dict()) == config
        with pytest.raises(ValueError):
            ScanConfig.from_dict({"layout": "bad", "strategy": "tuple",
                                  "op_bytes": 64, "unroll": 1})

    def test_experiment_result_lookup_still_works(self, data):
        run = run_scan("hive", ScanConfig("dsm", "column", 256), rows=ROWS,
                       data=data)
        outcome = ExperimentResult(name="demo", runs=[run])
        assert outcome.run_for("hive", 256) is run
        assert "HIVE-256B" in outcome.by_label()


class TestMaskVerification:
    """The in-memory engines must produce the exact reference bitmask."""

    @pytest.mark.parametrize("arch", ["hive", "hipe"])
    def test_engine_bitmask_matches_reference(self, data, arch):
        machine = build_machine(arch)
        workload = build_workload(machine, data, "dsm")
        from repro.sim.runner import _CODEGENS

        machine.run(_CODEGENS[arch].generate(
            workload, ScanConfig("dsm", "column", 256, unroll=8)))
        expected = np.packbits(reference_mask(data), bitorder="little")
        produced = machine.image.read(workload.buffers.bitmask_base,
                                      expected.size)
        assert np.array_equal(produced, expected)

    def test_runner_flags_verification(self, data):
        result = run_scan("hive", ScanConfig("dsm", "column", 256, unroll=8),
                          rows=ROWS, data=data)
        assert result.verified is True

    def test_hmc_chunk_masks_verify(self, data):
        result = run_scan("hmc", ScanConfig("dsm", "column", 64, unroll=2),
                          rows=ROWS, data=data)
        assert result.verified is True

    @pytest.mark.parametrize("op", [16, 32, 64, 128, 256])
    def test_hmc_tuple_masks_verify(self, data, op):
        result = run_scan("hmc", ScanConfig("nsm", "tuple", op), rows=ROWS,
                          data=data)
        assert result.verified is True

    @pytest.mark.parametrize("strategy", ["tuple", "column"])
    def test_hmc_verification_catches_a_flipped_bit(self, data, strategy):
        from repro.sim.runner import _CODEGENS, _verify_hmc_masks

        layout = "nsm" if strategy == "tuple" else "dsm"
        scan = ScanConfig(layout, strategy, 16)
        machine = build_machine("hmc")
        workload = build_workload(machine, data, layout)
        machine.run(_CODEGENS["hmc"].generate(workload, scan))
        assert _verify_hmc_masks(machine, workload, scan)
        # Clear the first matching row's bit: in tuple mode in its first
        # piece's mask (4 pieces per tuple), in column mode in pass 0's
        # mask of its chunk (4 rows per chunk, one byte per op).
        row = int(np.flatnonzero(workload.final_mask)[0])
        flat, __ = machine.backend.mask_table()  # the stored masks
        if strategy == "tuple":
            flat[4 * row] ^= 1
        else:
            flat[row // 4] ^= 1 << (row % 4)
        assert not _verify_hmc_masks(machine, workload, scan)

    def test_workload_reference_matches_query6(self, data):
        machine = build_machine("x86")
        workload = build_workload(machine, data, "dsm")
        assert np.array_equal(workload.final_mask, reference_mask(data))
