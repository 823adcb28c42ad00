"""Chaos suite: crash-safe sweeps under deterministic fault injection.

The contract under test is the ISSUE 8 acceptance list: a worker
SIGKILLed mid-run resumes from its last completed pass and produces a
bit-identical result; a hung worker is caught by heartbeat silence (not
wall-clock) and retried; a dropped result message is recovered by the
watchdog; a worker killed in the middle of a message costs only its own
attempt; ``close()`` stops a worker that SIGTERM cannot; corrupted
cache and checkpoint files are quarantined and degrade to a miss —
re-simulation, never a wrong number; truncated shared-memory datasets
fail loudly; stale segments of dead publishers are swept.  Every fault here is injected deterministically via
``REPRO_FAULTS`` (:mod:`repro.testing.faults`) or
:func:`~repro.testing.faults.corrupt_file` — no timing races, no
flakiness by construction.
"""

import json
import os
import pickle
import signal
import struct
import time
from multiprocessing import shared_memory

import pytest

from repro.codegen.base import ScanConfig
from repro.db.datagen import generate_lineitem, generate_table
from repro.db.query6 import q6_select_plan
from repro.db.workloads import selectivity_scan_plan
from repro.memory.image import PAGE_BYTES
from repro.memory.shared_data import (
    SEGMENT_PREFIX,
    DatasetHandle,
    DatasetImage,
    attach_dataset,
    detach_all,
    sweep_stale_segments,
)
from repro.service import JobState, SimulationService
from repro.service import service as service_module
from repro.service.worker import worker_main
from repro.sim import runner
from repro.sim.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointStore,
    RunMonitor,
)
from repro.sim.engine import ExperimentEngine, PointExecutionError, ResultCache
from repro.sim.machine import build_machine
from repro.sim.runner import _CODEGENS, build_workload, run_scan
from repro.testing import faults

ROWS = 2048
POINTS = [
    ("x86", ScanConfig("dsm", "column", 64)),
    ("hmc", ScanConfig("dsm", "column", 256)),
    ("hive", ScanConfig("dsm", "column", 256, unroll=8)),
    ("hipe", ScanConfig("dsm", "column", 256, unroll=8)),
]

SERVICE_ROWS = 4096
SERVICE_POINT = ("x86", ScanConfig("dsm", "column", 64))


class _Interrupt(RuntimeError):
    """Stands in for SIGKILL in the in-process resume tests."""


# -- the fault-injection harness itself --------------------------------------


class TestFaultSpec:
    def test_parse_clauses_and_conditions(self):
        plan = faults.FaultPlan.parse(
            "kill@pass,pass=1,attempt=1; drop@result,attempt=2"
        )
        assert len(plan.clauses) == 2
        assert plan.check("pass", **{"pass": 1, "attempt": 1}) == "kill"
        assert plan.check("pass", **{"pass": 2, "attempt": 1}) is None
        assert plan.check("result", attempt=2) == "drop"
        assert plan.check("result", attempt=1) is None
        assert plan.check("start", attempt=1) is None

    def test_clause_without_condition_fires_every_attempt(self):
        plan = faults.FaultPlan.parse("drop@result")
        for attempt in (1, 2, 5):
            assert plan.check("result", attempt=attempt) == "drop"

    def test_missing_context_key_means_no_match(self):
        plan = faults.FaultPlan.parse("kill@pass,pass=1")
        assert plan.check("pass") is None  # no pass supplied -> no fire

    def test_drop_fires_and_logs(self):
        plan = faults.FaultPlan.parse("drop@result,attempt=1")
        assert plan.fire("result", attempt=1) is True
        assert plan.fire("result", attempt=2) is False
        assert plan.fired == [("result", "drop", {"attempt": 1})]

    @pytest.mark.parametrize("bad", [
        "kill",              # no site
        "explode@pass",      # unknown action
        "kill@",             # empty site
        "kill@pass,notakv",  # malformed condition
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(faults.FaultSpecError):
            faults.FaultPlan.parse(bad)

    def test_env_transport_reparses_on_change(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "drop@result")
        faults.reset_plan()
        assert faults.active_plan().check("result") == "drop"
        monkeypatch.setenv(faults.ENV_VAR, "drop@start")
        assert faults.active_plan().check("result") is None
        assert faults.active_plan().check("start") == "drop"
        monkeypatch.delenv(faults.ENV_VAR)
        assert faults.active_plan().clauses == []


# -- in-process checkpoint resume (no service, no processes) -----------------


def _interrupt_at_pass(store, key, arch, scan, at_pass=1, plan=None):
    """Run a point but raise after the checkpoint of ``at_pass``."""

    def bomb(pass_ordinal):
        if pass_ordinal >= at_pass:
            raise _Interrupt(f"injected at pass {pass_ordinal}")

    monitor = RunMonitor(store=store, key=key, pass_hook=bomb)
    with pytest.raises(_Interrupt):
        run_scan(arch, scan, rows=ROWS, seed=1994, plan=plan, monitor=monitor)
    return monitor


class TestCheckpointResume:
    @pytest.mark.parametrize("arch,scan", POINTS[:3],
                             ids=[p[0] for p in POINTS[:3]])
    def test_resume_is_bit_identical(self, tmp_path, arch, scan):
        reference = run_scan(arch, scan, rows=ROWS, seed=1994).to_dict()
        store = CheckpointStore(tmp_path)
        key = f"point-{arch}"
        interrupted = _interrupt_at_pass(store, key, arch, scan)
        assert interrupted.snapshots_taken >= 1
        assert store.path_for(key).exists()

        resumed = RunMonitor(store=store, key=key)
        result = run_scan(arch, scan, rows=ROWS, seed=1994, monitor=resumed)
        assert resumed.resumed_from_pass == 1
        assert result.to_dict() == reference  # bit-identical resume
        assert not store.path_for(key).exists()  # discarded on success

    def test_single_family_stream_never_checkpoints(self, tmp_path):
        # HIPE fuses the whole scan into one pass family: no boundary,
        # no snapshot — such points keep the restart-from-zero recovery.
        arch, scan = POINTS[3]
        store = CheckpointStore(tmp_path)
        monitor = RunMonitor(store=store, key="hipe-point")
        reference = run_scan(arch, scan, rows=ROWS, seed=1994).to_dict()
        result = run_scan(arch, scan, rows=ROWS, seed=1994, monitor=monitor)
        assert monitor.snapshots_taken == 0
        assert monitor.resumed_from_pass is None
        assert result.to_dict() == reference  # monitor is transparent

    def test_hipe_selectivity_point_resumes_bit_identically(self, tmp_path):
        # HIPE writes mask pages before its one boundary; the resume
        # must find them in the snapshot's sparse page encoding.
        arch, scan = POINTS[3]
        plan = selectivity_scan_plan(0.4)
        reference = run_scan(arch, scan, rows=ROWS, seed=1994,
                             plan=plan).to_dict()
        store = CheckpointStore(tmp_path)
        interrupted = _interrupt_at_pass(store, "hipe-sel", arch, scan,
                                         plan=plan)
        assert interrupted.snapshots_taken == 1
        resumed = RunMonitor(store=store, key="hipe-sel")
        result = run_scan(arch, scan, rows=ROWS, seed=1994, plan=plan,
                          monitor=resumed)
        assert resumed.resumed_from_pass == 1
        assert result.to_dict() == reference

    def test_unpicklable_local_function_degrades_to_a_miss(
        self, tmp_path, monkeypatch
    ):
        arch, scan = POINTS[3]
        plan = selectivity_scan_plan(0.4)  # one boundary, so one save
        reference = run_scan(arch, scan, rows=ROWS, seed=1994,
                             plan=plan).to_dict()

        build_machine = runner.build_machine

        def planted_machine(*args, **kwargs):
            machine = build_machine(*args, **kwargs)

            def local_hook():
                return None

            machine.local_hook = local_hook  # pickle: AttributeError
            return machine

        monkeypatch.setattr(runner, "build_machine", planted_machine)
        store = CheckpointStore(tmp_path)
        returned = []

        def recording_save(*args, **kwargs):
            returned.append(CheckpointStore.save(store, *args, **kwargs))
            return returned[-1]

        store.save = recording_save
        monitor = RunMonitor(store=store, key="local")
        result = run_scan(arch, scan, rows=ROWS, seed=1994, plan=plan,
                          monitor=monitor)
        assert returned == [False]
        assert store.save_failures == 1
        assert result.to_dict() == reference

    def test_monitor_without_store_is_transparent(self):
        arch, scan = POINTS[0]
        reference = run_scan(arch, scan, rows=ROWS, seed=1994).to_dict()
        beats = []
        monitor = RunMonitor(heartbeat=beats.append, heartbeat_interval=0.0)
        result = run_scan(arch, scan, rows=ROWS, seed=1994, monitor=monitor)
        assert result.to_dict() == reference
        assert beats, "heartbeats should flow while simulating"
        assert all({"runs", "pass"} <= set(b) for b in beats)
        assert beats[-1]["runs"] == monitor.runs_consumed

    def test_entries_reports_resumable_points(self, tmp_path):
        arch, scan = POINTS[0]
        store = CheckpointStore(tmp_path)
        _interrupt_at_pass(store, "visible-point", arch, scan)
        (entry,) = store.entries()
        assert entry["key"] == "visible-point"
        assert entry["pass"] == 1
        assert entry["runs"] > 0
        assert entry["meta"] == {}
        assert entry["size"] > 0


# -- checkpoint file integrity -----------------------------------------------


class TestCheckpointIntegrity:
    def _saved(self, tmp_path):
        arch, scan = POINTS[0]
        store = CheckpointStore(tmp_path)
        _interrupt_at_pass(store, "damaged", arch, scan)
        return store, store.path_for("damaged")

    @pytest.mark.parametrize("mode", ["truncate", "garbage", "bitflip",
                                      "empty"])
    def test_corruption_quarantines_and_misses(self, tmp_path, mode):
        store, path = self._saved(tmp_path)
        faults.corrupt_file(path, mode)
        assert store.load("damaged") is None
        assert store.quarantined == 1
        assert not path.exists()
        assert path.with_name(path.name + ".quarantine").exists()

    def test_schema_skew_misses_without_quarantine(self, tmp_path):
        store, path = self._saved(tmp_path)
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            payload = handle.read()
        header["schema"] = CHECKPOINT_SCHEMA + 1
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n" + payload)
        assert store.load("damaged") is None
        assert store.quarantined == 0  # honest version skew
        assert path.exists()

    def test_snapshot_carries_no_table_bytes_and_no_zero_pages(
        self, tmp_path
    ):
        # The DSM table (32 KiB here) and the untouched materialisation
        # buffer (128 KiB) stay out; the mask fits in one written page.
        arch, scan = POINTS[2]
        store = CheckpointStore(tmp_path)
        _interrupt_at_pass(store, "lean", arch, scan)
        image = store.load("lean").machine.image
        assert len(pickle.dumps(image)) < 3 * PAGE_BYTES

    def test_hmc_snapshot_holds_masks_as_flat_arrays(self):
        # The masks travel as one packed array plus one of widths, not
        # as one numpy object per load-compare.
        plan = q6_select_plan()
        machine = build_machine("hmc")
        workload = build_workload(
            machine, generate_table(plan.table, 32_768, 1994), "dsm", plan=plan)
        machine.run_runs(_CODEGENS["hmc"].generate_plan_runs(
            workload, ScanConfig("dsm", "column", 256)))
        backend = machine.backend
        ops = backend.mask_table()[1].size
        state = {name: value for name, value in backend.__getstate__().items()
                 if name not in ("hmc", "image", "stats")}
        assert ops > 1000
        assert len(pickle.dumps(state)) < 16 * ops

    def test_snapshot_of_another_table_quarantines(self, tmp_path):
        # Same key, different data: the referenced table regions fail
        # their checksum on rebind, so the file is treated as corrupt.
        arch, scan = POINTS[0]
        store, path = self._saved(tmp_path)
        reference = run_scan(arch, scan, rows=ROWS, seed=7).to_dict()
        monitor = RunMonitor(store=store, key="damaged")
        result = run_scan(arch, scan, rows=ROWS, seed=7, monitor=monitor)
        assert store.quarantined == 1
        assert path.with_name(path.name + ".quarantine").exists()
        assert monitor.resumed_from_pass is None  # no resume: from zero
        assert result.to_dict() == reference

    def test_corrupted_checkpoint_degrades_to_fresh_run(self, tmp_path):
        # The retry after quarantine starts from scratch and is still right.
        arch, scan = POINTS[0]
        reference = run_scan(arch, scan, rows=ROWS, seed=1994).to_dict()
        store, path = self._saved(tmp_path)
        faults.corrupt_file(path, "garbage")
        monitor = RunMonitor(store=store, key="damaged")
        result = run_scan(arch, scan, rows=ROWS, seed=1994, monitor=monitor)
        assert monitor.resumed_from_pass is None  # no resume: from zero
        assert result.to_dict() == reference

    def test_purge_drops_old_snapshots(self, tmp_path):
        store, path = self._saved(tmp_path)
        old = time.time() - 10 * 24 * 3600
        os.utime(path, (old, old))
        assert store.purge() == 1
        assert not path.exists()


# -- result-cache integrity ---------------------------------------------------


class TestCacheIntegrity:
    def _warm(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path / "cache")
        result = engine.sweep("warm", POINTS[:1], ROWS).runs[0]
        cache = ResultCache(tmp_path / "cache")
        files = list((tmp_path / "cache").glob("*.json"))
        assert len(files) == 1
        return result, cache, files[0]

    @pytest.mark.parametrize("mode", ["truncate", "garbage", "bitflip",
                                      "empty"])
    def test_corruption_quarantines_and_misses(self, tmp_path, mode):
        _, cache, path = self._warm(tmp_path)
        key = path.stem
        assert cache.load(key) is not None
        faults.corrupt_file(path, mode)
        assert cache.load(key) is None
        assert cache.quarantined == 1
        assert not path.exists()
        assert path.with_name(path.name + ".quarantine").exists()

    def test_wrong_schema_misses_without_quarantine(self, tmp_path):
        _, cache, path = self._warm(tmp_path)
        faults.corrupt_file(path, "wrong_schema")
        assert cache.load(path.stem) is None
        assert cache.quarantined == 0
        assert path.exists()

    def test_engine_resimulates_after_corruption_bit_identically(
        self, tmp_path
    ):
        original, _, path = self._warm(tmp_path)
        faults.corrupt_file(path, "garbage")
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path / "cache")
        again = engine.sweep("again", POINTS[:1], ROWS).runs[0]
        assert engine.cache_hits == 0  # corrupt entry never surfaced
        assert engine.simulated_points == 1
        assert again == original

    def test_service_resimulates_after_corruption_bit_identically(
        self, tmp_path
    ):
        with SimulationService(jobs=1, cache_dir=tmp_path / "cache") as svc:
            cold = svc.wait([svc.submit(*POINTS[0], ROWS)], timeout=120)[0]
            entry = ResultCache(tmp_path / "cache").path_for(cold.ticket.key)
            faults.corrupt_file(entry, "bitflip")
            warm = svc.wait([svc.submit(*POINTS[0], ROWS)], timeout=120)[0]
        assert cold.state is JobState.DONE
        assert warm.state is JobState.DONE
        assert warm.cached is False  # corruption degraded to a miss
        assert warm.result == cold.result

    def test_clear_sweeps_quarantined_entries(self, tmp_path):
        _, cache, path = self._warm(tmp_path)
        faults.corrupt_file(path, "garbage")
        cache.load(path.stem)
        assert list(cache.directory.glob("*.quarantine"))
        cache.clear()
        assert not list(cache.directory.glob("*.quarantine"))


# -- service-level chaos (real processes, injected faults) --------------------


class TestServiceChaos:
    def test_kill_at_pass_resumes_bit_identically(self, tmp_path, monkeypatch):
        reference = run_scan(*SERVICE_POINT, rows=SERVICE_ROWS,
                             seed=1994).to_dict()
        monkeypatch.setenv(faults.ENV_VAR, "kill@pass,pass=1,attempt=1")
        with SimulationService(
            jobs=1, use_cache=False, retries=1,
            checkpoint_dir=tmp_path / "ckpt",
        ) as service:
            ticket = service.submit(*SERVICE_POINT, SERVICE_ROWS)
            record = service.wait([ticket], timeout=180)[0]
        assert record.state is JobState.DONE
        assert record.attempts == 2
        assert record.resumed_from_pass == 1  # not restarted from zero
        assert service.resumed_jobs == 1
        assert record.attempt_log[0]["kind"] == "crash"
        assert record.attempt_log[0]["exitcode"] is not None
        assert record.result.to_dict() == reference

    def test_hang_is_killed_by_heartbeat_silence_and_retried(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(faults.ENV_VAR, "hang@start,attempt=1")
        with SimulationService(
            jobs=1, use_cache=False, retries=1, timeout=1.0,
            checkpoint_dir=tmp_path / "ckpt",
        ) as service:
            ticket = service.submit(*SERVICE_POINT, SERVICE_ROWS)
            record = service.wait([ticket], timeout=180)[0]
        assert record.state is JobState.DONE
        assert record.attempts == 2
        assert record.attempt_log[0]["kind"] == "stalled"
        assert "no heartbeat" in record.attempt_log[0]["reason"]

    def test_dropped_result_recovered_by_watchdog(self, tmp_path, monkeypatch):
        reference = run_scan(*SERVICE_POINT, rows=SERVICE_ROWS,
                             seed=1994).to_dict()
        monkeypatch.setenv(faults.ENV_VAR, "drop@result,attempt=1")
        with SimulationService(
            jobs=1, use_cache=False, retries=1, timeout=2.0,
            checkpoint_dir=tmp_path / "ckpt",
        ) as service:
            ticket = service.submit(*SERVICE_POINT, SERVICE_ROWS)
            record = service.wait([ticket], timeout=180)[0]
        assert record.state is JobState.DONE
        assert record.attempts == 2
        assert record.attempt_log[0]["kind"] == "stalled"
        assert record.result.to_dict() == reference

    def test_retry_exhaustion_reports_attempt_history(
        self, tmp_path, monkeypatch
    ):
        # No attempt condition: the kill fires on *every* attempt.
        monkeypatch.setenv(faults.ENV_VAR, "kill@start")
        with SimulationService(
            jobs=1, use_cache=False, retries=1,
            checkpoint_dir=tmp_path / "ckpt",
        ) as service:
            ticket = service.submit(*SERVICE_POINT, SERVICE_ROWS)
            record = service.wait([ticket], timeout=180)[0]
            assert record.state is JobState.FAILED
            assert record.attempts == 2
            assert [e["kind"] for e in record.attempt_log] == ["crash"] * 2
            assert [e["attempt"] for e in record.attempt_log] == [1, 2]
            assert "history" in record.error
            with pytest.raises(PointExecutionError) as excinfo:
                service.execute_points(
                    [SERVICE_POINT], None, SERVICE_ROWS, 1994, 1,
                )
            assert len(excinfo.value.attempts) == 2
            assert excinfo.value.attempts[0]["kind"] == "crash"


# -- a killed worker damages only its own pipe ----------------------------------


def _tearing_worker_main(conn):
    """``worker_main`` whose first attempt of seed 0 dies mid-message."""

    class Tearing:
        def recv(self):
            task = conn.recv()
            if task is not None and task[1]["seed"] == 0 \
                    and task[1]["attempt"] == 1:
                # a length header announcing 4 096 bytes, then 100 of them
                os.write(conn.fileno(), struct.pack("!i", 4096) + bytes(100))
                os.kill(os.getpid(), signal.SIGKILL)
            return task

        def send(self, message):
            conn.send(message)

    worker_main(Tearing())


class TestKilledWorker:
    def test_torn_message_costs_only_the_killed_attempt(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(service_module, "worker_main",
                            _tearing_worker_main)
        point = ("hive", ScanConfig("dsm", "column", 256))
        with SimulationService(
            jobs=2, use_cache=False, retries=1,
            checkpoint_dir=tmp_path / "ckpt",
        ) as service:
            tickets = [service.submit(*point, 256, seed=seed)
                       for seed in range(4)]
            records = service.wait(tickets, timeout=60)
        assert [r.state for r in records] == [JobState.DONE] * 4
        assert records[0].attempts == 2
        assert [e["kind"] for e in records[0].attempt_log] == ["crash"]
        assert [r.attempts for r in records[1:]] == [1, 1, 1]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_close_kills_a_worker_sigterm_cannot_stop(self, tmp_path, jobs):
        # An x86 NSM tuple scan is one pass: a SIGTERM only asks it to
        # drain at a boundary it never reaches.  Busy workers are killed
        # at once, not joined one after another first.
        service = SimulationService(jobs=jobs, use_cache=False,
                                    checkpoint_dir=tmp_path / "ckpt")
        tickets = [service.submit("x86", ScanConfig("nsm", "tuple", 64),
                                  131_072, seed=seed) for seed in range(jobs)]
        deadline = time.monotonic() + 30
        while any(service.status(ticket).state is not JobState.RUNNING
                  for ticket in tickets):
            assert time.monotonic() < deadline, "jobs never reached RUNNING"
            time.sleep(0.01)
        processes = [worker.process for worker in service._workers]
        assert len(processes) == jobs
        started = time.monotonic()
        service.close(timeout=0.5, force=True)
        elapsed = time.monotonic() - started
        assert not any(process.is_alive() for process in processes)
        assert elapsed < 0.5 + 0.9


# -- resource exhaustion degrades, never fails ---------------------------------


class TestResourceExhaustion:
    def test_enospc_result_cache_degrades_to_uncached(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(faults.ENV_VAR, "enospc@result")
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path / "cache")
        result = engine.sweep("full-disk", POINTS[:1], ROWS).runs[0]
        assert engine.cache.store_failures >= 1
        assert "ENOSPC" in engine.cache.last_error \
            or "No space" in engine.cache.last_error
        assert not list((tmp_path / "cache").glob("*.json"))  # nothing stored
        # the sweep itself was untouched: re-run (disk "repaired") matches
        monkeypatch.delenv(faults.ENV_VAR)
        again_engine = ExperimentEngine(jobs=1, cache_dir=tmp_path / "cache")
        again = again_engine.sweep("again", POINTS[:1], ROWS).runs[0]
        assert again_engine.cache_hits == 0  # the miss was honest
        assert again == result

    def test_enospc_checkpoint_save_runs_unsnapshotted(
        self, tmp_path, monkeypatch
    ):
        arch, scan = POINTS[0]
        reference = run_scan(arch, scan, rows=ROWS, seed=1994).to_dict()
        monkeypatch.setenv(faults.ENV_VAR, "enospc@pass")
        store = CheckpointStore(tmp_path)
        monitor = RunMonitor(store=store, key="full-disk")
        result = run_scan(arch, scan, rows=ROWS, seed=1994, monitor=monitor)
        assert result.to_dict() == reference  # simulation survived
        assert monitor.snapshots_taken == 0
        assert store.save_failures >= 1
        assert "ENOSPC" in store.last_error or "No space" in store.last_error
        assert not store.path_for("full-disk").exists()

    def test_enospc_service_job_still_completes(self, tmp_path, monkeypatch):
        # Both stores full at once: the job neither caches nor
        # checkpoints, and still answers correctly.
        reference = run_scan(*SERVICE_POINT, rows=SERVICE_ROWS,
                             seed=1994).to_dict()
        monkeypatch.setenv(faults.ENV_VAR, "enospc@result;enospc@pass")
        with SimulationService(
            jobs=1, cache_dir=tmp_path / "cache",
            checkpoint_dir=tmp_path / "ckpt",
        ) as service:
            record = service.wait(
                [service.submit(*SERVICE_POINT, SERVICE_ROWS)], timeout=180
            )[0]
        assert record.state is JobState.DONE
        assert record.result.to_dict() == reference
        assert not list((tmp_path / "cache").glob("*.json"))
        assert not list((tmp_path / "ckpt").glob("*.ckpt"))


# -- two-generation checkpoints: torn writes cost one pass, not the point ------


class TestCheckpointGenerations:
    def test_second_snapshot_rotates_the_first_to_prev(self, tmp_path):
        arch, scan = POINTS[0]  # x86: two interior pass boundaries
        store = CheckpointStore(tmp_path)
        _interrupt_at_pass(store, "gen", arch, scan, at_pass=2)
        assert store.path_for("gen").exists()
        assert store.prev_path_for("gen").exists()
        current = store.load("gen")
        assert current.pass_ordinal == 2

    def test_torn_current_falls_back_to_prev_and_resumes_bit_identically(
        self, tmp_path
    ):
        # Models SIGKILL/power loss tearing the in-flight checkpoint
        # write: the corrupt current generation quarantines, the
        # previous generation answers, and the resume is bit-identical —
        # one pass of rework, not the whole point.
        arch, scan = POINTS[0]
        reference = run_scan(arch, scan, rows=ROWS, seed=1994).to_dict()
        store = CheckpointStore(tmp_path)
        _interrupt_at_pass(store, "torn", arch, scan, at_pass=2)
        faults.corrupt_file(store.path_for("torn"), "truncate")
        checkpoint = store.load("torn")
        assert store.quarantined == 1
        assert checkpoint is not None
        assert checkpoint.pass_ordinal == 1  # the previous generation
        resumed = RunMonitor(store=store, key="torn")
        result = run_scan(arch, scan, rows=ROWS, seed=1994, monitor=resumed)
        assert resumed.resumed_from_pass == 1
        assert result.to_dict() == reference

    def test_both_generations_corrupt_degrades_to_fresh_run(self, tmp_path):
        arch, scan = POINTS[0]
        reference = run_scan(arch, scan, rows=ROWS, seed=1994).to_dict()
        store = CheckpointStore(tmp_path)
        _interrupt_at_pass(store, "ashes", arch, scan, at_pass=2)
        faults.corrupt_file(store.path_for("ashes"), "truncate")
        faults.corrupt_file(store.prev_path_for("ashes"), "garbage")
        assert store.load("ashes") is None
        assert store.quarantined == 2
        monitor = RunMonitor(store=store, key="ashes")
        result = run_scan(arch, scan, rows=ROWS, seed=1994, monitor=monitor)
        assert monitor.resumed_from_pass is None  # honest from-zero retry
        assert result.to_dict() == reference

    def test_discard_drops_both_generations(self, tmp_path):
        arch, scan = POINTS[0]
        store = CheckpointStore(tmp_path)
        _interrupt_at_pass(store, "bye", arch, scan, at_pass=2)
        store.discard("bye")
        assert not store.path_for("bye").exists()
        assert not store.prev_path_for("bye").exists()


# -- worker RSS watermark: checkpoint and recycle, not OOM ---------------------


class TestWorkerRecycle:
    def test_oom_pressure_recycles_without_consuming_retry_budget(
        self, tmp_path, monkeypatch
    ):
        reference = run_scan(*SERVICE_POINT, rows=SERVICE_ROWS,
                             seed=1994).to_dict()
        monkeypatch.setenv(faults.ENV_VAR, "oom@rss,attempt=1")
        # retries=0: a *crash* would fail the job outright, so the pass
        # below proves recycling is budget-free by construction.
        with SimulationService(
            jobs=1, use_cache=False, retries=0,
            checkpoint_dir=tmp_path / "ckpt",
        ) as service:
            ticket = service.submit(*SERVICE_POINT, SERVICE_ROWS)
            record = service.wait([ticket], timeout=180)[0]
        assert record.state is JobState.DONE
        assert record.recycles == 1
        assert service.recycled_workers == 1
        assert record.attempt_log[0]["kind"] == "recycled"
        assert record.resumed_from_pass is not None  # resumed, not redone
        assert record.result.to_dict() == reference


# -- shared-memory hygiene ----------------------------------------------------


class TestSharedMemoryHygiene:
    def test_truncated_segment_fails_loudly(self):
        data = generate_lineitem(128, seed=3)
        image = DatasetImage(data, "a" * 40)
        try:
            handle = image.handle
            lying = DatasetHandle(
                shm_name=handle.shm_name,
                digest="f" * 40,  # distinct digest: bypass the attach memo
                rows=handle.rows,
                columns=tuple(
                    (name, dtype, offset, count * 1000)
                    for name, dtype, offset, count in handle.columns
                ),
                schema=handle.schema,
            )
            with pytest.raises(ValueError, match="truncated"):
                attach_dataset(lying)
        finally:
            detach_all()
            image.close()

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                        reason="no POSIX shm filesystem")
    def test_stale_segment_of_dead_publisher_is_swept(self):
        from multiprocessing import Process, resource_tracker

        probe = Process(target=lambda: None)
        probe.start()
        probe.join()
        dead_pid = probe.pid  # guaranteed-dead pid
        name = f"{SEGMENT_PREFIX}deadbeefdead_{dead_pid}_0"
        segment = shared_memory.SharedMemory(create=True, name=name, size=64)
        segment.close()
        try:  # the sweeper unlinks it; keep our tracker out of the way
            resource_tracker.unregister(
                getattr(segment, "_name", "/" + name), "shared_memory"
            )
        except Exception:
            pass
        assert name in os.listdir("/dev/shm")
        assert sweep_stale_segments() >= 1
        assert name not in os.listdir("/dev/shm")

    def test_live_segments_are_not_swept(self):
        data = generate_lineitem(64, seed=5)
        image = DatasetImage(data, "b" * 40)
        try:
            sweep_stale_segments()
            # our own (live) publisher's segment survives the sweep
            attached = attach_dataset(image.handle)
            assert attached.rows == 64
        finally:
            detach_all()
            image.close()
