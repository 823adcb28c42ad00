"""Tests for the simulation service (repro.service).

The contract under test is the ISSUE 6 acceptance list: service sweeps
are bit-identical cache peers of ``ExperimentEngine.sweep`` (same keys,
warm hits in both directions), results stream back completed-first,
a killed worker is retried with identical results, and each distinct
dataset crosses to workers as one shared-memory image, never as
per-point pickled columns.

ISSUE 9 adds the overload-safety contract: a bounded pending queue
with structured load-shedding, blocking admission, exponential backoff
with deterministic jitter on retries, per-job deadlines that
checkpoint-then-expire, graceful drain with checkpoint-resume in a
successor service, and stray-SIGTERM checkpoint requeue.  The fixed
limits are module constants, which these tests monkeypatch.
"""

import os
import pickle
import signal
import threading
import time

import numpy as np
import pytest

from repro.codegen.base import ScanConfig
from repro.common.config import DEFAULT_SCALE
from repro.db.datagen import generate_lineitem
from repro.memory.shared_data import (
    DatasetImage,
    attach_dataset,
    attached_count,
    detach_all,
)
from repro.service import (
    JobState,
    ServiceDrainingError,
    ServiceOverloadError,
    SimulationService,
    backoff_delay,
)
from repro.service import admission
from repro.service import service as service_module
from repro.sim.engine import ExperimentEngine, PointExecutionError, data_digest
from repro.sim.runner import run_scan

ROWS = 256
SEED = 1994
POINTS = [
    ("x86", ScanConfig("dsm", "column", 64)),
    ("hmc", ScanConfig("dsm", "column", 256)),
    ("hive", ScanConfig("dsm", "column", 256, unroll=8)),
    ("hipe", ScanConfig("dsm", "column", 256, unroll=8)),
]

#: a point slow enough (~1s cold) that the supervisor can reliably be
#: observed with it RUNNING — used by the kill/cancel/timeout tests
SLOW_POINT = ("x86", ScanConfig("dsm", "column", 64))
SLOW_ROWS = 131_072


def wait_for_running(service, ticket, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = service.status(ticket)
        if record.state is JobState.RUNNING:
            return record
        if record.state.terminal:
            raise AssertionError(f"job went {record.state} before RUNNING")
        time.sleep(0.01)
    raise AssertionError("job never reached RUNNING")


class TestBitIdentity:
    def test_sweep_matches_engine_bit_identically(self, tmp_path):
        engine = ExperimentEngine(jobs=1, use_cache=False)
        batch = engine.sweep("batch", POINTS, ROWS)
        with SimulationService(jobs=2, use_cache=False) as service:
            served = service.execute_points(POINTS, None, ROWS, SEED,
                                            DEFAULT_SCALE)
        assert len(served) == len(batch.runs)
        for ours, theirs in zip(served, batch.runs):
            assert ours == theirs  # full RunResult equality, field by field

    def test_cache_parity_engine_warms_service_hits(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path / "cache")
        batch = engine.sweep("warm", POINTS[:2], ROWS)
        with SimulationService(jobs=2, cache_dir=tmp_path / "cache") as service:
            served = service.execute_points(POINTS[:2], None, ROWS, SEED,
                                            DEFAULT_SCALE)
            assert service.cache_hits == 2
            assert service.simulated_points == 0
        for ours, theirs in zip(served, batch.runs):
            assert ours == theirs

    def test_cache_parity_service_warms_engine_hits(self, tmp_path):
        with SimulationService(jobs=2, cache_dir=tmp_path / "cache") as service:
            served = service.execute_points(POINTS[:2], None, ROWS, SEED,
                                            DEFAULT_SCALE)
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path / "cache")
        batch = engine.sweep("reuse", POINTS[:2], ROWS)
        assert engine.cache_hits == 2
        assert engine.simulated_points == 0
        for ours, theirs in zip(batch.runs, served):
            assert ours == theirs


class TestStreaming:
    def test_completed_points_stream_before_the_slowest_finishes(self):
        with SimulationService(jobs=2, use_cache=False) as service:
            slow = service.submit(SLOW_POINT[0], SLOW_POINT[1], SLOW_ROWS)
            quick = [
                service.submit("hive", ScanConfig("dsm", "column", 256), ROWS)
                for _ in range(3)
            ]
            first = next(iter(service.stream([slow] + quick)))
            # A quick point arrived while the slow one was still going:
            # the pool.map "wait for the slowest" barrier is gone.
            assert first.ticket.id in {t.id for t in quick}
            assert not service.status(slow).state.terminal
            records = service.wait([slow] + quick, timeout=120)
        assert [r.state for r in records] == [JobState.DONE] * 4

    def test_stream_includes_cache_hits_and_flags_them(self, tmp_path):
        with SimulationService(jobs=2, cache_dir=tmp_path / "c") as service:
            cold = service.wait([service.submit(*POINTS[0], ROWS)])[0]
            warm = service.wait([service.submit(*POINTS[0], ROWS)])[0]
        assert cold.cached is False
        assert warm.cached is True
        assert warm.result == cold.result

    def test_stream_timeout_raises(self):
        with SimulationService(jobs=1, use_cache=False) as service:
            slow = service.submit(SLOW_POINT[0], SLOW_POINT[1], SLOW_ROWS)
            with pytest.raises(TimeoutError):
                for _ in service.stream([slow], timeout=0.01):
                    pass
            service.cancel(slow)


class TestRetry:
    def test_killed_worker_is_retried_with_identical_result(self, tmp_path):
        reference = ExperimentEngine(jobs=1, use_cache=False).sweep(
            "ref", [SLOW_POINT], SLOW_ROWS
        ).runs[0]
        with SimulationService(jobs=2, use_cache=False) as service:
            ticket = service.submit(SLOW_POINT[0], SLOW_POINT[1], SLOW_ROWS)
            record = wait_for_running(service, ticket)
            os.kill(record.worker_pid, signal.SIGKILL)
            done = service.wait([ticket], timeout=180)[0]
            assert done.state is JobState.DONE
            assert done.attempts == 2
            assert service.retried_jobs == 1
            assert done.result == reference  # retry is bit-identical

    def test_retry_budget_exhausted_fails_the_job(self):
        with SimulationService(jobs=1, use_cache=False, retries=0) as service:
            ticket = service.submit(SLOW_POINT[0], SLOW_POINT[1], SLOW_ROWS)
            record = wait_for_running(service, ticket)
            os.kill(record.worker_pid, signal.SIGKILL)
            done = service.wait([ticket], timeout=60)[0]
            assert done.state is JobState.FAILED
            assert "worker died" in done.error
            assert done.attempts == 1

    def test_timeout_kills_and_reports(self):
        with SimulationService(jobs=1, use_cache=False, retries=0,
                               timeout=0.05) as service:
            ticket = service.submit(SLOW_POINT[0], SLOW_POINT[1], SLOW_ROWS)
            done = service.wait([ticket], timeout=60)[0]
            assert done.state is JobState.FAILED
            assert "timeout" in done.error

    def test_deterministic_error_fails_fast_with_point_context(self):
        with SimulationService(jobs=1, use_cache=False) as service:
            ticket = service.submit("bogus", ScanConfig("dsm", "column", 256),
                                    ROWS)
            record = service.wait([ticket], timeout=60)[0]
            assert record.state is JobState.FAILED
            assert record.attempts == 1  # exceptions are not retried
            assert "unknown architecture" in record.error
            with pytest.raises(PointExecutionError) as excinfo:
                service.execute_points([("bogus", POINTS[0][1])], None, ROWS,
                                       SEED, DEFAULT_SCALE)
            assert excinfo.value.arch == "bogus"
            assert excinfo.value.rows == ROWS
            assert "arch=bogus" in str(excinfo.value)


class TestCancel:
    def test_cancel_pending_and_running(self):
        with SimulationService(jobs=1, use_cache=False) as service:
            running = service.submit(SLOW_POINT[0], SLOW_POINT[1], SLOW_ROWS)
            queued = service.submit("hive", ScanConfig("dsm", "column", 256),
                                    ROWS)
            wait_for_running(service, running)
            assert service.cancel(queued) is True  # still pending
            assert service.cancel(running) is True  # worker killed
            records = service.wait([running, queued], timeout=60)
            assert [r.state for r in records] == [JobState.CANCELLED] * 2
            # a terminal job cannot be cancelled again
            assert service.cancel(queued) is False

    def test_service_keeps_serving_after_cancel(self):
        with SimulationService(jobs=1, use_cache=False) as service:
            victim = service.submit(SLOW_POINT[0], SLOW_POINT[1], SLOW_ROWS)
            service.cancel(victim)
            after = service.wait(
                [service.submit("hive", ScanConfig("dsm", "column", 256), ROWS)],
                timeout=60,
            )[0]
            assert after.state is JobState.DONE


class TestSharedDatasets:
    def test_one_image_per_distinct_dataset_and_no_column_pickling(self):
        with SimulationService(jobs=2, use_cache=False) as service:
            service.execute_points(POINTS, None, ROWS, SEED, DEFAULT_SCALE)
            assert service.datasets_published == 1
            # the per-job payload carries a descriptor, not the columns:
            # pickling it must cost bytes, not megabytes
            record = service.status(
                service.submit("hive", ScanConfig("dsm", "column", 256), ROWS)
            )
            payload = pickle.dumps(record.payload)
            assert len(payload) < 4096
            handle = record.payload["dataset"]
            assert handle.nbytes == ROWS * 4 * 4  # four int32 Q6 columns
            service.wait([record.ticket], timeout=60)
            assert service.datasets_published == 1  # still the same image

    def test_distinct_datasets_get_distinct_images(self):
        with SimulationService(jobs=1, use_cache=False) as service:
            service.wait([
                service.submit("hive", ScanConfig("dsm", "column", 256), 128),
                service.submit("hive", ScanConfig("dsm", "column", 256), 192),
            ], timeout=60)
            assert service.datasets_published == 2

    def test_attach_roundtrips_and_memoises(self):
        data = generate_lineitem(128, seed=7)
        digest = data_digest(data)
        image = DatasetImage(data, digest)
        try:
            before = attached_count()
            attached = attach_dataset(image.handle)
            again = attach_dataset(image.handle)
            assert again is attached  # mapped once per process
            assert attached_count() == before + 1
            assert attached.rows == data.rows
            assert attached.column_names() == data.column_names()
            for name in data.columns:
                assert np.array_equal(attached[name], data[name])
                assert not attached[name].flags.writeable
            assert data_digest(attached) == digest
            del attached, again
        finally:
            detach_all()
            image.close()


QUICK_POINT = ("hive", ScanConfig("dsm", "column", 256))


@pytest.fixture
def one_pending(monkeypatch):
    """A pending queue of one job, as in the admission tests."""
    monkeypatch.setattr(admission, "MAX_PENDING", 1)


class TestAdmission:
    def test_queue_full_sheds_with_structured_error(self, one_pending):
        with SimulationService(jobs=1, use_cache=False) as service:
            running = service.submit(SLOW_POINT[0], SLOW_POINT[1], SLOW_ROWS)
            wait_for_running(service, running)
            queued = service.submit(*QUICK_POINT, ROWS)
            with pytest.raises(ServiceOverloadError) as excinfo:
                service.submit(*QUICK_POINT, ROWS, seed=7)
            assert excinfo.value.reason == "queue_full"
            assert excinfo.value.limit == 1
            payload = excinfo.value.to_dict()
            assert payload["error"] == "overload"
            assert payload["retry_after"] > 0
            assert service.rejected == 1
            # a shed submit leaves no trace in the job registry
            assert service.progress()["total"] == 2
            service.cancel(running)
            service.cancel(queued)

    def test_blocking_submit_parks_until_room_opens(
        self, one_pending, monkeypatch
    ):
        monkeypatch.setattr(admission, "BLOCK_TIMEOUT", 30.0)
        with SimulationService(jobs=1, use_cache=False) as service:
            running = service.submit(SLOW_POINT[0], SLOW_POINT[1], SLOW_ROWS)
            wait_for_running(service, running)
            queued = service.submit(*QUICK_POINT, ROWS)
            admitted = {}

            def blocked():
                admitted["ticket"] = service.submit(
                    *QUICK_POINT, ROWS, seed=7, block=True,
                )

            thread = threading.Thread(target=blocked)
            thread.start()
            time.sleep(0.3)
            assert "ticket" not in admitted  # parked, not shed
            service.cancel(queued)  # room opens
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            assert "ticket" in admitted
            service.cancel(running)
            service.cancel(admitted["ticket"])

    def test_blocking_submit_gives_up_after_its_patience(
        self, one_pending, monkeypatch
    ):
        monkeypatch.setattr(admission, "BLOCK_TIMEOUT", 0.2)
        with SimulationService(jobs=1, use_cache=False) as service:
            running = service.submit(SLOW_POINT[0], SLOW_POINT[1], SLOW_ROWS)
            wait_for_running(service, running)
            service.submit(*QUICK_POINT, ROWS)
            with pytest.raises(ServiceOverloadError):
                service.submit(*QUICK_POINT, ROWS, seed=7, block=True)
            service.cancel(running)

    def test_cache_hit_bypasses_admission(self, tmp_path, one_pending):
        with SimulationService(jobs=1, cache_dir=tmp_path / "c") as service:
            warm = service.wait([service.submit(*QUICK_POINT, ROWS)],
                                timeout=120)[0]
            assert warm.state is JobState.DONE
            running = service.submit(SLOW_POINT[0], SLOW_POINT[1], SLOW_ROWS)
            wait_for_running(service, running)
            service.submit(*QUICK_POINT, ROWS, seed=7)  # queue now full
            # a warm point still answers instantly under overload
            hit = service.wait([service.submit(*QUICK_POINT, ROWS)],
                               timeout=30)[0]
            assert hit.cached is True
            assert hit.state is JobState.DONE
            service.cancel(running)


class TestBackoff:
    def test_delay_doubles_and_jitters_deterministically(self, monkeypatch):
        assert backoff_delay(1, "k") == backoff_delay(1, "k")
        assert backoff_delay(1, "k") != backoff_delay(1, "other")
        assert backoff_delay(1, "k") != backoff_delay(2, "k")
        monkeypatch.setattr(admission, "BACKOFF_BASE", 0.1)
        monkeypatch.setattr(admission, "BACKOFF_CAP", 100.0)
        for attempt in (1, 2, 3, 4):
            delay = backoff_delay(attempt, "k")
            nominal = 0.1 * 2 ** (attempt - 1)
            assert nominal * 0.5 <= delay < nominal  # jitter in [0.5, 1.0)
        monkeypatch.setattr(admission, "BACKOFF_BASE", 1.0)
        monkeypatch.setattr(admission, "BACKOFF_CAP", 2.0)
        assert backoff_delay(12, "k") <= 2.0  # capped

    def test_retry_is_delayed_and_the_delay_is_logged(self):
        with SimulationService(jobs=1, use_cache=False) as service:
            ticket = service.submit(SLOW_POINT[0], SLOW_POINT[1], SLOW_ROWS)
            record = wait_for_running(service, ticket)
            os.kill(record.worker_pid, signal.SIGKILL)
            done = service.wait([ticket], timeout=180)[0]
        assert done.state is JobState.DONE
        assert done.attempts == 2
        entry = done.attempt_log[0]
        assert entry["kind"] == "crash"
        # the backoff before attempt 2 is surfaced, positive, and exactly
        # the deterministic schedule for this point key
        assert entry["retry_in"] == backoff_delay(1, ticket.key)
        assert entry["retry_in"] > 0


class TestDeadlines:
    DEADLINE_ROWS = 262_144  # first pass boundary lands ~1s into the run

    def test_queued_job_past_deadline_expires_without_running(self):
        with SimulationService(jobs=1, use_cache=False) as service:
            running = service.submit(SLOW_POINT[0], SLOW_POINT[1], SLOW_ROWS)
            wait_for_running(service, running)
            doomed = service.submit(*QUICK_POINT, ROWS, deadline=0.05)
            record = service.wait([doomed], timeout=30)[0]
            assert record.state is JobState.EXPIRED
            assert record.attempts == 0  # never reached a worker
            assert "queued" in record.error
            assert service.expired_jobs == 1
            service.cancel(running)

    def test_running_job_checkpoint_stops_at_deadline_then_resumes(
        self, tmp_path, monkeypatch
    ):
        reference = run_scan(*SLOW_POINT, rows=self.DEADLINE_ROWS,
                             seed=1994).to_dict()
        monkeypatch.setattr(service_module, "DEADLINE_GRACE", 60.0)
        with SimulationService(
            jobs=1, use_cache=False, checkpoint_dir=tmp_path / "ckpt",
        ) as service:
            ticket = service.submit(SLOW_POINT[0], SLOW_POINT[1],
                                    self.DEADLINE_ROWS, deadline=0.6)
            record = service.wait([ticket], timeout=120)[0]
            assert record.state is JobState.EXPIRED
            assert record.attempt_log[-1]["kind"] == "expired"
            assert "checkpoint-stopped" in record.error
            # the deadline bounded the attempt, not the progress: a
            # resubmission resumes from the snapshot, bit-identically
            again = service.submit(SLOW_POINT[0], SLOW_POINT[1],
                                   self.DEADLINE_ROWS)
            done = service.wait([again], timeout=180)[0]
            assert done.state is JobState.DONE
            assert done.resumed_from_pass is not None
            assert done.result.to_dict() == reference


class TestDrain:
    def test_drain_checkpoints_running_drains_queued_and_resumes(
        self, tmp_path, monkeypatch
    ):
        reference = run_scan(*SLOW_POINT, rows=SLOW_ROWS, seed=1994).to_dict()
        monkeypatch.setattr(service_module, "DRAIN_GRACE", 60.0)
        with SimulationService(
            jobs=1, use_cache=False, checkpoint_dir=tmp_path / "ckpt",
        ) as service:
            running = service.submit(SLOW_POINT[0], SLOW_POINT[1], SLOW_ROWS)
            queued = service.submit(*QUICK_POINT, ROWS)
            wait_for_running(service, running)
            summary = service.drain()
            assert service.draining
            assert summary["drained"] == 2
            assert summary["killed"] == 0  # voluntary stop within grace
            assert service.status(queued).state is JobState.DRAINED
            stopped = service.status(running)
            assert stopped.state is JobState.DRAINED
            assert "checkpoint-stopped" in stopped.error
            with pytest.raises(ServiceDrainingError):
                service.submit(*QUICK_POINT, ROWS, seed=7)
            service.close()
        # a successor service resumes the drained point from its snapshot
        with SimulationService(
            jobs=1, use_cache=False, checkpoint_dir=tmp_path / "ckpt",
        ) as successor:
            done = successor.wait(
                [successor.submit(SLOW_POINT[0], SLOW_POINT[1], SLOW_ROWS)],
                timeout=180,
            )[0]
            assert done.state is JobState.DONE
            assert done.resumed_from_pass is not None
            assert successor.resumed_jobs == 1
            assert done.result.to_dict() == reference

    def test_close_drain_true_is_the_sigterm_story(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setattr(service_module, "DRAIN_GRACE", 60.0)
        service = SimulationService(jobs=1, use_cache=False,
                                    checkpoint_dir=tmp_path / "ckpt")
        ticket = service.submit(SLOW_POINT[0], SLOW_POINT[1], SLOW_ROWS)
        wait_for_running(service, ticket)
        service.close(drain=True)
        assert service.status(ticket).state is JobState.DRAINED
        assert service.drained_jobs == 1

    def test_stray_worker_sigterm_checkpoints_and_requeues(self, tmp_path):
        # SIGTERM to a *worker* (not a service drain) must not lose the
        # job: the handler only raises a flag, any in-flight checkpoint
        # write completes untorn, the point checkpoint-stops at its next
        # boundary and a fresh worker resumes it — without consuming the
        # crash-retry budget (retries=0 here).
        reference = run_scan(*SLOW_POINT, rows=SLOW_ROWS, seed=1994).to_dict()
        with SimulationService(
            jobs=1, use_cache=False, retries=0,
            checkpoint_dir=tmp_path / "ckpt",
        ) as service:
            ticket = service.submit(SLOW_POINT[0], SLOW_POINT[1], SLOW_ROWS)
            record = wait_for_running(service, ticket)
            os.kill(record.worker_pid, signal.SIGTERM)
            done = service.wait([ticket], timeout=180)[0]
            assert done.state is JobState.DONE
            assert done.recycles == 1
            assert done.attempt_log[0]["kind"] == "drained"
            assert done.resumed_from_pass is not None
            assert done.result.to_dict() == reference


class TestResourceGovernance:
    def test_cancel_midrun_releases_admission_and_image_refs(self):
        with SimulationService(jobs=2, use_cache=False) as service:
            ticket = service.submit(SLOW_POINT[0], SLOW_POINT[1], SLOW_ROWS)
            wait_for_running(service, ticket)
            service.cancel(ticket)
            # the service keeps serving after a mid-run cancel
            after = service.wait([service.submit(*QUICK_POINT, ROWS)],
                                 timeout=120)[0]
            assert after.state is JobState.DONE

    def test_healthz_snapshot_shape(self):
        with SimulationService(jobs=1, use_cache=False) as service:
            service.wait([service.submit(*QUICK_POINT, ROWS)], timeout=120)
            snapshot = service.healthz()
        assert snapshot["status"] == "ok"
        assert snapshot["jobs"]["done"] == 1
        assert snapshot["workers"]["max"] == 1
        assert "max_pending" in snapshot["admission"]
        assert snapshot["shm"]["images"] >= 1
        assert snapshot["counters"]["drained_jobs"] == 0


class TestLifecycle:
    def test_submit_after_close_rejected(self):
        service = SimulationService(jobs=1, use_cache=False)
        service.close()
        with pytest.raises(RuntimeError):
            service.submit("hive", ScanConfig("dsm", "column", 256), ROWS)

    def test_close_is_idempotent_and_unlinks_images(self):
        service = SimulationService(jobs=1, use_cache=False)
        ticket = service.submit("hive", ScanConfig("dsm", "column", 256), ROWS)
        service.wait([ticket], timeout=60)
        names = [image._shm.name for image in service._images.values()]
        service.close()
        service.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                from multiprocessing import shared_memory

                shared_memory.SharedMemory(name=name)
