"""Tests for the HTTP front end (repro.service.http_api).

The contract under test is the ISSUE 9 acceptance list for the wire
layer: the JSON routes round-trip submit/status/progress/cancel/healthz
faithfully, overload is shed as a structured 429 with a Retry-After
hint, drain answers 503 so clients can tell shutdown from shed, and —
the load acceptance criterion — a burst of 4x queue capacity over HTTP
under fault injection completes with zero lost or duplicated results,
every one bit-identical to an unfaulted reference run.
"""

import contextlib
import time

import pytest

from repro.codegen.base import ScanConfig
from repro.service import (
    HTTPServiceError,
    ServiceClient,
    SimulationService,
    start_http_server,
)
from repro.service import admission
from repro.service import service as service_module
from repro.service.http_api import TERMINAL_STATES
from repro.sim.runner import run_scan
from repro.testing import faults

ROWS = 256
POINT = ("hive", ScanConfig("dsm", "column", 256))

#: slow enough (~1.5 s cold, pass boundaries near 0.5 s and 1.05 s)
#: that a job can reliably be observed RUNNING and drained mid-flight
SLOW_POINT = ("x86", ScanConfig("dsm", "column", 64))
SLOW_ROWS = 131_072


@contextlib.contextmanager
def serving(**kwargs):
    """A SimulationService behind an ephemeral-port HTTP server."""
    service = SimulationService(**kwargs)
    server = start_http_server(service)
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}", timeout=30.0)
    try:
        yield service, client
    finally:
        server.shutdown()
        server.server_close()
        service.close(force=True)


def wait_http_running(client, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = client.status(job_id)
        if record["state"] == "running":
            return record
        if record["state"] in TERMINAL_STATES:
            raise AssertionError(f"job went {record['state']} before running")
        time.sleep(0.01)
    raise AssertionError("job never reached running over HTTP")


def submit_retrying(api, *args, give_up=60.0, **kwargs):
    """Submit over HTTP, honouring 429 Retry-After — the client-side
    half of the admission-control protocol."""
    deadline = time.monotonic() + give_up
    while True:
        try:
            return api.submit(*args, **kwargs)
        except HTTPServiceError as exc:
            if not exc.overloaded or time.monotonic() > deadline:
                raise
            time.sleep(float(exc.payload.get("retry_after", 0.2)))


class TestRoutes:
    def test_submit_status_roundtrip_is_bit_identical(self):
        reference = run_scan(POINT[0], POINT[1], ROWS).to_dict()
        with serving(jobs=2, use_cache=False) as (_service, client):
            record = client.submit(POINT[0], POINT[1], ROWS)
            assert record["state"] in ("pending", "running")
            assert record["arch"] == POINT[0]
            final = client.wait([record["id"]], timeout=60)[0]
        assert final["state"] == "done"
        assert final["result"] == reference

    def test_progress_counts_every_job(self):
        with serving(jobs=2, use_cache=False) as (_service, client):
            ids = [
                client.submit(POINT[0], POINT[1], ROWS, seed=s)["id"]
                for s in (1, 2)
            ]
            client.wait(ids, timeout=60)
            counts = client.progress()
        assert counts["total"] == 2
        assert counts["done"] == 2

    def test_cancel_roundtrip(self):
        with serving(jobs=2, use_cache=False) as (_service, client):
            record = client.submit(SLOW_POINT[0], SLOW_POINT[1], SLOW_ROWS)
            wait_http_running(client, record["id"])
            answer = client.cancel(record["id"])
            assert answer == {"id": record["id"], "cancelled": True}
            final = client.wait([record["id"]], timeout=60)[0]
        assert final["state"] == "cancelled"

    def test_unknown_job_is_404(self):
        with serving(jobs=1, use_cache=False) as (_service, client):
            with pytest.raises(HTTPServiceError) as excinfo:
                client.status(999)
        assert excinfo.value.status == 404
        assert excinfo.value.payload["error"] == "unknown_job"

    def test_malformed_submit_is_400(self):
        with serving(jobs=1, use_cache=False) as (_service, client):
            with pytest.raises(HTTPServiceError) as excinfo:
                client._request("POST", "/submit", {"arch": "hive"})
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error"] == "bad_request"

    def test_unknown_route_is_404(self):
        with serving(jobs=1, use_cache=False) as (_service, client):
            with pytest.raises(HTTPServiceError) as excinfo:
                client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_healthz_reports_ok_then_draining(self):
        with serving(jobs=1, use_cache=False) as (service, client):
            snapshot = client.healthz()
            assert snapshot["status"] == "ok"
            assert snapshot["workers"]["max"] == 1
            service.drain()
            # healthz keeps answering while draining — as a 503 whose
            # body is still the full snapshot (load balancers read the
            # code, operators read the body).
            snapshot = client.healthz()
            assert snapshot["status"] == "draining"


class TestOverloadHTTP:
    def test_queue_full_sheds_as_429_with_retry_after(self, monkeypatch):
        monkeypatch.setattr(admission, "MAX_PENDING", 1)
        with serving(jobs=1, use_cache=False) as (_service, client):
            running = client.submit(SLOW_POINT[0], SLOW_POINT[1], SLOW_ROWS)
            wait_http_running(client, running["id"])
            client.submit(POINT[0], POINT[1], ROWS)  # fills the queue
            with pytest.raises(HTTPServiceError) as excinfo:
                client.submit(POINT[0], POINT[1], ROWS, seed=7)
            assert excinfo.value.overloaded
            payload = excinfo.value.payload
            assert payload["error"] == "overload"
            assert payload["reason"] == "queue_full"
            assert payload["retry_after"] > 0

    def test_draining_service_answers_503_on_submit(self):
        with serving(jobs=1, use_cache=False) as (service, client):
            service.drain()
            with pytest.raises(HTTPServiceError) as excinfo:
                client.submit(POINT[0], POINT[1], ROWS)
            assert excinfo.value.draining
            assert excinfo.value.payload["error"] == "draining"


class TestLoadBurst:
    """The acceptance criterion: a 4x-capacity HTTP burst under fault
    injection loses nothing, duplicates nothing, and stays bit-identical
    to unfaulted references."""

    BURST = 16  # 4x the MAX_PENDING = 4 admission bound below

    def _references(self):
        return {
            seed: run_scan(POINT[0], POINT[1], ROWS, seed=seed).to_dict()
            for seed in range(self.BURST)
        }

    def _burst(self, client):
        ids = []
        for seed in range(self.BURST):
            record = submit_retrying(client, POINT[0], POINT[1], ROWS,
                                     seed=seed)
            ids.append(record["id"])
        return ids

    @pytest.mark.parametrize(
        "spec,extra",
        [
            ("kill@start,attempt=1", {}),
            ("hang@start,attempt=1", {"timeout": 1.0}),
        ],
        ids=["kill", "hang"],
    )
    def test_burst_under_faults_loses_nothing(self, monkeypatch, spec, extra):
        references = self._references()
        monkeypatch.setenv(faults.ENV_VAR, spec)
        monkeypatch.setattr(admission, "MAX_PENDING", 4)
        with serving(
            jobs=2, use_cache=False, retries=1, **extra
        ) as (service, client):
            ids = self._burst(client)
            assert len(set(ids)) == self.BURST  # no duplicated admissions
            finals = client.wait(ids, timeout=120)
            counts = client.progress()
        assert counts["total"] == self.BURST  # nothing lost service-side
        assert [f["state"] for f in finals] == ["done"] * self.BURST
        for seed, final in enumerate(finals):
            assert final["attempts"] == 2  # first attempt faulted, retried
            assert final["result"] == references[seed]

    def test_burst_with_result_enospc_still_completes(
        self, monkeypatch, tmp_path
    ):
        references = self._references()
        monkeypatch.setenv(
            faults.ENV_VAR, "kill@start,attempt=1;enospc@result"
        )
        monkeypatch.setattr(admission, "MAX_PENDING", 4)
        with serving(
            jobs=2, cache_dir=tmp_path / "cache", retries=1
        ) as (service, client):
            ids = self._burst(client)
            finals = client.wait(ids, timeout=120)
        assert [f["state"] for f in finals] == ["done"] * self.BURST
        for seed, final in enumerate(finals):
            assert final["result"] == references[seed]
        # the cache degraded to uncached rather than failing the jobs
        assert not list((tmp_path / "cache").glob("*.json"))


class TestDrainRestartHTTP:
    def test_drain_over_http_then_successor_resumes(self, tmp_path,
                                                     monkeypatch):
        ckpt = tmp_path / "ckpt"
        reference = run_scan(SLOW_POINT[0], SLOW_POINT[1], SLOW_ROWS).to_dict()
        monkeypatch.setattr(service_module, "DRAIN_GRACE", 60)
        with serving(
            jobs=2, use_cache=False, checkpoint_dir=ckpt,
        ) as (_service, client):
            record = client.submit(SLOW_POINT[0], SLOW_POINT[1], SLOW_ROWS)
            wait_http_running(client, record["id"])
            summary = client.drain()
            assert summary == {"drained": 1, "killed": 0}
            assert client.status(record["id"])["state"] == "drained"
            with pytest.raises(HTTPServiceError) as excinfo:
                client.submit(POINT[0], POINT[1], ROWS)
            assert excinfo.value.draining
        # A restarted service on the same checkpoint directory picks the
        # drained job up from its last completed pass, bit-identically.
        with serving(
            jobs=2, use_cache=False, checkpoint_dir=ckpt,
        ) as (_service, client):
            record = client.submit(SLOW_POINT[0], SLOW_POINT[1], SLOW_ROWS)
            final = client.wait([record["id"]], timeout=120)[0]
        assert final["state"] == "done"
        assert final["resumed_from_pass"] is not None
        assert final["result"] == reference
