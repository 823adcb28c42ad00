"""A stdlib HTTP front end for :class:`~repro.service.SimulationService`.

The service is a long-lived shared endpoint in spirit; this module makes
it one in fact, with nothing beyond :mod:`http.server` — no framework,
no new dependency, one file.  Routes (all JSON):

====================  =====================================================
``POST /submit``      body ``{"arch", "scan": {...}, "rows", "seed"?,
                      "scale"?, "deadline"?, "block"?}`` → the submitted
                      job's record (other keys are ignored)
``GET /status?id=N``  one job's full record (result inline once done)
``GET /progress``     state counts over every job the service has seen
``POST /cancel?id=N`` ``{"cancelled": bool}``
``GET /healthz``      the service health snapshot (admission, workers,
                      shared-memory images, telemetry counters)
``POST /drain``       graceful drain: checkpoint-stop everything,
                      reject new submits; ``{"drained", "killed"}``
====================  =====================================================

Error mapping is part of the protocol: **429** with a ``Retry-After``
header for :class:`~repro.service.admission.ServiceOverloadError`
("overloaded, try again soon"), **503** for
:class:`~repro.service.admission.ServiceDrainingError` and for a closed
service ("this instance is going away, go elsewhere"), **404** for an
unknown job id, **400** for a malformed request.  Clients can therefore
distinguish *shed* from *shutdown* without parsing prose.

:class:`ServiceClient` is the matching urllib client (used by
``tools/service_cli.py --http`` and the load tests);
:func:`install_drain_handler` wires SIGTERM to drain-then-stop so a
plain ``kill <pid>`` of a serving host checkpoint-stops every running
job before the process exits.
"""

from __future__ import annotations

import json
import signal
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Iterable, List, Optional
from urllib.parse import parse_qs, urlparse

from ..codegen.base import ScanConfig
from ..common.config import DEFAULT_SCALE
from .admission import ServiceDrainingError, ServiceOverloadError
from .service import JobRecord, SimulationService

#: job states a client may stop polling at
TERMINAL_STATES = ("done", "failed", "cancelled", "expired", "drained")


def describe_record(record: JobRecord) -> Dict[str, Any]:
    """One job record as a JSON-ready dict (the wire format)."""
    ticket = record.ticket
    return {
        "id": ticket.id,
        "label": ticket.label,
        "arch": ticket.arch,
        "scan": ticket.scan.to_dict(),
        "rows": ticket.rows,
        "seed": ticket.seed,
        "scale": ticket.scale,
        "key": ticket.key,
        "state": record.state.value,
        "cached": record.cached,
        "attempts": record.attempts,
        "recycles": record.recycles,
        "error": record.error,
        "progress": record.progress,
        "resumed_from_pass": record.resumed_from_pass,
        "attempt_log": record.attempt_log,
        "elapsed": record.elapsed,
        "deadline_at": record.deadline_at,
        "result": (
            record.result.to_dict() if record.result is not None else None
        ),
    }


class _Handler(BaseHTTPRequestHandler):
    """Route dispatcher; the owning server carries the service."""

    protocol_version = "HTTP/1.1"

    # -- plumbing -----------------------------------------------------------

    @property
    def service(self) -> SimulationService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:  # type: ignore[attr-defined]
            super().log_message(format, *args)

    def _reply(
        self,
        status: int,
        payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass

    def _body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return {}
        raw = self.rfile.read(length)
        payload = json.loads(raw.decode())
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _job_id(self, query: Dict[str, List[str]], body: Dict[str, Any]) -> int:
        raw = query.get("id", [None])[0]
        if raw is None:
            raw = body.get("id")
        if raw is None:
            raise ValueError("missing job id (?id=N or body {'id': N})")
        return int(raw)

    # -- routes -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib name
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)
        try:
            if parsed.path == "/healthz":
                snapshot = self.service.healthz()
                status = 200 if snapshot["status"] == "ok" else 503
                self._reply(status, snapshot)
            elif parsed.path == "/status":
                job_id = self._job_id(query, {})
                record = self.service.record_for(job_id)
                self._reply(200, describe_record(record))
            elif parsed.path == "/progress":
                self._reply(200, self.service.progress())
            else:
                self._reply(404, {"error": "not_found", "path": parsed.path})
        except KeyError:
            self._reply(404, {"error": "unknown_job"})
        except ValueError as exc:
            self._reply(400, {"error": "bad_request", "detail": str(exc)})

    def do_POST(self) -> None:  # noqa: N802 - stdlib name
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)
        try:
            body = self._body()
        except (ValueError, json.JSONDecodeError) as exc:
            self._reply(400, {"error": "bad_request", "detail": str(exc)})
            return
        try:
            if parsed.path == "/submit":
                self._submit(body)
            elif parsed.path == "/cancel":
                job_id = self._job_id(query, body)
                cancelled = self.service.cancel_id(job_id)
                self._reply(200, {"id": job_id, "cancelled": cancelled})
            elif parsed.path == "/drain":
                summary = self.service.drain()
                self._reply(200, summary)
            else:
                self._reply(404, {"error": "not_found", "path": parsed.path})
        except ServiceOverloadError as exc:
            self._reply(
                429, exc.to_dict(),
                headers={"Retry-After": f"{exc.retry_after:g}"},
            )
        except ServiceDrainingError as exc:
            self._reply(503, exc.to_dict())
        except KeyError:
            self._reply(404, {"error": "unknown_job"})
        except (ValueError, TypeError) as exc:
            self._reply(400, {"error": "bad_request", "detail": str(exc)})
        except RuntimeError as exc:
            # "service is closed" and kin: the instance is going away
            self._reply(503, {"error": "closed", "detail": str(exc)})

    def _submit(self, body: Dict[str, Any]) -> None:
        for field in ("arch", "scan", "rows"):
            if field not in body:
                raise ValueError(f"submit body missing {field!r}")
        scan = ScanConfig.from_dict(body["scan"])
        deadline = body.get("deadline")
        ticket = self.service.submit(
            str(body["arch"]),
            scan,
            int(body["rows"]),
            seed=int(body.get("seed", 1994)),
            scale=int(body.get("scale", DEFAULT_SCALE)),
            deadline=float(deadline) if deadline is not None else None,
            block=bool(body.get("block", False)),
        )
        self._reply(200, describe_record(self.service.record_for(ticket.id)))


class ServiceHTTPServer(ThreadingHTTPServer):
    """The serving socket; one per :class:`SimulationService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service: SimulationService,
                 verbose: bool = False) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.verbose = verbose


def start_http_server(
    service: SimulationService,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> ServiceHTTPServer:
    """Serve ``service`` on a daemon thread; returns the bound server.

    ``port=0`` binds an ephemeral port — read it back from
    ``server.server_address`` (the test harness does).
    """
    server = ServiceHTTPServer((host, port), service, verbose=verbose)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-service-http", daemon=True
    )
    thread.start()
    return server


def install_drain_handler(
    service: SimulationService, server: Optional[ServiceHTTPServer] = None
) -> None:
    """SIGTERM/SIGINT → graceful drain, then stop serving.

    Makes ``kill <pid>`` of a serving host mean "checkpoint-stop every
    running job, refuse new ones, exit" — the last completed pass of
    each job is on disk and a restarted service resumes from it.
    Only callable from the main thread (signal module rule).
    """

    def _drain(signum, frame):  # pragma: no cover - signal path
        service.drain()
        if server is not None:
            threading.Thread(target=server.shutdown, daemon=True).start()

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _drain)


class HTTPServiceError(RuntimeError):
    """A non-2xx answer from the service, with the structured body."""

    def __init__(self, status: int, payload: Dict[str, Any]) -> None:
        super().__init__(f"HTTP {status}: {payload}")
        self.status = status
        self.payload = payload

    @property
    def overloaded(self) -> bool:
        return self.status == 429

    @property
    def draining(self) -> bool:
        return self.status == 503


class ServiceClient:
    """The urllib client of the HTTP API (no dependency, thread-safe).

    Raises :class:`HTTPServiceError` on any non-2xx answer; inspect
    ``.overloaded`` / ``.draining`` to tell shed from shutdown.
    """

    def __init__(self, base_url: str, timeout: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- wire ---------------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            self.base_url + path, data=data, method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as rsp:
                return json.loads(rsp.read().decode())
        except urllib.error.HTTPError as exc:
            try:
                payload = json.loads(exc.read().decode())
            except (ValueError, OSError):
                payload = {"error": "http", "detail": str(exc)}
            raise HTTPServiceError(exc.code, payload) from None

    # -- API ----------------------------------------------------------------

    def submit(
        self,
        arch: str,
        scan: ScanConfig | Dict[str, Any],
        rows: int,
        *,
        seed: int = 1994,
        scale: int = DEFAULT_SCALE,
        deadline: Optional[float] = None,
        block: bool = False,
    ) -> Dict[str, Any]:
        scan_payload = scan.to_dict() if isinstance(scan, ScanConfig) else scan
        return self._request("POST", "/submit", {
            "arch": arch, "scan": scan_payload, "rows": rows,
            "seed": seed, "scale": scale, "deadline": deadline,
            "block": block,
        })

    def status(self, job_id: int) -> Dict[str, Any]:
        return self._request("GET", f"/status?id={int(job_id)}")

    def progress(self) -> Dict[str, Any]:
        return self._request("GET", "/progress")

    def cancel(self, job_id: int) -> Dict[str, Any]:
        return self._request("POST", f"/cancel?id={int(job_id)}")

    def healthz(self) -> Dict[str, Any]:
        try:
            return self._request("GET", "/healthz")
        except HTTPServiceError as exc:
            if exc.status == 503 and "status" in exc.payload:
                return exc.payload  # draining/closed is still an answer
            raise

    def drain(self) -> Dict[str, Any]:
        return self._request("POST", "/drain")

    def wait(
        self,
        job_ids: Iterable[int],
        timeout: Optional[float] = None,
        poll: float = 0.2,
    ) -> List[Dict[str, Any]]:
        """Poll ``/status`` until every job is terminal; records in order."""
        import time as _time

        job_ids = [int(j) for j in job_ids]
        deadline = None if timeout is None else _time.monotonic() + timeout
        done: Dict[int, Dict[str, Any]] = {}
        while len(done) < len(job_ids):
            for job_id in job_ids:
                if job_id in done:
                    continue
                record = self.status(job_id)
                if record["state"] in TERMINAL_STATES:
                    done[job_id] = record
            if len(done) == len(job_ids):
                break
            if deadline is not None and _time.monotonic() > deadline:
                missing = [j for j in job_ids if j not in done]
                raise TimeoutError(f"jobs still outstanding: {missing}")
            _time.sleep(poll)
        return [done[j] for j in job_ids]
