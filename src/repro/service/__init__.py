"""Simulation-as-a-service: async jobs, streaming results, shared datasets.

Public surface::

    from repro.service import SimulationService

    with SimulationService(jobs=4) as service:
        tickets = [service.submit(arch, scan, rows=32_768)
                   for arch, scan in points]
        for record in service.stream(tickets):   # completion order
            print(record.ticket.label, record.state, record.result.cycles)

Crash safety (see :mod:`repro.sim.checkpoint` and
:mod:`repro.testing.faults`): workers checkpoint at every pass boundary
and heartbeat while simulating, so the supervisor retries dead or
silent workers from the last completed pass — bit-identical to an
uninterrupted run — instead of restarting points from zero.

Overload safety (see :mod:`repro.service.admission`): the pending queue
is bounded, and a submit past the bound is shed with a structured
:class:`ServiceOverloadError`; retries back off exponentially with
deterministic jitter; jobs carry deadlines past which they
checkpoint-stop; :meth:`SimulationService.drain` (or SIGTERM on the
HTTP host) checkpoint-stops everything so a restarted service resumes
from the snapshots.

The HTTP front end (:mod:`repro.service.http_api`) serves the same
engine over stdlib ``http.server``::

    from repro.service import SimulationService, start_http_server

    service = SimulationService()
    server = start_http_server(service, port=8642)

See :mod:`repro.service.service` for the engine and
:mod:`repro.service.worker` for the worker-side protocol.
"""

from .admission import (
    ServiceDrainingError,
    ServiceOverloadError,
    backoff_delay,
)
from .http_api import (
    HTTPServiceError,
    ServiceClient,
    ServiceHTTPServer,
    describe_record,
    install_drain_handler,
    start_http_server,
)
from .service import (
    JobRecord,
    JobState,
    SimulationService,
    Ticket,
)
from .worker import execute_point_payload, make_task_payload

__all__ = [
    "HTTPServiceError",
    "JobRecord",
    "JobState",
    "ServiceClient",
    "ServiceDrainingError",
    "ServiceHTTPServer",
    "ServiceOverloadError",
    "SimulationService",
    "Ticket",
    "backoff_delay",
    "describe_record",
    "execute_point_payload",
    "install_drain_handler",
    "make_task_payload",
    "start_http_server",
]
