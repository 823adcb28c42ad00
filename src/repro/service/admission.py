"""Admission control: bounded queues, quotas, and structured load-shedding.

PR 6's service accepted every submit unconditionally — a burst of jobs
(an HTAP-style mixed arrival pattern, a misbehaving client, a fan-out
script in a loop) grew the pending deque without bound, and the first
sign of overload was the host swapping.  This module is the explicit
policy layer in front of the queue:

* **Bounded pending queue** — at most ``max_pending`` jobs may wait for
  a worker.  Beyond that the service *load-sheds*: the submit fails
  fast with a structured :class:`ServiceOverloadError` (HTTP 429 with a
  ``Retry-After`` on the wire) instead of queuing unboundedly.  Callers
  that prefer waiting to failing (the batch engine's
  ``execute_points``) opt into **blocking admission** per submit, which
  parks the submitter until room opens or its patience runs out.
* **Per-client / per-class quotas** — each submit carries a ``client``
  identity and a ``job_class`` label (defaults: ``"anonymous"`` /
  ``"default"``); quotas bound each one's *outstanding* (pending +
  running) jobs so one bulk client cannot starve interactive
  submitters — the mixed-workload shape where overload actually bites.
* **Drain status** — a draining service rejects every submit with
  :class:`ServiceDrainingError` so clients can tell "overloaded, retry
  later" (429) from "shutting down, go elsewhere" (503).

The controller's counters are mutated only under the service's
condition lock (the service calls :meth:`AdmissionController.admit` and
:meth:`~AdmissionController.release` with it held), so the controller
itself carries no locking.

Knobs (arguments of :class:`AdmissionController`, passed through by
:class:`~repro.service.SimulationService`): ``max_pending`` (queue
capacity, default 256), ``client_quota`` (outstanding jobs per client,
default unlimited) and ``class_quotas`` (``{"bulk": 8}`` style, default
unlimited); ``None`` means unlimited for each.  The service's
``block_timeout`` (blocking-admission patience, default 60 s) bounds
``submit(..., block=True)``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

#: default bound on the pending queue — deep enough that a full sweep
#: (4 archs x a config grid) queues, shallow enough that runaway
#: submission is caught within seconds of work, not hours
DEFAULT_MAX_PENDING = 256

#: default patience of a blocking admit before it gives up and sheds
DEFAULT_BLOCK_TIMEOUT = 60.0

#: client/class identities a submit defaults to when the caller has none
DEFAULT_CLIENT = "anonymous"
DEFAULT_CLASS = "default"


class ServiceOverloadError(RuntimeError):
    """The service refused a submit to protect itself (fail fast).

    Structured so front ends can answer usefully: ``reason`` is one of
    ``"queue_full"`` / ``"client_quota"`` / ``"class_quota"``,
    ``limit``/``current`` quantify the breach, and ``retry_after`` is
    the suggested client backoff in seconds (the HTTP API sends it as
    ``Retry-After``).
    """

    def __init__(
        self,
        reason: str,
        limit: int,
        current: int,
        detail: str = "",
        retry_after: float = 1.0,
    ) -> None:
        super().__init__(
            f"service overloaded ({reason}: {current} >= {limit}"
            + (f", {detail}" if detail else "") + ")"
        )
        self.reason = reason
        self.limit = limit
        self.current = current
        self.detail = detail
        self.retry_after = retry_after

    def to_dict(self) -> Dict[str, Any]:
        return {
            "error": "overload",
            "reason": self.reason,
            "limit": self.limit,
            "current": self.current,
            "detail": self.detail,
            "retry_after": self.retry_after,
        }


class ServiceDrainingError(RuntimeError):
    """The service is draining (or drained): submits are rejected.

    Distinct from :class:`ServiceOverloadError` on purpose — overload
    says "try again soon", draining says "this instance is going away;
    resubmit to its successor, which will resume from the checkpoints".
    """

    def __init__(self, detail: str = "service is draining") -> None:
        super().__init__(detail)

    def to_dict(self) -> Dict[str, Any]:
        return {"error": "draining", "detail": str(self)}


class AdmissionController:
    """The submit-side gate: counts outstanding load, sheds the excess.

    All methods are called with the owning service's lock held; the
    counters track *outstanding* jobs (pending + running — released at
    any terminal state), while the queue bound is checked against the
    live pending length the service passes in.
    """

    def __init__(
        self,
        max_pending: Optional[int] = DEFAULT_MAX_PENDING,
        client_quota: Optional[int] = None,
        class_quotas: Optional[Dict[str, int]] = None,
    ) -> None:
        self.max_pending = max_pending
        self.client_quota = client_quota
        self.class_quotas = dict(class_quotas or {})
        self.outstanding_by_client: Dict[str, int] = {}
        self.outstanding_by_class: Dict[str, int] = {}
        self.rejected = 0

    # -- the gate ------------------------------------------------------------

    def admit(self, client: str, job_class: str, pending_len: int) -> None:
        """Account one submit, or raise :class:`ServiceOverloadError`."""
        if self.max_pending is not None and pending_len >= self.max_pending:
            self.rejected += 1
            raise ServiceOverloadError(
                "queue_full", self.max_pending, pending_len,
                detail=f"pending queue at capacity {self.max_pending}",
            )
        held = self.outstanding_by_client.get(client, 0)
        if self.client_quota is not None and held >= self.client_quota:
            self.rejected += 1
            raise ServiceOverloadError(
                "client_quota", self.client_quota, held,
                detail=f"client {client!r} at its outstanding-job quota",
            )
        class_limit = self.class_quotas.get(job_class)
        class_held = self.outstanding_by_class.get(job_class, 0)
        if class_limit is not None and class_held >= class_limit:
            self.rejected += 1
            raise ServiceOverloadError(
                "class_quota", class_limit, class_held,
                detail=f"job class {job_class!r} at its quota",
            )
        self.outstanding_by_client[client] = held + 1
        self.outstanding_by_class[job_class] = class_held + 1

    def release(self, client: str, job_class: str) -> None:
        """One admitted job reached a terminal state."""
        for table, key in (
            (self.outstanding_by_client, client),
            (self.outstanding_by_class, job_class),
        ):
            count = table.get(key, 0) - 1
            if count > 0:
                table[key] = count
            else:
                table.pop(key, None)

    def snapshot(self) -> Dict[str, Any]:
        """Telemetry for ``/healthz``."""
        return {
            "max_pending": self.max_pending,
            "client_quota": self.client_quota,
            "class_quotas": dict(self.class_quotas),
            "outstanding_by_client": dict(self.outstanding_by_client),
            "outstanding_by_class": dict(self.outstanding_by_class),
            "rejected": self.rejected,
        }


# -- retry backoff ------------------------------------------------------------

#: first-retry delay; doubles per attempt up to the cap
DEFAULT_BACKOFF_BASE = 0.05
DEFAULT_BACKOFF_CAP = 5.0


def backoff_delay(
    attempt: int,
    key: Optional[str],
    base: float = DEFAULT_BACKOFF_BASE,
    cap: float = DEFAULT_BACKOFF_CAP,
) -> float:
    """Exponential backoff with *deterministic* jitter for retry N.

    ``attempt`` is the attempt that just failed (1-based); the delay
    doubles per attempt from ``base`` up to ``cap``, then a jitter
    factor in [0.5, 1.0) — seeded from the point key and the attempt,
    not from a clock — decorrelates retries of different points without
    sacrificing reproducibility: the same point failing the same way
    waits the same time, every run, which is what lets chaos tests pin
    the attempt log exactly.
    """
    import hashlib

    delay = min(cap, base * (2 ** max(0, attempt - 1)))
    seed = f"{key or 'keyless'}:{attempt}".encode()
    word = int.from_bytes(hashlib.sha256(seed).digest()[:4], "big")
    jitter = 0.5 + (word / 2**32) * 0.5
    return round(delay * jitter, 6)
