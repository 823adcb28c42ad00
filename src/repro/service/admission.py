"""Admission control: a bounded queue and structured load-shedding.

PR 6's service accepted every submit unconditionally — a burst of jobs
(a misbehaving client, a fan-out script in a loop) grew the pending
deque without bound, and the first sign of overload was the host
swapping.  The service now guards its queue:

* **Bounded pending queue** — at most :data:`MAX_PENDING` jobs may wait
  for a worker.  Beyond that the service *load-sheds*: the submit fails
  fast with a structured :class:`ServiceOverloadError` (HTTP 429 with a
  ``Retry-After`` on the wire) instead of queuing unboundedly.  Callers
  that prefer waiting to failing (the batch engine's
  ``execute_points``) opt into **blocking admission** per submit, which
  parks the submitter until room opens or :data:`BLOCK_TIMEOUT` runs
  out.
* **Drain status** — a draining service rejects every submit with
  :class:`ServiceDrainingError` so clients can tell "overloaded, retry
  later" (429) from "shutting down, go elsewhere" (503).

Both limits are module constants, read at each submit.  Retries back
off per :func:`backoff_delay`.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Optional

#: bound on the pending queue — deep enough that a full sweep (4 archs
#: x a config grid) queues, shallow enough that runaway submission is
#: caught within seconds of work, not hours
MAX_PENDING = 256

#: patience of a blocking submit before it gives up and sheds
BLOCK_TIMEOUT = 60.0


class ServiceOverloadError(RuntimeError):
    """The service refused a submit to protect itself (fail fast).

    Structured so front ends can answer usefully: ``reason`` is
    ``"queue_full"``, ``limit``/``current`` quantify the breach, and
    ``retry_after`` is the suggested client backoff in seconds (the
    HTTP API sends it as ``Retry-After``).
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


# -- retry backoff ------------------------------------------------------------

#: first-retry delay; doubles per attempt up to the cap
BACKOFF_BASE = 0.05
BACKOFF_CAP = 5.0


def backoff_delay(attempt: int, key: Optional[str]) -> float:
    """Exponential backoff with *deterministic* jitter for retry N.

    ``attempt`` is the attempt that just failed (1-based); the delay
    doubles per attempt from :data:`BACKOFF_BASE` up to
    :data:`BACKOFF_CAP`, then a jitter factor in [0.5, 1.0) — seeded
    from the point key and the attempt, not from a clock — decorrelates
    retries of different points without sacrificing reproducibility:
    the same point failing the same way waits the same time, every run,
    which is what lets chaos tests pin the attempt log exactly.
    """
    delay = min(BACKOFF_CAP, BACKOFF_BASE * (2 ** max(0, attempt - 1)))
    seed = f"{key or 'keyless'}:{attempt}".encode()
    word = int.from_bytes(hashlib.sha256(seed).digest()[:4], "big")
    jitter = 0.5 + (word / 2**32) * 0.5
    return round(delay * jitter, 6)
