"""Worker-side protocol of the simulation service.

One persistent process per worker slot runs :func:`worker_main`: a loop
over its own duplex pipe to the supervisor, which dispatches at most one
job to a worker at a time, so crash attribution is exact.  The worker
sends every message itself, whole, before it reads its next job, so a
kill tears at most its own pipe.  The payload format is plain
dicts/tuples (a serialised :class:`~repro.sim.results.RunResult` comes
back, each number keeping its JSON type); datasets travel as
:class:`~repro.memory.shared_data.DatasetHandle` descriptors and are
attached (mapped, not copied) once per dataset per worker.  These
workers are also the :class:`~repro.sim.engine.ExperimentEngine`'s:
its parallel cache misses run on a service it owns.

Jobs arrive as ``(job_id, payload)``; ``None`` is the shutdown
sentinel.  Messages to the supervisor::

    ("done",      job_id, {"result": run_result_dict,
                           "resumed_from_pass": int | None})
    ("error",     job_id, formatted_traceback_str)
    ("heartbeat", job_id, {"runs": int, "pass": int})
    ("stopped",   job_id, {"reason": "deadline" | "drain", "pass": int})

``stopped`` is a *voluntary* checkpoint-then-stop, decided at a pass
boundary right after its snapshot went to disk:

* ``deadline``: a job submitted with a deadline (absolute wall-clock
  epoch in the payload) abandons at the first boundary past it —
  partial work stays resumable, only this attempt's clock is bounded;
* ``drain``: a SIGTERM to the worker sets a drain flag (the handler
  does nothing else, so an in-flight checkpoint write completes untorn)
  and the running point checkpoint-stops at its next boundary.  The
  worker exits after it; a SIGTERM that was no service drain requeues
  the job on a fresh worker, which resumes from the snapshot.

Heartbeats flow while a point simulates — at job start, throttled per
consumed run, and at every pass boundary — and are what the
supervisor's progress-aware watchdog listens to: a worker is only
killed for heartbeat *silence*, never for being legitimately slow.

Crash recovery is checkpoint-aware: the payload may carry a
``checkpoint`` descriptor (sidecar directory + point key), in which
case the worker snapshots the machine at every pass boundary via
:class:`~repro.sim.checkpoint.RunMonitor` and a retried job resumes
from its predecessor's last completed pass — bit-identical to an
uninterrupted run — instead of restarting from zero.  On success the
worker's monitor discards the snapshot before the result is sent.

A worker that dies without answering (segfault, ``kill -9``, OOM), even
in the middle of a message, ends its pipe; the supervisor handles what
the worker sent whole before that and retries the job it held, bounded
by the service's retry budget.  A Python exception inside
:func:`~repro.sim.runner.run_scan` is deterministic and is *not*
retried — it comes back as an ``error`` message and fails the job with
the worker traceback attached.

Fault injection (chaos tests only; inert without ``REPRO_FAULTS``):
``start`` fires when a job is picked up, ``pass`` at each pass boundary
*after* its checkpoint is written, and ``result`` just before the done
message — a ``drop`` there models a lost message, which the watchdog
then recovers via heartbeat silence.
"""

from __future__ import annotations

import gc
import signal
import traceback
from typing import Any, Callable, Dict, Optional

from ..testing import faults

#: set by the worker's SIGTERM handler; observed at pass boundaries
_DRAIN_REQUESTED = False


def _request_drain(signum, frame):  # pragma: no cover - signal path
    global _DRAIN_REQUESTED
    _DRAIN_REQUESTED = True


def make_task_payload(
    arch: str,
    scan_payload: Dict[str, Any],
    rows: int,
    seed: int,
    scale: int,
    dataset_handle: Any = None,
    plan_payload: Dict[str, Any] | None = None,
    checkpoint: Dict[str, Any] | None = None,
    deadline_at: Optional[float] = None,
) -> Dict[str, Any]:
    """The picklable job payload — note: no column arrays, ever.

    ``checkpoint`` is ``{"dir": <sidecar directory>, "key": <point
    key>}`` when pass-boundary checkpointing is on; the supervisor adds
    the attempt number at dispatch time.  ``deadline_at`` is an
    absolute wall-clock epoch (``time.time()`` — comparable across
    processes, unlike monotonic clocks) past which the worker
    checkpoint-then-abandons.
    """
    return {
        "arch": arch,
        "scan": scan_payload,
        "rows": int(rows),
        "seed": int(seed),
        "scale": int(scale),
        "dataset": dataset_handle,
        "plan": plan_payload,
        "checkpoint": checkpoint,
        "deadline_at": deadline_at,
        "attempt": 1,
    }


def _build_monitor(
    payload: Dict[str, Any],
    heartbeat: Optional[Callable[[Dict[str, Any]], None]] = None,
):
    """The payload's RunMonitor: checkpoints, heartbeats, fault hooks,
    deadline enforcement and the drain stop check."""
    from ..sim.checkpoint import CheckpointStore, RunMonitor

    checkpoint = payload.get("checkpoint")
    store = key = None
    if checkpoint is not None and checkpoint.get("dir"):
        store = CheckpointStore(checkpoint["dir"])
        key = checkpoint.get("key")
    attempt = payload.get("attempt", 1)
    arch = payload.get("arch")

    def pass_hook(pass_ordinal: int) -> None:
        faults.fire("pass", **{
            "pass": pass_ordinal, "attempt": attempt, "arch": arch,
        })

    def stop_check(pass_ordinal: int) -> Optional[str]:
        return "drain" if _DRAIN_REQUESTED else None

    return RunMonitor(
        store=store, key=key, heartbeat=heartbeat, pass_hook=pass_hook,
        deadline=payload.get("deadline_at"), stop_check=stop_check,
        meta={"arch": arch, "rows": payload.get("rows"),
              "op_bytes": payload.get("scan", {}).get("op_bytes")},
    )


def execute_point_payload(
    payload: Dict[str, Any], monitor: Any = None
) -> Dict[str, Any]:
    """Simulate one job payload; returns the serialised RunResult.

    Shared by the service workers and (in-process) by tests: resolves
    the dataset from shared memory, rebuilds the plan, and runs the
    ordinary :func:`~repro.sim.runner.run_scan` — with the caller's
    ``monitor`` interposed when crash checkpointing is on.
    """
    from ..codegen.base import ScanConfig
    from ..db.plan import QueryPlan
    from ..memory.shared_data import attach_dataset
    from ..sim.runner import run_scan

    data = None
    if payload.get("dataset") is not None:
        data = attach_dataset(payload["dataset"])
    plan = None
    if payload.get("plan") is not None:
        plan = QueryPlan.from_dict(payload["plan"])
    result = run_scan(
        payload["arch"],
        ScanConfig.from_dict(payload["scan"]),
        rows=payload["rows"],
        seed=payload["seed"],
        scale=payload["scale"],
        data=data,
        plan=plan,
        monitor=monitor,
    )
    return result.to_dict()


def worker_main(conn) -> None:
    """Loop of one persistent service worker process on its pipe ``conn``."""
    from ..sim.checkpoint import CheckpointAbandon

    # SIGTERM means *drain*, not die: the handler only raises a flag, so
    # an in-flight checkpoint write finishes untorn and the running
    # point checkpoint-stops at its next pass boundary.
    try:
        signal.signal(signal.SIGTERM, _request_drain)
        # The parent forked us with SIGTERM blocked so no signal could
        # land before the handler above existed; lift the mask now — a
        # SIGTERM that arrived in between is delivered here, as a flag.
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    except (OSError, ValueError):  # pragma: no cover - exotic hosts
        pass
    # What the fork inherited is never garbage; each point's machine is
    # cyclic garbage, collected before the next point so a worker's peak
    # RSS stays that of its largest point.
    gc.freeze()
    while True:
        gc.collect()
        try:
            task = conn.recv()
        except EOFError:
            break  # the supervisor is gone
        if task is None:  # shutdown sentinel
            break
        job_id, payload = task
        attempt = payload.get("attempt", 1) if isinstance(payload, dict) else 1
        arch = payload.get("arch") if isinstance(payload, dict) else None
        faults.fire("start", attempt=attempt, arch=arch)

        def heartbeat(info: Dict[str, Any], _job=job_id) -> None:
            conn.send(("heartbeat", _job, info))

        stop = None
        try:
            monitor = _build_monitor(payload, heartbeat=heartbeat)
            heartbeat({"runs": 0, "pass": 0})  # job picked up
            result = execute_point_payload(payload, monitor=monitor)
        except CheckpointAbandon as exc:
            stop = exc.reason
            conn.send(("stopped", job_id, {
                "reason": stop, "pass": exc.pass_ordinal,
            }))
        except BaseException:
            conn.send(("error", job_id, traceback.format_exc()))
        else:
            if faults.fire("result", attempt=attempt, arch=arch):
                continue  # chaos: the done message is "lost in transit"
            conn.send(("done", job_id, {
                "result": result,
                "resumed_from_pass": monitor.resumed_from_pass,
            }))
        if stop == "drain":
            break  # the service is going away, or a fresh worker resumes
