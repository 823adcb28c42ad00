"""Simulation-as-a-service: a persistent async job engine over ``run_scan``.

:class:`SimulationService` is the serving-shaped executor of simulation
points; it is also what an :class:`~repro.sim.engine.ExperimentEngine`
runs its parallel cache misses on (an engine-owned service with no
cache of its own — the engine is the cache front there):

* **submit** a (plan, arch, config, rows, seed) point and get a
  :class:`Ticket` back immediately;
* **stream** results in *completion* order — fast points arrive while
  slow ones still simulate — with per-job progress, attempts and
  cache provenance;
* **cancel** pending or running jobs;
* crashed workers (``kill -9``, segfault, OOM) are detected by the
  supervisor and their job retried on a fresh worker, bounded by the
  retry budget; deterministic Python exceptions fail fast with the
  worker traceback and the point context attached;
* each distinct dataset is published once per host as a read-only
  :mod:`multiprocessing.shared_memory` image
  (:mod:`repro.memory.shared_data`) keyed by its content digest —
  workers map it instead of unpickling 6 M-row columns per point;
* a standalone service's on-disk :class:`~repro.sim.engine.ResultCache`
  is shared with ``ExperimentEngine`` — both derive datasets and keys
  with :func:`~repro.sim.engine.resolve_points`, so service results and
  batch sweep results are bit-identical cache peers (either side
  warm-hits what the other computed).

Architecture: a supervisor thread owns worker lifecycle.  Each worker
is a persistent process joined to the supervisor by its own duplex pipe
and holds at most one job, so when a worker dies the supervisor knows
exactly which job it held.  A worker sends each message whole, from its
own thread, before it reads its next job; the supervisor treats an
ended pipe (end of file, or a frame torn by a kill) as a dead worker
once every message that worker finished sending has been handled.  A
kill can therefore damage only the killed worker's own channel, never
another worker's answers.  All public methods are thread-safe.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from multiprocessing.connection import wait
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..codegen.base import ScanConfig
from ..common.config import DEFAULT_SCALE
from ..common.settings import setting
from ..db.datagen import LineitemData
from ..db.plan import QueryPlan
from ..memory.shared_data import DatasetImage, sweep_stale_segments
from ..sim.checkpoint import CheckpointStore
# data_digest is unused here: kept because perfbench/layertrace.py patches it
from ..sim.engine import (  # noqa: F401
    PointExecutionError,
    ResultCache,
    _resolve_jobs,
    cache_directories,
    data_digest,
    resolve_points,
)
from ..sim.results import RunResult
from .admission import (
    DEFAULT_BLOCK_TIMEOUT,
    DEFAULT_CLASS,
    DEFAULT_CLIENT,
    DEFAULT_MAX_PENDING,
    AdmissionController,
    ServiceDrainingError,
    ServiceOverloadError,
    backoff_delay,
)
from .worker import make_task_payload, worker_main


class JobState(str, Enum):
    """Lifecycle of one submitted point."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    #: deadline passed — the attempt checkpoint-stopped; partial work
    #: is preserved and a resubmission resumes from it
    EXPIRED = "expired"
    #: the service drained while this job was queued/running; its
    #: checkpoint (if any) is preserved for the successor service
    DRAINED = "drained"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED,
                        JobState.EXPIRED, JobState.DRAINED)


@dataclass(frozen=True)
class Ticket:
    """The receipt :meth:`SimulationService.submit` returns."""

    id: int
    arch: str
    scan: ScanConfig
    rows: int
    seed: int
    scale: int
    key: Optional[str]  # the point key (cache + checkpoint identity)

    @property
    def label(self) -> str:
        name = f"{self.arch.upper()}-{self.scan.op_bytes}B"
        if self.scan.unroll > 1:
            name += f"@{self.scan.unroll}x"
        return name


@dataclass
class JobRecord:
    """Live status of one job (treat streamed/returned records read-only)."""

    ticket: Ticket
    state: JobState = JobState.PENDING
    result: Optional[RunResult] = None
    error: Optional[str] = None
    attempts: int = 0
    cached: bool = False  # satisfied straight from the result cache
    worker_pid: Optional[int] = None
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    payload: Any = field(default=None, repr=False)
    #: monotonic time of the last worker heartbeat of the current attempt
    last_heartbeat: Optional[float] = None
    #: the last heartbeat's progress payload ({"runs": ..., "pass": ...})
    progress: Optional[Dict[str, Any]] = None
    #: the pass the successful attempt resumed from (None = ran from zero)
    resumed_from_pass: Optional[int] = None
    #: post-mortem of every *failed* attempt: kind (crash/stalled/
    #: exception/recycled/...), reason, duration, exitcode where known,
    #: and — for retried attempts — the backoff delay (``retry_in``)
    attempt_log: List[Dict[str, Any]] = field(default_factory=list)
    #: admission identity of the submitter (quota accounting)
    client: str = DEFAULT_CLIENT
    #: admission class of the job (quota accounting)
    job_class: str = DEFAULT_CLASS
    #: absolute wall-clock epoch past which the job checkpoint-abandons
    deadline_at: Optional[float] = None
    #: monotonic time before which a retry must not re-dispatch (backoff)
    not_before: Optional[float] = None
    #: the dataset digest this job holds a shared-image reference on
    digest: Optional[str] = None
    #: whether this job passed the admission gate (needs a release)
    admitted: bool = False
    #: voluntary checkpoint-and-requeue rounds (RSS recycles, stray
    #: SIGTERMs) — these do *not* consume the crash-retry budget
    recycles: int = 0

    @property
    def elapsed(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at


class _Worker:
    """Parent-side view of one worker process (one job in flight max)."""

    __slots__ = ("process", "conn", "job_id")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn  # the supervisor's end of the worker's pipe
        self.job_id: Optional[int] = None

#: how often the supervisor, a blocked submit and a stream re-check state
_POLL_INTERVAL = 0.05


class _ImageEntry:
    """One published dataset image plus its reference accounting.

    ``refs`` counts outstanding (non-terminal) jobs whose payload
    carries this image's handle; only zero-ref images are eligible for
    LRU unpublishing under the shared-memory budget.
    """

    __slots__ = ("image", "refs", "last_used")

    def __init__(self, image: DatasetImage) -> None:
        self.image = image
        self.refs = 0
        self.last_used = time.monotonic()


class SimulationService:
    """A persistent async job engine for simulation points.

    Parameters
    ----------
    jobs:
        Worker slots; defaults to ``REPRO_JOBS`` or the CPU count
        (the same resolver the batch engine uses).  Workers spawn
        lazily, up to this many, as jobs demand them.
    cache_dir / use_cache:
        The shared on-disk result cache — identical keys and entries
        to :class:`~repro.sim.engine.ExperimentEngine`.  An engine's
        own service runs with ``use_cache=False``.
    retries:
        How many times a job is re-dispatched after its worker *dies*
        (crash/kill, not Python exceptions).
    timeout:
        Progress timeout in seconds: a worker is killed (and its job
        retried, within the retry budget) only when it has sent no
        heartbeat for this long.  Workers heartbeat at job start,
        per consumed run and at every pass boundary, so a
        legitimately slow SF10 point keeps its watchdog fed while a
        hung one is caught within one timeout.  ``None`` (default)
        disables the watchdog.
    checkpoint_dir:
        Pass-boundary crash checkpointing of every keyed point: workers
        snapshot the machine at every pass boundary into this sidecar
        directory (default ``<cache dir>/checkpoints/`` or
        ``REPRO_CHECKPOINT_DIR``), and a retried job resumes from its
        predecessor's last completed pass, bit-identical to an
        uninterrupted run.
    max_pending / client_quota / class_quotas:
        Admission control (see :mod:`repro.service.admission`): the
        pending queue is bounded (``max_pending``, default 256) and
        per-client / per-job-class outstanding quotas (default
        unlimited) shed excess load with a structured
        :class:`ServiceOverloadError` instead of queuing unboundedly;
        ``None`` means unlimited.  ``submit(..., block=True)`` waits
        for room instead, for at most ``block_timeout`` seconds.
    drain_grace:
        How long :meth:`drain` waits for running points to
        checkpoint-stop at a pass boundary before hard-killing their
        workers.  Either way the last completed pass is on disk and a
        restarted service resumes from it.
    deadline_grace:
        Slack past a job's deadline before the supervisor stops
        waiting for the worker's voluntary checkpoint-abandon and
        kills it (covers single-pass streams that never reach a
        boundary).  Default 5 s.
    shm_max_mb:
        Budget for concurrently published shared-memory dataset
        images (``None`` or <= 0: unbounded).  Publishing past it
        LRU-unpublishes *idle* images (no outstanding job references);
        images still referenced are never unpublished, so the budget
        can be transiently exceeded rather than ever breaking a
        running job.
    rss_watermark_mb:
        Per-worker RSS watermark (``None`` or <= 0: off): a worker
        crossing it checkpoints at the next pass boundary and recycles
        itself onto a fresh process, pre-empting the OOM killer instead
        of meeting it.

    Only ``jobs``, ``cache_dir``, ``use_cache`` and ``checkpoint_dir``
    fall back to the environment (``REPRO_JOBS``, ``REPRO_CACHE_DIR``,
    ``REPRO_CACHE``, ``REPRO_CHECKPOINT_DIR``); every limit is
    configured here alone.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache_dir: Optional[str | os.PathLike] = None,
        use_cache: Optional[bool] = None,
        retries: int = 1,
        timeout: Optional[float] = None,
        checkpoint_dir: Optional[str | os.PathLike] = None,
        max_pending: Optional[int] = DEFAULT_MAX_PENDING,
        client_quota: Optional[int] = None,
        class_quotas: Optional[Dict[str, int]] = None,
        block_timeout: float = DEFAULT_BLOCK_TIMEOUT,
        drain_grace: float = 30.0,
        deadline_grace: float = 5.0,
        shm_max_mb: Optional[float] = None,
        rss_watermark_mb: Optional[float] = None,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.jobs = _resolve_jobs(jobs)
        cache_directory, checkpoint_directory = cache_directories(
            cache_dir, checkpoint_dir
        )
        if use_cache is None:
            use_cache = setting("REPRO_CACHE")
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_directory) if use_cache else None
        )
        self.checkpoints = CheckpointStore(checkpoint_directory)
        self.retries = retries
        self.timeout = timeout
        self.admission = AdmissionController(
            max_pending=max_pending, client_quota=client_quota,
            class_quotas=class_quotas,
        )
        self.block_timeout = block_timeout
        self.drain_grace = drain_grace
        self.deadline_grace = deadline_grace
        self.shm_max_bytes: Optional[int] = (
            int(shm_max_mb * 1024 * 1024)
            if shm_max_mb is not None and shm_max_mb > 0 else None
        )
        self.rss_watermark_mb: Optional[float] = (
            rss_watermark_mb
            if rss_watermark_mb is not None and rss_watermark_mb > 0 else None
        )
        # Reclaim shared-memory segments a crashed predecessor left
        # behind before publishing any of our own.
        self.stale_segments_swept = sweep_stale_segments()
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._workers: List[_Worker] = []
        self._records: Dict[int, JobRecord] = {}
        self._pending: deque = deque()
        self._completed_order: List[int] = []
        self._images: Dict[str, _ImageEntry] = {}
        self._ids = itertools.count(1)
        self._cv = threading.Condition(threading.RLock())
        self._closed = False
        self._stopped = False
        self._draining = False
        # telemetry
        self.cache_hits = 0
        self.simulated_points = 0
        self.retried_jobs = 0
        self.resumed_jobs = 0
        self.datasets_published = 0
        self.datasets_unpublished = 0
        self.drained_jobs = 0
        self.expired_jobs = 0
        self.recycled_workers = 0
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-service-supervisor", daemon=True
        )
        self._supervisor.start()

    # -- public API --------------------------------------------------------

    def submit(
        self,
        arch: str,
        scan: ScanConfig,
        rows: int,
        *,
        seed: int = 1994,
        scale: int = DEFAULT_SCALE,
        data: Optional[LineitemData] = None,
        plan: Optional[QueryPlan] = None,
        client: str = DEFAULT_CLIENT,
        job_class: str = DEFAULT_CLASS,
        deadline: Optional[float] = None,
        block: bool = False,
        block_timeout: Optional[float] = None,
    ) -> Ticket:
        """Enqueue one simulation point; returns its :class:`Ticket`.

        A cache hit completes the job immediately (it still appears in
        the completion stream, flagged ``cached``) and bypasses
        admission — serving a warm result costs nothing worth shedding.
        ``data`` defaults to the memoised generated table of the plan's
        schema, and each call digests its table once (see
        :func:`~repro.sim.engine.resolve_points`).

        ``client``/``job_class`` are the admission identities quotas
        bind to.  ``deadline`` (seconds from now) bounds the attempt's
        wall clock: past it the worker checkpoint-then-abandons and the
        job ends :attr:`JobState.EXPIRED` with its partial work
        resumable.  On overload a non-``block`` submit raises
        :class:`ServiceOverloadError` immediately; ``block=True`` waits
        for room up to ``block_timeout`` before giving up the same way.
        A draining service raises :class:`ServiceDrainingError` either
        way.
        """
        arch = arch.lower()
        # The point key doubles as the checkpoint identity, so it exists
        # even when result caching is off; a point without one (an
        # unknown architecture) is left to fail in the worker with the
        # full context attached.
        data, digest, (key,) = resolve_points(
            [(arch, scan)], rows, seed, scale, data, plan
        )
        with self._cv:
            self._check_open()
            ticket = Ticket(
                id=next(self._ids), arch=arch, scan=scan,
                rows=int(rows), seed=int(seed), scale=int(scale), key=key,
            )
            record = JobRecord(
                ticket=ticket, submitted_at=time.monotonic(),
                client=client, job_class=job_class,
            )
            if deadline is not None:
                record.deadline_at = time.time() + float(deadline)
            self._records[ticket.id] = record
            cached = (
                self.cache.load(key)
                if self.cache is not None and key is not None else None
            )
            if cached is not None:
                self.cache_hits += 1
                record.result = cached
                record.cached = True
                self._finish(record, JobState.DONE)
                return ticket
            self._admit(record, block=block, block_timeout=block_timeout)
            record.admitted = True
            try:
                handle = self._publish_dataset(digest, data)
                entry = self._images[digest]
                entry.refs += 1
                record.digest = digest
                checkpoint = None
                if key is not None:
                    checkpoint = {
                        "dir": str(self.checkpoints.directory), "key": key,
                    }
                record.payload = make_task_payload(
                    arch, scan.to_dict(), rows, seed, scale,
                    dataset_handle=handle,
                    plan_payload=plan.to_dict() if plan is not None else None,
                    checkpoint=checkpoint,
                    deadline_at=record.deadline_at,
                    rss_watermark_mb=self.rss_watermark_mb,
                )
            except BaseException:
                # e.g. /dev/shm exhausted while publishing: undo the
                # admission so the failed submit doesn't leak quota.
                self.admission.release(record.client, record.job_class)
                record.admitted = False
                self._records.pop(ticket.id, None)
                raise
            self._pending.append(ticket.id)
            self._cv.notify_all()
        return ticket

    def _check_open(self) -> None:
        """Raise the precise refusal for a closed/draining service."""
        if self._draining:
            raise ServiceDrainingError(
                "service is draining: running jobs are checkpoint-stopping; "
                "resubmit to a fresh service to resume them"
            )
        if self._closed:
            raise RuntimeError("service is closed")

    def _admit(
        self,
        record: JobRecord,
        block: bool,
        block_timeout: Optional[float],
    ) -> None:
        """Admission gate (lock held): fail fast, or park until room.

        On rejection the record is dropped from the registry — an
        unadmitted submit never existed as far as streaming, progress
        counts and quota accounting are concerned.
        """
        patience = (
            self.block_timeout if block_timeout is None else block_timeout
        )
        deadline = time.monotonic() + patience
        while True:
            try:
                self.admission.admit(
                    record.client, record.job_class, len(self._pending)
                )
                return
            except ServiceOverloadError:
                if not block or time.monotonic() >= deadline:
                    self._records.pop(record.ticket.id, None)
                    raise
            self._cv.wait(min(_POLL_INTERVAL, patience))
            try:
                self._check_open()
            except (ServiceDrainingError, RuntimeError):
                self._records.pop(record.ticket.id, None)
                raise

    def status(self, ticket: Ticket) -> JobRecord:
        """The current :class:`JobRecord` of one ticket."""
        with self._cv:
            return self._records[ticket.id]

    def progress(self, tickets: Optional[Iterable[Ticket]] = None) -> Dict[str, int]:
        """State counts over ``tickets`` (default: every job ever seen)."""
        with self._cv:
            records = (
                [self._records[t.id] for t in tickets]
                if tickets is not None else list(self._records.values())
            )
        counts = {state.value: 0 for state in JobState}
        for record in records:
            counts[record.state.value] += 1
        counts["total"] = len(records)
        return counts

    def cancel(self, ticket: Ticket) -> bool:
        """Cancel one job; True when it was still pending or running.

        A running job's worker is killed (and replaced on demand); the
        cancelled job is never retried.
        """
        with self._cv:
            record = self._records[ticket.id]
            if record.state is JobState.PENDING:
                try:
                    self._pending.remove(ticket.id)
                except ValueError:
                    pass
                self._finish(record, JobState.CANCELLED)
                return True
            if record.state is JobState.RUNNING:
                for worker in self._workers:
                    if worker.job_id == ticket.id:
                        self._kill_worker(worker)
                        break
                self._finish(record, JobState.CANCELLED)
                return True
            return False

    # -- id-addressed variants (the HTTP front end's view) ------------------

    def record_for(self, job_id: int) -> JobRecord:
        """The :class:`JobRecord` of one job id (KeyError if unknown)."""
        with self._cv:
            return self._records[job_id]

    def cancel_id(self, job_id: int) -> bool:
        """:meth:`cancel` addressed by job id (KeyError if unknown)."""
        with self._cv:
            return self.cancel(self._records[job_id].ticket)

    def healthz(self) -> Dict[str, Any]:
        """One structured snapshot of service health and telemetry."""
        with self._cv:
            states = {state.value: 0 for state in JobState}
            for record in self._records.values():
                states[record.state.value] += 1
            return {
                "status": (
                    "draining" if self._draining
                    else "closed" if self._closed else "ok"
                ),
                "workers": {
                    "alive": sum(
                        1 for w in self._workers if w.process.is_alive()
                    ),
                    "busy": sum(
                        1 for w in self._workers if w.job_id is not None
                    ),
                    "max": self.jobs,
                },
                "pending": len(self._pending),
                "jobs": states,
                "admission": self.admission.snapshot(),
                "shm": {
                    "images": len(self._images),
                    "bytes": sum(
                        e.image.nbytes for e in self._images.values()
                    ),
                    "budget_bytes": self.shm_max_bytes,
                },
                "counters": {
                    "cache_hits": self.cache_hits,
                    "retried_jobs": self.retried_jobs,
                    "resumed_jobs": self.resumed_jobs,
                    "datasets_published": self.datasets_published,
                    "datasets_unpublished": self.datasets_unpublished,
                    "drained_jobs": self.drained_jobs,
                    "expired_jobs": self.expired_jobs,
                    "recycled_workers": self.recycled_workers,
                },
            }

    def stream(
        self,
        tickets: Iterable[Ticket],
        timeout: Optional[float] = None,
    ) -> Iterator[JobRecord]:
        """Yield the jobs of ``tickets`` in *completion* order.

        Completed-first semantics: a fast point is yielded the moment
        it finishes, while slower points are still running — no
        "wait for the slowest" barrier.
        Cancelled and failed jobs are yielded too (inspect
        ``record.state``); raising is the caller's policy.
        """
        wanted = {t.id for t in tickets}
        deadline = None if timeout is None else time.monotonic() + timeout
        cursor = 0
        while wanted:
            ready: List[JobRecord] = []
            with self._cv:
                while True:
                    while cursor < len(self._completed_order):
                        job_id = self._completed_order[cursor]
                        cursor += 1
                        if job_id in wanted:
                            wanted.discard(job_id)
                            ready.append(self._records[job_id])
                    if ready or not wanted:
                        break
                    if self._stopped:
                        raise RuntimeError(
                            "service stopped with jobs still outstanding"
                        )
                    wait = _POLL_INTERVAL
                    if deadline is not None:
                        wait = min(wait, deadline - time.monotonic())
                        if wait <= 0:
                            raise TimeoutError(
                                f"{len(wanted)} job(s) still outstanding"
                            )
                    self._cv.wait(wait)
            for record in ready:
                yield record

    def wait(
        self, tickets: Iterable[Ticket], timeout: Optional[float] = None
    ) -> List[JobRecord]:
        """Block until every ticket is terminal; records in ticket order."""
        tickets = list(tickets)
        for _ in self.stream(tickets, timeout=timeout):
            pass
        return [self.status(t) for t in tickets]

    def execute_points(
        self,
        points: List[Tuple[str, ScanConfig]],
        data: Optional[LineitemData],
        rows: int,
        seed: int,
        scale: int,
        plan: Optional[QueryPlan] = None,
        timeout: Optional[float] = None,
    ) -> List[RunResult]:
        """Run ``points`` and return results in submission order.

        This is how :class:`~repro.sim.engine.ExperimentEngine` runs its
        parallel misses, so a failed point raises
        :class:`PointExecutionError` with the point context, as an
        in-process one does.
        """
        tickets = [
            # block=True: a sweep wider than the pending queue waits for
            # room instead of shedding its own points
            self.submit(arch, scan, rows, seed=seed, scale=scale,
                        data=data, plan=plan, block=True)
            for arch, scan in points
        ]
        by_id: Dict[int, RunResult] = {}
        for record in self.stream(tickets, timeout=timeout):
            ticket = record.ticket
            if record.state is JobState.DONE:
                self.simulated_points += 0 if record.cached else 1
                by_id[ticket.id] = record.result
                continue
            detail = record.error or record.state.value
            raise PointExecutionError(
                f"sweep point (arch={ticket.arch}, "
                f"op_bytes={ticket.scan.op_bytes}, "
                f"layout={ticket.scan.layout}, rows={ticket.rows}) "
                f"{record.state.value} after {record.attempts} attempt(s): "
                f"{detail}",
                ticket.arch, ticket.scan.op_bytes, ticket.rows,
                attempts=record.attempt_log,
            )
        return [by_id[t.id] for t in tickets]

    def drain(self, grace: Optional[float] = None) -> Dict[str, int]:
        """Graceful drain: checkpoint-stop running jobs, reject new ones.

        Queued jobs move straight to :attr:`JobState.DRAINED`; running
        workers get SIGTERM — whose handler only raises a flag, so an
        in-flight checkpoint write completes untorn — and checkpoint-
        stop at their next pass boundary.  Workers still busy after
        ``grace`` (default ``drain_grace``) are hard-killed; either way
        the last completed pass of every drained job is on disk, and a
        restarted service that resubmits the same points resumes each
        one from its checkpoint.

        Idempotent; returns ``{"drained": n, "killed": m}``.  This is
        also what the HTTP front end's SIGTERM handler calls.
        """
        grace = self.drain_grace if grace is None else grace
        drained = killed = 0
        with self._cv:
            if self._stopped:
                return {"drained": 0, "killed": 0}
            self._draining = True
            while self._pending:
                job_id = self._pending.popleft()
                record = self._records[job_id]
                if record.state is JobState.PENDING:
                    record.error = (
                        "service drained before the job ran (resubmit to "
                        "a fresh service)"
                    )
                    self._finish(record, JobState.DRAINED)
                    drained += 1
            for worker in self._workers:
                if worker.job_id is not None and worker.process.is_alive():
                    try:
                        os.kill(worker.process.pid, signal.SIGTERM)
                    except (OSError, TypeError):  # pragma: no cover
                        pass
            self._cv.notify_all()
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            with self._cv:
                busy = any(w.job_id is not None for w in self._workers)
            if not busy:
                break
            time.sleep(_POLL_INTERVAL)
        with self._cv:
            # Past the grace: hard-kill stragglers.  Their last completed
            # pass was snapshotted before this drain began (boundary
            # writes are atomic), so nothing resumable is lost.
            for worker in list(self._workers):
                if worker.job_id is None:
                    continue
                record = self._records.get(worker.job_id)
                self._kill_worker(worker)
                killed += 1
                if record is not None and not record.state.terminal:
                    record.error = (
                        "drained past the grace period (worker killed; "
                        "resumes from its last checkpoint)"
                    )
                    self._finish(record, JobState.DRAINED)
            drained = self.drained_jobs
        return {"drained": drained, "killed": killed}

    @property
    def draining(self) -> bool:
        with self._cv:
            return self._draining

    def close(
        self,
        timeout: float = 30.0,
        force: bool = False,
        drain: bool = False,
    ) -> None:
        """Drain (or with ``force`` abandon) jobs, stop workers, unlink images.

        ``drain=True`` runs the graceful-drain protocol first:
        checkpoint-stop everything within :attr:`drain_grace`, preserve
        every snapshot, then tear down — the SIGTERM story for a
        service host.
        """
        if drain:
            self.drain()
        with self._cv:
            if self._stopped:
                return
            self._closed = True
            if force:
                for job_id in list(self._pending):
                    self._finish(self._records[job_id], JobState.CANCELLED)
                self._pending.clear()
            self._cv.notify_all()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._cv:
                idle = not self._pending and all(
                    w.job_id is None for w in self._workers
                )
            if idle:
                break
            time.sleep(_POLL_INTERVAL)
        with self._cv:
            self._stopped = True
            self._cv.notify_all()
        self._supervisor.join(timeout=timeout)
        # A busy worker would read the shutdown sentinel only after its
        # point, whose result nobody reads any more, so it is killed at
        # once; idle workers get the sentinel and one shared deadline.
        for worker in self._workers:
            if worker.job_id is None:
                try:
                    worker.conn.send(None)
                except OSError:
                    pass  # already dead
        exit_by = time.monotonic() + 1.0
        for worker in self._workers:
            if worker.job_id is None:
                worker.process.join(timeout=max(0.0, exit_by - time.monotonic()))
            # SIGKILL, not SIGTERM: a worker reads SIGTERM as "drain",
            # which a single-pass run never reaches.
            self._kill_worker(worker)
            worker.conn.close()
        self._workers.clear()
        for entry in self._images.values():
            entry.image.close()
        self._images.clear()

    def __enter__(self) -> "SimulationService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- supervisor --------------------------------------------------------

    def _publish_dataset(self, digest: str, data: LineitemData):
        """The shared-memory handle of ``data``, published at most once.

        Under a shared-memory budget (``shm_max_mb``) a publish that
        pushes the total over it first LRU-unpublishes *idle* images —
        ones no outstanding job references.  Referenced images are never
        unpublished, so the budget is a pressure valve, not a hard cap:
        it can be transiently exceeded rather than ever breaking a
        running job.
        """
        entry = self._images.get(digest)
        if entry is None:
            entry = _ImageEntry(DatasetImage(data, digest))
            self._images[digest] = entry
            self.datasets_published += 1
            self._enforce_shm_budget(keep=digest)
        entry.last_used = time.monotonic()
        return entry.image.handle

    def _enforce_shm_budget(self, keep: Optional[str] = None) -> None:
        """LRU-unpublish idle images until under budget (lock held)."""
        if self.shm_max_bytes is None:
            return
        while sum(e.image.nbytes for e in self._images.values()) \
                > self.shm_max_bytes:
            idle = [
                (entry.last_used, digest)
                for digest, entry in self._images.items()
                if entry.refs <= 0 and digest != keep
            ]
            if not idle:
                return  # everything is referenced; exceed transiently
            _, victim = min(idle)
            self._images.pop(victim).image.close()
            self.datasets_unpublished += 1

    def _finish(self, record: JobRecord, state: JobState) -> None:
        """Move a record to a terminal state (lock held by caller).

        Every terminal transition funnels through here, so this is
        where admission quota and the job's dataset-image reference are
        released — cancel, drain, expiry and failure all give their
        resources back exactly once.
        """
        record.state = state
        record.finished_at = time.monotonic()
        if record.admitted:
            record.admitted = False
            self.admission.release(record.client, record.job_class)
        if record.digest is not None:
            entry = self._images.get(record.digest)
            if entry is not None:
                entry.refs = max(0, entry.refs - 1)
                entry.last_used = time.monotonic()
            record.digest = None
        if state is JobState.DRAINED:
            self.drained_jobs += 1
        elif state is JobState.EXPIRED:
            self.expired_jobs += 1
        self._completed_order.append(record.ticket.id)
        self._cv.notify_all()

    def _spawn_worker(self) -> _Worker:
        conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main, args=(child_conn,),
            daemon=True, name="repro-service-worker",
        )
        # The child inherits this thread's signal mask through fork:
        # keep SIGTERM blocked until worker_main has installed its
        # drain-flag handler, so a drain (or stray kill) racing the
        # fork bootstrap can't terminate the worker outright.
        try:
            old_mask = signal.pthread_sigmask(
                signal.SIG_BLOCK, {signal.SIGTERM}
            )
        except (OSError, ValueError):  # pragma: no cover - exotic hosts
            old_mask = None
        try:
            process.start()
        finally:
            if old_mask is not None:
                signal.pthread_sigmask(signal.SIG_SETMASK, old_mask)
            # With our copy of the worker's end closed, the worker's
            # death reads as end of file on ``conn``.
            child_conn.close()
        worker = _Worker(process, conn)
        self._workers.append(worker)
        return worker

    @staticmethod
    def _kill_worker(worker: _Worker) -> None:
        """SIGKILL and reap ``worker`` (lock held; any thread).

        It stays in the pool, dead and idle, until the supervisor sees
        its pipe end: only the supervisor closes pipes, so no pipe is
        closed under a read.
        """
        worker.job_id = None
        worker.process.kill()
        worker.process.join()

    def _retire(self, worker: _Worker) -> None:
        """Take ``worker`` out of the pool for good (supervisor thread)."""
        self._workers.remove(worker)
        self._kill_worker(worker)
        worker.conn.close()

    def _supervise(self) -> None:
        while True:
            with self._cv:
                if self._stopped:
                    return
                workers = list(self._workers)
            # Read outside the lock: a worker's message may be large,
            # and a killed worker can only end its own pipe.
            ready = wait([w.conn for w in workers], timeout=_POLL_INTERVAL)
            received = [(w, *_receive(w.conn)) for w in workers
                        if w.conn in ready]
            with self._cv:
                ended = set()
                for worker, messages, pipe_ended in received:
                    for message in messages:
                        self._handle_message(worker, message)
                    if pipe_ended:
                        ended.add(worker)
                for worker in list(self._workers):
                    # A dead worker whose pipe holds nothing unread is
                    # gone too: some other forked process may still hold
                    # its end of the pipe, and then no end of file comes.
                    if worker in ended or not (
                        worker.process.is_alive() or worker.conn.poll()
                    ):
                        self._worker_gone(worker)
                self._check_timeouts()
                self._check_deadlines()
                self._dispatch()

    def _handle_message(self, worker: _Worker, message) -> None:
        kind, job_id, payload = message
        if worker.job_id != job_id:
            return  # the late word of an attempt already given up on
        record = self._records.get(job_id)
        if kind == "heartbeat":
            # Progress only: the worker keeps the job; feed the watchdog.
            if record is not None and record.state is JobState.RUNNING:
                record.last_heartbeat = time.monotonic()
                record.progress = payload
            return
        worker.job_id = None
        if kind == "stopped" and payload["reason"] != "deadline":
            self._retire(worker)  # it exits after announcing this stop
        if record is None or record.state.terminal:
            return  # cancelled while running; result discarded
        if kind == "done":
            result = RunResult.from_dict(payload["result"])
            record.result = result
            record.resumed_from_pass = payload.get("resumed_from_pass")
            if record.resumed_from_pass is not None:
                self.resumed_jobs += 1
            if self.cache is not None and record.ticket.key is not None \
                    and result.verified is not False:
                self.cache.store(record.ticket.key, result)
            self._finish(record, JobState.DONE)
        elif kind == "error":
            record.error = payload
            self._log_attempt(record, "exception",
                              "worker raised (see error for the traceback)")
            self._finish(record, JobState.FAILED)
        else:
            self._handle_stop(record, payload)

    def _handle_stop(self, record: JobRecord, stop: Dict[str, Any]) -> None:
        """A worker checkpoint-stopped ``record`` at a pass boundary."""
        reason, stopped_at = stop["reason"], stop["pass"]
        if reason == "deadline":
            self._log_attempt(
                record, "expired",
                f"deadline passed; checkpoint-stopped at pass {stopped_at}",
            )
            record.error = (
                f"deadline exceeded; attempt checkpoint-stopped at pass "
                f"{stopped_at} (partial work preserved; a resubmission "
                f"resumes from it)"
            )
            self._finish(record, JobState.EXPIRED)
            return
        if reason == "drain" and (self._draining or self._closed):
            record.error = (
                f"service drained; checkpoint-stopped at pass "
                f"{stopped_at} (a successor service resumes from it)"
            )
            self._finish(record, JobState.DRAINED)
            return
        # A stray SIGTERM or the RSS watermark, not a service drain: the
        # point checkpointed cleanly, so a fresh worker resumes it from
        # the snapshot.  Doesn't consume the crash-retry budget.
        record.recycles += 1
        if reason == "drain":
            self._log_attempt(
                record, "drained",
                f"worker SIGTERMed externally; checkpointed at pass "
                f"{stopped_at} and requeued",
            )
        else:
            self.recycled_workers += 1
            self._log_attempt(
                record, "recycled",
                f"worker RSS {stop['rss_mb']:.0f} MB crossed the watermark; "
                f"checkpointed at pass {stopped_at} and recycled onto a "
                f"fresh process",
            )
        self._requeue(record)

    @staticmethod
    def _log_attempt(
        record: JobRecord, kind: str, reason: str,
        exitcode: Optional[int] = None,
    ) -> None:
        """Append the post-mortem of the attempt that just ended."""
        record.attempt_log.append({
            "attempt": record.attempts, "kind": kind, "reason": reason,
            "duration": (
                None if record.started_at is None
                else round(time.monotonic() - record.started_at, 3)
            ),
            "exitcode": exitcode,
        })

    def _requeue(self, record: JobRecord, delay: float = 0.0) -> None:
        """Put a job back at the head of the queue, due in ``delay`` s."""
        record.state = JobState.PENDING
        record.worker_pid = None
        record.not_before = time.monotonic() + delay if delay else None
        self._pending.appendleft(record.ticket.id)
        self._cv.notify_all()

    def _retry_or_fail(self, record: JobRecord, reason: str) -> None:
        if self._draining:
            # No dispatch happens once a drain began, so a requeue would
            # strand the job.  Its last completed pass (if any) is on
            # disk; hand it to the successor service like every other
            # drained job.
            record.error = (
                f"{reason} while the service was draining (a successor "
                f"service resumes from the last checkpoint, if any)"
            )
            self._finish(record, JobState.DRAINED)
            return
        failures = record.attempts - record.recycles
        if failures <= self.retries:
            self.retried_jobs += 1
            # Exponential backoff with deterministic jitter (seeded from
            # the point key + attempt) instead of the old immediate
            # retry: a systemic fault (full disk, flapping host) is not
            # hammered, and the delay sequence is reproducible run to
            # run — chaos tests can pin the attempt log exactly.
            delay = backoff_delay(failures, record.ticket.key)
            record.attempt_log[-1]["retry_in"] = delay
            self._requeue(record, delay)
        else:
            history = "; ".join(
                f"attempt {entry['attempt']}: {entry['kind']} "
                f"({entry['reason']})"
                for entry in record.attempt_log
            )
            record.error = (
                f"{reason} (attempt {record.attempts} of "
                f"{self.retries + 1}, retry budget exhausted)"
                + (f" [history: {history}]" if history else "")
            )
            self._finish(record, JobState.FAILED)

    def _worker_gone(self, worker: _Worker) -> None:
        """``worker`` died: retire it and retry the job it held."""
        job_id = worker.job_id
        self._retire(worker)
        record = self._records.get(job_id)
        if record is None or record.state is not JobState.RUNNING:
            return
        exitcode = worker.process.exitcode
        self._log_attempt(record, "crash", f"worker died (exitcode {exitcode})",
                          exitcode)
        self._retry_or_fail(
            record, f"worker died (exitcode {exitcode}) while running point"
        )

    def _check_timeouts(self) -> None:
        if self.timeout is None:
            return
        now = time.monotonic()
        for worker in list(self._workers):
            if worker.job_id is None:
                continue
            record = self._records.get(worker.job_id)
            if record is None or record.started_at is None:
                continue
            # Progress-aware: the clock restarts at every heartbeat, so
            # only *silence* — a hung or wedged worker — trips it, never
            # a legitimately slow point that keeps reporting passes.
            reference = record.started_at
            if record.last_heartbeat is not None:
                reference = max(reference, record.last_heartbeat)
            if now - reference <= self.timeout:
                continue
            self._kill_worker(worker)
            self._log_attempt(
                record, "stalled",
                f"no heartbeat for {self.timeout:.1f}s "
                f"(last progress: {record.progress})",
            )
            self._retry_or_fail(
                record,
                f"attempt exceeded the {self.timeout:.1f}s heartbeat timeout",
            )

    def _check_deadlines(self) -> None:
        """Expire past-deadline jobs (lock held by the supervisor).

        A *pending* job past its deadline expires without ever running.
        A *running* one is the worker's to stop — it checkpoint-abandons
        at the first pass boundary past the deadline — but a stream that
        never reaches another boundary would wait forever, so past
        ``deadline_grace`` the supervisor stops waiting and kills the
        worker; the last completed pass (if any) is already on disk.
        """
        now = time.time()
        for job_id in list(self._pending):
            record = self._records[job_id]
            if record.state is JobState.PENDING \
                    and record.deadline_at is not None \
                    and now > record.deadline_at:
                try:
                    self._pending.remove(job_id)
                except ValueError:
                    continue
                record.error = "deadline passed while the job was queued"
                self._finish(record, JobState.EXPIRED)
        for worker in list(self._workers):
            if worker.job_id is None:
                continue
            record = self._records.get(worker.job_id)
            if record is None or record.deadline_at is None:
                continue
            if now <= record.deadline_at + self.deadline_grace:
                continue
            self._kill_worker(worker)
            self._log_attempt(
                record, "expired",
                f"deadline + {self.deadline_grace:.1f}s grace passed "
                f"without a voluntary checkpoint-stop; worker killed",
            )
            record.error = (
                "deadline exceeded (worker killed after grace; any "
                "completed pass is checkpointed and resumable)"
            )
            self._finish(record, JobState.EXPIRED)

    def _dispatch(self) -> None:
        if self._draining:
            return  # drain: nothing new reaches a worker
        now = time.monotonic()
        for _ in range(len(self._pending)):
            if not self._pending:
                return
            job_id = self._pending[0]
            record = self._records[job_id]
            if record.state is not JobState.PENDING:
                self._pending.popleft()  # cancelled while queued
                continue
            if record.not_before is not None and now < record.not_before:
                # backoff not elapsed: rotate it behind due jobs
                self._pending.rotate(-1)
                continue
            worker = next(
                (w for w in self._workers
                 if w.job_id is None and w.process.is_alive()),
                None,
            )
            if worker is None:
                if len(self._workers) >= self.jobs:
                    return
                worker = self._spawn_worker()
            self._pending.popleft()
            record.not_before = None
            record.attempts += 1
            record.state = JobState.RUNNING
            record.started_at = time.monotonic()
            record.last_heartbeat = None
            record.progress = None
            record.worker_pid = worker.process.pid
            if isinstance(record.payload, dict):
                record.payload["attempt"] = record.attempts
            worker.job_id = job_id
            try:
                worker.conn.send((job_id, record.payload))
            except OSError:  # the worker died since it was last seen
                self._worker_gone(worker)
            # queue room opened: wake any submitter blocked on admission
            self._cv.notify_all()


def _receive(conn) -> Tuple[List[Any], bool]:
    """Every whole message waiting on ``conn``, and whether it ended.

    A pipe ends at end of file or at a frame torn by the writer's death;
    the messages read before that still count.
    """
    messages: List[Any] = []
    try:
        while conn.poll():
            messages.append(conn.recv())
    except (EOFError, OSError):
        return messages, True
    return messages, False
