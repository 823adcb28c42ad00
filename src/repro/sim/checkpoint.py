"""Per-pass checkpointing: crash-safe resumption of simulation points.

A simulation point is a pure function of its inputs, but at SF1 a single
point already costs 12-57 s and the SF10/SF100 series makes points
minutes long — so the service's kill-and-retry recovery (PR 6) turns
every worker OOM, SIGKILL or watchdog kill into unbounded rework.  This
module bounds the rework to one *pass*:

* :class:`RunMonitor` observes the :class:`~repro.codegen.base.TraceRun`
  stream of one point as it is consumed.  Every change of ``run.family``
  is a pass boundary (the codegens stamp each generated pass with a
  distinct family tuple); at each boundary the monitor pickles the
  machine + execution pair into a :class:`CheckpointStore` sidecar keyed
  by the point's cache key.  The pickle holds only what a resume cannot
  rebuild: timing state, partial statistics and the written pages of
  the memory image.  The read-only table regions travel as references
  (name, base, size, checksum), and all-zero pages are left out (see
  :mod:`repro.memory.image`).
* On retry, a fresh worker rebuilds the workload (the codegen side is a
  deterministic function of the data), restores the snapshot, rebinds
  its table regions from the rebuilt machine, skips the
  already-consumed runs of the regenerated stream without simulating
  them, and resumes.  The resumed result is bit-identical to an
  uninterrupted run: the snapshot *is* the uninterrupted run's state at
  that boundary, and everything downstream is deterministic.
* The monitor doubles as the worker's progress source: a throttled
  heartbeat fires per consumed run, which is what the service's
  progress-aware watchdog listens to (see :mod:`repro.service.service`).

Checkpoint files carry a JSON header plus a SHA-256-checksummed pickle
payload; a truncated or corrupted file, or one whose table regions do
not match the rebuilt machine's (base, size or checksum), is
quarantined to ``*.quarantine`` and reported as "no checkpoint" —
resumption degrades to a from-scratch retry, never to wrong state.
Single-pass streams (a tuple-at-a-time scan, whose match-keyed runs
declare no family, and HIPE's fused column scan) simply never hit a
boundary and restart from zero on retry.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from ..testing import faults

logger = logging.getLogger("repro.checkpoint")

#: bump when the checkpoint layout changes; old files quarantine-free miss
CHECKPOINT_SCHEMA = 3

#: subdirectory of the result cache holding checkpoint sidecars
DEFAULT_CHECKPOINT_SUBDIR = "checkpoints"

#: checkpoints older than this are presumed orphaned (their point either
#: finished — the worker deletes on success — or its code/config moved on
#: and the key will never be asked for again)
DEFAULT_CHECKPOINT_TTL = 7 * 24 * 3600.0

_HEADER_LIMIT = 1 << 16  # sanity bound when scanning for the header line


def checkpoints_enabled(explicit: Optional[bool] = None) -> bool:
    """``REPRO_CHECKPOINTS`` gate (on by default, like the result cache)."""
    if explicit is not None:
        return explicit
    return os.environ.get("REPRO_CHECKPOINTS", "1").lower() not in (
        "0", "false", "no"
    )


class CheckpointAbandon(Exception):
    """A worker stopped a point *on purpose* at a pass boundary.

    Raised by :class:`RunMonitor` right after the boundary's snapshot
    went to disk, so whatever was simulated so far is preserved and a
    later attempt resumes from this pass.  ``reason`` says why
    (``"drain"``, ``"recycle"``, ...); the service maps it to the
    matching non-error job outcome.
    """

    def __init__(self, reason: str, pass_ordinal: int) -> None:
        super().__init__(f"abandoned at pass {pass_ordinal}: {reason}")
        self.reason = reason
        self.pass_ordinal = pass_ordinal


class DeadlineExceeded(CheckpointAbandon):
    """The point's deadline passed: checkpoint-then-abandon.

    The partial work is on disk (the boundary snapshot preceded this
    exception), so a resubmission with a fresh deadline resumes instead
    of restarting — a deadline bounds *this attempt's* wall clock, it
    does not discard progress.
    """

    def __init__(self, pass_ordinal: int, deadline: float) -> None:
        CheckpointAbandon.__init__(self, "deadline", pass_ordinal)
        self.deadline = deadline


@dataclass
class Checkpoint:
    """One restored pass-boundary snapshot."""

    machine: Any
    execution: Any
    pass_ordinal: int
    runs_consumed: int
    meta: Dict[str, Any] = field(default_factory=dict)


class CheckpointStore:
    """Pass-boundary snapshots under a sidecar directory, one per point.

    File format: one JSON header line (schema, key, pass/run progress,
    payload checksum, caller metadata) followed by the raw pickle of the
    ``(machine, execution)`` pair.  Writes are atomic (temp file +
    ``os.replace``); reads verify the checksum and quarantine anything
    that does not add up.  Like :class:`~repro.sim.engine.ResultCache`,
    a read-only directory degrades to "no checkpointing", never to a
    failed simulation.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.quarantined = 0
        self.save_failures = 0
        self.last_error: Optional[str] = None
        self._warned = False

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.ckpt"

    def prev_path_for(self, key: str) -> Path:
        """The previous-generation snapshot (torn-write fallback)."""
        return self.directory / f"{key}.ckpt.prev"

    # -- write side ---------------------------------------------------------

    def save(
        self,
        key: str,
        machine: Any,
        execution: Any,
        pass_ordinal: int,
        runs_consumed: int,
        meta: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """Persist one snapshot; True when it reached the disk.

        Degrades to "not checkpointed" instead of raising: a full disk
        (``OSError``/ENOSPC, read-only filesystem) or an unpicklable
        state object must never kill the simulation it was meant to
        protect (pickle raises ``AttributeError`` for a local function) —
        the miss is *logged* (``last_error`` records what went wrong,
        ``save_failures`` counts).  The previous snapshot, when
        one exists, is rotated to ``<key>.ckpt.prev`` before the new one
        lands, so a write torn by SIGKILL/power loss still leaves the
        last *complete* pass resumable.
        """
        path = self.path_for(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            faults.fire_enospc("pass", **{"pass": pass_ordinal, "key": key})
            payload = pickle.dumps(
                (machine, execution), protocol=pickle.HIGHEST_PROTOCOL
            )
            header = {
                "schema": CHECKPOINT_SCHEMA,
                "key": key,
                "pass": int(pass_ordinal),
                "runs": int(runs_consumed),
                "sha256": hashlib.sha256(payload).hexdigest(),
                "nbytes": len(payload),
                "saved_at": time.time(),
                "meta": meta or {},
            }
            with open(tmp, "wb") as handle:
                handle.write(json.dumps(header).encode("utf-8"))
                handle.write(b"\n")
                handle.write(payload)
            if path.exists():
                os.replace(path, self.prev_path_for(key))
            os.replace(tmp, path)
            return True
        except (OSError, AttributeError, TypeError, ValueError,
                pickle.PicklingError) as exc:
            self.save_failures += 1
            self.last_error = f"{type(exc).__name__}: {exc}"
            logger.log(
                logging.DEBUG if self._warned else logging.WARNING,
                "checkpoint save degraded to a miss for %s…: %s "
                "(simulation continues unsnapshotted)",
                key[:16], self.last_error,
            )
            self._warned = True
            return False
        finally:
            tmp.unlink(missing_ok=True)

    # -- read side ----------------------------------------------------------

    def _read_header(self, path: Path, handle) -> Optional[Dict[str, Any]]:
        line = handle.readline(_HEADER_LIMIT)
        if not line.endswith(b"\n"):
            return None
        header = json.loads(line)
        if not isinstance(header, dict):
            return None
        return header

    def load(
        self, key: str, rebind: Optional[Callable[[Any], None]] = None
    ) -> Optional[Checkpoint]:
        """The resumable snapshot for ``key``, or None.

        ``rebind`` receives the unpickled machine and re-attaches what
        the snapshot only references; a ``ValueError`` from it means the
        snapshot does not fit the rebuilt machine.

        Missing file and stale schema are plain misses; a corrupt or
        truncated file (unparsable header, checksum mismatch, unpickle
        failure), or one that does not fit the rebuilt machine, is
        quarantined to ``<name>.quarantine`` so the broken bytes never
        masquerade as machine state.  A quarantined *current* snapshot
        falls back to the previous generation (rotated aside at
        every save) — a write torn mid-flight costs one pass of rework,
        not the whole point; only when both generations are unusable
        does the retry start from scratch.
        """
        checkpoint = self._load_path(self.path_for(key), rebind)
        if checkpoint is not None:
            return checkpoint
        return self._load_path(self.prev_path_for(key), rebind)

    def _load_path(
        self, path: Path, rebind: Optional[Callable[[Any], None]]
    ) -> Optional[Checkpoint]:
        try:
            handle = open(path, "rb")
        except OSError:
            return None
        try:
            with handle:
                try:
                    header = self._read_header(path, handle)
                except (ValueError, UnicodeDecodeError):
                    header = None
                if header is None:
                    self._quarantine(path, "unparsable header")
                    return None
                if header.get("schema") != CHECKPOINT_SCHEMA:
                    return None  # honest version skew, not corruption
                payload = handle.read()
                if (len(payload) != header.get("nbytes")
                        or hashlib.sha256(payload).hexdigest()
                        != header.get("sha256")):
                    self._quarantine(path, "checksum mismatch")
                    return None
                try:
                    machine, execution = pickle.loads(payload)
                except Exception:
                    self._quarantine(path, "unpicklable payload")
                    return None
                if rebind is not None:
                    try:
                        rebind(machine)
                    except ValueError as exc:
                        self._quarantine(path, f"does not fit: {exc}")
                        return None
                return Checkpoint(
                    machine=machine,
                    execution=execution,
                    pass_ordinal=int(header.get("pass", 0)),
                    runs_consumed=int(header.get("runs", 0)),
                    meta=dict(header.get("meta") or {}),
                )
        except OSError:
            return None

    def _quarantine(self, path: Path, reason: str) -> None:
        self.quarantined += 1
        self.last_error = f"quarantined {path.name}: {reason}"
        try:
            os.replace(path, path.with_name(path.name + ".quarantine"))
        except OSError:
            pass

    # -- maintenance --------------------------------------------------------

    def discard(self, key: str) -> None:
        """Drop the snapshots of a completed point (idempotent)."""
        for path in (self.path_for(key), self.prev_path_for(key)):
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass

    def entries(self) -> List[Dict[str, Any]]:
        """Headers of every resumable snapshot (``--show-checkpoints``)."""
        out: List[Dict[str, Any]] = []
        for path in sorted(self.directory.glob("*.ckpt")):
            try:
                with open(path, "rb") as handle:
                    header = self._read_header(path, handle)
            except (OSError, ValueError, UnicodeDecodeError):
                continue
            if header is None or header.get("schema") != CHECKPOINT_SCHEMA:
                continue
            header["file"] = str(path)
            header["size"] = path.stat().st_size if path.exists() else 0
            out.append(header)
        return out

    def purge(self, max_age_seconds: float = DEFAULT_CHECKPOINT_TTL) -> int:
        """Drop snapshots (and quarantines) older than ``max_age_seconds``."""
        cutoff = time.time() - max_age_seconds
        removed = 0
        for pattern in ("*.ckpt", "*.ckpt.prev", "*.quarantine", "*.tmp.*"):
            for path in self.directory.glob(pattern):
                try:
                    if path.stat().st_mtime <= cutoff:
                        path.unlink()
                        removed += 1
                except OSError:
                    continue
        return removed


#: distinguishes "no previous run yet" from a genuine ``family=None`` run
_NO_FAMILY = object()


class RunMonitor:
    """Observes one point's run stream: heartbeats, snapshots, resume.

    Wire one into :func:`~repro.sim.runner.run_scan` (``monitor=``); the
    machine routes the run stream through :meth:`attach`, which

    * emits a throttled ``heartbeat`` callback per consumed run (the
      worker forwards these to the supervisor's watchdog),
    * detects pass boundaries (``run.family`` transitions), snapshots
      ``(machine, execution)`` into the store, and then invokes
      ``pass_hook`` (the fault-injection seam — firing *after* the
      snapshot is what makes "kill at pass N" resume from pass N),
    * on resume, silently skips the ``runs_consumed`` runs the snapshot
      already covers (their functional effects live in the restored
      memory image),
    * enforces the overload-safety hooks *after* each boundary snapshot:
      a ``deadline`` (absolute wall-clock ``time.time()`` epoch) raises
      :class:`DeadlineExceeded`, and a ``stop_check`` callback returning
      a reason string raises :class:`CheckpointAbandon` — either way the
      pass just snapshotted is preserved and resumable.

    With no store the monitor is heartbeats-only; with no heartbeat it
    is checkpoints-only; both default to inert.
    """

    def __init__(
        self,
        store: Optional[CheckpointStore] = None,
        key: Optional[str] = None,
        heartbeat: Optional[Callable[[Dict[str, Any]], None]] = None,
        pass_hook: Optional[Callable[[int], None]] = None,
        heartbeat_interval: float = 0.5,
        meta: Optional[Dict[str, Any]] = None,
        deadline: Optional[float] = None,
        stop_check: Optional[Callable[[int], Optional[str]]] = None,
    ) -> None:
        self.store = store
        self.key = key
        self.heartbeat = heartbeat
        self.pass_hook = pass_hook
        self.heartbeat_interval = heartbeat_interval
        self.deadline = deadline
        self.stop_check = stop_check
        self.meta = dict(meta or {})
        # resume bookkeeping (filled by load_resume)
        self.skip_runs = 0
        self.resumed_from_pass: Optional[int] = None
        self.resume_execution: Optional[Any] = None
        # progress bookkeeping
        self.pass_ordinal = 0
        self.runs_consumed = 0
        self.snapshots_taken = 0
        self._machine: Optional[Any] = None
        self._execution: Optional[Any] = None
        self._last_beat = 0.0

    # -- resume -------------------------------------------------------------

    def load_resume(self, machine: Any) -> Optional[Any]:
        """Restore this point's snapshot; returns the machine or None.

        ``machine`` is the fresh machine built from the point's data:
        the snapshot's table regions are rebound from its image.
        """
        if self.store is None or not self.key:
            return None
        checkpoint = self.store.load(
            self.key,
            rebind=lambda restored: restored.image.rebind(machine.image),
        )
        if checkpoint is None:
            return None
        self.skip_runs = checkpoint.runs_consumed
        self.resumed_from_pass = checkpoint.pass_ordinal
        self.resume_execution = checkpoint.execution
        return checkpoint.machine

    def take_resume_execution(self) -> Optional[Any]:
        """Hand the restored execution over (once) to ``run_runs``."""
        execution, self.resume_execution = self.resume_execution, None
        return execution

    # -- stream observation -------------------------------------------------

    def attach(self, machine: Any, execution: Any, runs):
        """Wrap ``runs``; the machine consumes the wrapper instead."""
        self._machine = machine
        self._execution = execution
        return self._observe(runs)

    def _observe(self, runs):
        consumed = 0
        skip = self.skip_runs
        prev_family = _NO_FAMILY
        for run in runs:
            if prev_family is not _NO_FAMILY and run.family != prev_family:
                self.pass_ordinal += 1
                if consumed > skip:
                    self._boundary(consumed)
            prev_family = run.family
            if consumed < skip:
                # A skipped run's *timing* lives in the snapshot, but its
                # codegen side effects do not: PC sites are numbered by
                # first use inside ``make`` (and first-use order is a
                # pure function of run shape, so one iteration covers
                # it).  Draining ``make(0)`` re-plays exactly those
                # allocations; without it the resumed passes would see
                # shifted PCs and a subtly different branch predictor.
                body = run.make(0)
                if body is not None:
                    deque(body, maxlen=0)
                consumed += 1
                continue
            yield run
            consumed += 1
            self.runs_consumed = consumed
            self._beat(consumed, force=False)

    def _boundary(self, consumed: int) -> None:
        # Decide *before* snapshotting whether this boundary abandons
        # the point (deadline passed, drain/recycle requested); the
        # snapshot then precedes the abandon.
        abandon: Optional[CheckpointAbandon] = None
        if self.deadline is not None and time.time() >= self.deadline:
            abandon = DeadlineExceeded(self.pass_ordinal, self.deadline)
        elif self.stop_check is not None:
            reason = self.stop_check(self.pass_ordinal)
            if reason:
                abandon = CheckpointAbandon(reason, self.pass_ordinal)
        if self.store is not None and self.key:
            if self.store.save(
                self.key, self._machine, self._execution,
                self.pass_ordinal, consumed, meta=self.meta,
            ):
                self.snapshots_taken += 1
        self._beat(consumed, force=True)
        if self.pass_hook is not None:
            self.pass_hook(self.pass_ordinal)
        if abandon is not None:
            raise abandon

    def _beat(self, consumed: int, force: bool) -> None:
        if self.heartbeat is None:
            return
        now = time.monotonic()
        if not force and now - self._last_beat < self.heartbeat_interval:
            return
        self._last_beat = now
        self.heartbeat({"runs": consumed, "pass": self.pass_ordinal})

    # -- completion ---------------------------------------------------------

    def finish(self) -> None:
        """The point completed: its snapshot is no longer needed."""
        if self.store is not None and self.key:
            self.store.discard(self.key)
