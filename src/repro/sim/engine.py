"""The experiment engine: cached execution of simulation sweeps.

Every figure of the paper is a sweep over independent
(architecture, :class:`~repro.codegen.base.ScanConfig`) points, and the
figures overlap heavily — fig3b, fig3c and fig3d all re-simulate the
same best-case column scans.  The :class:`ExperimentEngine` makes those
sweeps cheap twice over:

* **Memoisation** — the engine is the only cache front.  Completed
  points persist under ``.repro_cache/`` (override with
  ``REPRO_CACHE_DIR``; disable with ``REPRO_CACHE=0``; LRU-cap the size
  with ``REPRO_CACHE_MAX_MB``), keyed by a stable hash of
  (architecture, scan configuration, rows, seed, scale, dataset digest,
  machine-config digest, timing-model code digest, query-plan digest,
  package version).  Re-running a figure, or a different figure sharing
  points, loads instead of simulating.  Corrupted or stale-schema
  entries are treated as misses and overwritten, never raised.
* **One executor** — the misses of a sweep run in-process when
  ``jobs == 1`` (``REPRO_JOBS=1``) or only one point misses; otherwise
  on a :class:`~repro.service.SimulationService` the engine owns,
  created at its first parallel miss with no cache of its own.  Its
  persistent workers map the dataset from shared memory, checkpoint at
  pass boundaries under ``<cache dir>/checkpoints`` and retry a crashed
  point.  :meth:`ExperimentEngine.close` (or leaving a ``with`` block,
  or dropping the engine) stops them.  Results are identical either way
  because every point is a pure function of its inputs.

:func:`resolve_points` is the one derivation of a sweep's dataset,
dataset digest and point keys; the engine and the service both use it.
The public entry point is :meth:`ExperimentEngine.sweep`, which returns
the same :class:`~repro.sim.results.ExperimentResult` the serial
``repro.experiments.common.sweep`` helper always produced.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import weakref
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

logger = logging.getLogger("repro.cache")

from ..codegen.base import ScanConfig
from ..common.config import DEFAULT_SCALE, machine_for
from ..common.settings import setting
# generate_*: unused here, kept because perfbench/layertrace.py patches them
from ..db.datagen import LineitemData, generate_lineitem, generate_table  # noqa: F401
from ..db.plan import QueryPlan
from ..db.query6 import q6_select_plan
from . import runner
from .checkpoint import DEFAULT_CHECKPOINT_SUBDIR
from .results import ExperimentResult, RunResult
from .runner import run_scan

#: bump when the cache entry layout (not the simulated timing) changes
#: (2: content checksum — older entries miss honestly and re-simulate)
CACHE_SCHEMA = 2


def cache_directories(
    cache_dir: Optional[str | os.PathLike] = None,
    checkpoint_dir: Optional[str | os.PathLike] = None,
) -> Tuple[str | os.PathLike, str | os.PathLike]:
    """The (result cache, checkpoint) directories: the one rule for both.

    An explicit directory wins; otherwise ``REPRO_CACHE_DIR`` (default
    ``.repro_cache`` in the working directory) and
    ``REPRO_CHECKPOINT_DIR`` (default ``<cache dir>/checkpoints``).
    """
    cache = cache_dir or setting("REPRO_CACHE_DIR")
    checkpoints = (
        checkpoint_dir or setting("REPRO_CHECKPOINT_DIR")
        or os.path.join(cache, DEFAULT_CHECKPOINT_SUBDIR)
    )
    return cache, checkpoints


#: package directories whose source shapes simulated results — the
#: timing model (sim/memory/pim/cpu/cache), the uop lowerings (codegen),
#: the energy formulas (energy), the data/layout/plan substrate (db) and
#: the shared constants (common); code edits there must invalidate
#: cached results even when no config field (and hence no machine
#: digest) changes.  Only the experiments/ harness layer is exempt: it
#: orchestrates sweeps but every result-shaping input it passes is
#: already in the key.
TIMING_MODEL_DIRS = (
    "cache", "codegen", "common", "cpu", "db", "energy", "memory", "pim", "sim",
)


def _package_version() -> str:
    """The repro package version (lazy import: avoids an init cycle)."""
    from .. import __version__

    return __version__


_CODE_DIGEST: Optional[str] = None


def timing_model_files() -> List[Path]:
    """Every source file folded into :func:`code_digest`, sorted.

    Exposed so tests can assert the digest's coverage — in particular
    that the run-compiled kernel stack (``common/resources.py``,
    ``cpu/core.py``, ``cpu/kernel.py``) is inside it: cached points
    written before a kernel/resource rewrite must never be served
    against the rewritten simulator.
    """
    package_root = Path(__file__).resolve().parent.parent
    files: List[Path] = []
    for directory in TIMING_MODEL_DIRS:
        root = package_root / directory
        if not root.is_dir():
            raise RuntimeError(
                f"timing-model directory {directory!r} missing under "
                f"{package_root} — TIMING_MODEL_DIRS is out of date"
            )
        files.extend(sorted(root.rglob("*.py")))
    return files


def code_digest() -> str:
    """Stable hash of the timing-model source files (cached per process).

    The machine digest catches *config-driven* timing changes; this
    catches *code* changes to the simulator itself (every directory in
    :data:`TIMING_MODEL_DIRS`, enumerated by :func:`timing_model_files`),
    so edits that alter results without touching any config field no
    longer silently reuse stale cached numbers until someone remembers
    to bump ``repro.__version__``.

    The steady-state replay layer (``repro.sim.replay``) is covered by
    the ``sim`` directory, and the run-compiled kernels
    (``repro.cpu.kernel``) plus the ring-buffer resources they inline
    (``repro.common.resources``) by ``cpu``/``common`` — replayed,
    kernel-compiled and ``REPRO_EXACT=1``/``REPRO_KERNEL=0`` runs all
    produce bit-identical results by contract and therefore *share*
    cache entries, while any edit to that machinery invalidates them.
    """
    global _CODE_DIGEST
    if _CODE_DIGEST is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in timing_model_files():
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(path.read_bytes())
        _CODE_DIGEST = digest.hexdigest()[:16]
    return _CODE_DIGEST


_DEFAULT_PLAN_DIGEST: Optional[str] = None


def _default_plan_digest() -> str:
    """Digest of the Q6 select-scan plan — the harness's default workload.

    Points running this plan omit the plan field from their key, so a
    plan-less sweep and an explicit Q6-plan sweep share cache entries
    (rather than simulating the identical workload twice); every other
    plan contributes its digest.  Note this shares keys *within* a
    timing-model code digest — entries written before a timing-model
    source edit (or a version bump) still miss, by design.
    """
    global _DEFAULT_PLAN_DIGEST
    if _DEFAULT_PLAN_DIGEST is None:
        _DEFAULT_PLAN_DIGEST = q6_select_plan().digest()
    return _DEFAULT_PLAN_DIGEST


def machine_digest(arch: str, scale: int) -> str:
    """Stable hash of the resolved machine configuration of one point.

    Folding the full :class:`~repro.common.config.MachineConfig` into
    the cache key means any timing-model parameter change (cache sizes,
    DRAM timings, ``isa_window``, energy constants, ...) invalidates
    cached results automatically — no manual version bump needed.
    """
    config = machine_for(arch, scale)
    blob = json.dumps(dataclasses.asdict(config), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def data_digest(data: LineitemData) -> str:
    """Stable content hash of a dataset (column bytes + row count)."""
    digest = hashlib.sha256()
    digest.update(str(data.rows).encode())
    for name in sorted(data.columns):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(data.columns[name]).tobytes())
    return digest.hexdigest()


def point_key(
    arch: str,
    scan: ScanConfig,
    rows: int,
    seed: int,
    scale: int,
    dataset: Optional[str] = None,
    machine: Optional[str] = None,
    plan: Optional[str] = None,
    code: Optional[str] = None,
) -> str:
    """Cache key of one simulation point.

    Any change to the architecture, scan configuration, row count, seed,
    cache scale or package version yields a different key; the dataset
    digest guards sweeps run over externally supplied data, the machine
    digest guards against timing-model *parameter* drift, ``code``
    guards against timing-model *source* drift, and ``plan`` separates
    query plans (the default Q6 select scan passes ``None`` so its
    historical keys keep hitting).
    """
    payload = {
        "arch": arch.lower(),
        "scan": scan.to_dict(),
        "rows": int(rows),
        "seed": int(seed),
        "scale": int(scale),
        "version": _package_version(),
    }
    if dataset is not None:
        payload["dataset"] = dataset
    if machine is not None:
        payload["machine"] = machine
    if plan is not None:
        payload["plan"] = plan
    if code is not None:
        payload["code"] = code
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:40]


def resolve_points(
    points: List[Tuple[str, ScanConfig]],
    rows: int,
    seed: int,
    scale: int,
    data: Optional[LineitemData] = None,
    plan: Optional[QueryPlan] = None,
) -> Tuple[LineitemData, str, List[Optional[str]]]:
    """The dataset, its digest and each point's key, derived once.

    ``data`` defaults to the generated table of the plan's schema (Q6's
    when ``plan`` is None), memoised per (schema, rows, seed) as
    :func:`~repro.sim.runner.run_scan` does.  The default Q6 select plan
    is keyed without a plan field.  A point whose machine cannot be
    resolved (an unknown architecture) gets the key None and is left to
    fail when it runs, with its context attached.
    """
    if data is None:
        schema = (plan if plan is not None else q6_select_plan()).table
        data = runner._memoised_table(schema, rows, seed)
    digest = data_digest(data)
    plan_digest: Optional[str] = None
    if plan is not None and plan.digest() != _default_plan_digest():
        plan_digest = plan.digest()
    machines: Dict[str, Optional[str]] = {}
    keys: List[Optional[str]] = []
    for arch, scan in points:
        if arch not in machines:
            try:
                machines[arch] = machine_digest(arch, scale)
            except ValueError:
                machines[arch] = None
        keys.append(None if machines[arch] is None else point_key(
            arch, scan, rows, seed, scale, dataset=digest,
            machine=machines[arch], plan=plan_digest, code=code_digest(),
        ))
    return data, digest, keys


def _result_checksum(result_payload: Dict[str, Any]) -> str:
    """Content hash of a serialised result (canonical JSON)."""
    blob = json.dumps(result_payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """One-file-per-point JSON store under a cache directory.

    Entries are integrity-checked: each carries the schema version and a
    SHA-256 of its canonical result payload.  A corrupted or truncated
    entry — garbage bytes, a half-written file, a bit-flipped counter —
    is quarantined to ``<key>.json.quarantine`` and reported as a miss,
    so the worst possible outcome of cache damage is a re-simulation,
    never a wrong number feeding a figure.  Entries whose JSON parses
    but whose schema version differs are honest version skew, not
    corruption: they miss without quarantining.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.quarantined = 0
        self.store_failures = 0
        self.last_error: Optional[str] = None
        self._warned = False

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def _quarantine(self, path: Path) -> None:
        self.quarantined += 1
        try:
            os.replace(path, path.with_name(path.name + ".quarantine"))
        except OSError:
            pass

    def load(self, key: str) -> Optional[RunResult]:
        """The cached result for ``key``, or None (corruption = miss).

        Unreadable files miss quietly; unparsable, checksum-failing or
        undeserialisable entries are quarantined first (see class docs).
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError:
            return None
        try:
            entry = json.loads(raw.decode("utf-8"))
            if not isinstance(entry, dict):
                raise ValueError("cache entry is not an object")
        except (ValueError, UnicodeDecodeError):
            self._quarantine(path)
            return None
        if entry.get("schema") != CACHE_SCHEMA:
            return None
        try:
            payload = entry["result"]
            if entry.get("checksum") != _result_checksum(payload):
                raise ValueError("checksum mismatch")
            result = RunResult.from_dict(payload)
        except (ValueError, KeyError, TypeError):
            self._quarantine(path)
            return None
        try:
            os.utime(path)  # refresh recency for LRU eviction
        except OSError:
            pass
        return result

    def store(self, key: str, result: RunResult) -> None:
        """Persist ``result`` under ``key`` (atomic replace).

        Degrades to a *logged* miss instead of raising: a full disk or
        read-only cache directory (``OSError``/ENOSPC) and a result
        carrying a field the JSON encoder rejects
        (``TypeError``/``ValueError``) both leave the sweep running with
        the point simply uncached — ``store_failures`` counts and
        ``last_error`` records what went wrong.  The
        ``enospc@result`` fault site (:mod:`repro.testing.faults`)
        detonates inside this try block, so chaos tests exercise
        exactly this degradation.  The ``finally`` unlink reclaims the
        temp file on every failure path (after a successful
        ``os.replace`` it is already gone, so the unlink is a no-op).
        """
        from ..testing import faults

        path = self.path_for(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            faults.fire_enospc("result", key=key)
            payload = result.to_dict()
            entry = {
                "schema": CACHE_SCHEMA, "key": key,
                "checksum": _result_checksum(payload), "result": payload,
            }
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(entry, handle)
            os.replace(tmp, path)
        except (OSError, TypeError, ValueError) as exc:
            self.store_failures += 1
            self.last_error = f"{type(exc).__name__}: {exc}"
            logger.log(
                logging.DEBUG if self._warned else logging.WARNING,
                "result-cache store degraded to a miss for %s…: %s "
                "(sweep continues uncached)",
                key[:16], self.last_error,
            )
            self._warned = True
        finally:
            tmp.unlink(missing_ok=True)

    def _sweep_stale_tmp(self, min_age_seconds: float = 0.0) -> None:
        """Reclaim ``*.tmp.*`` leftovers of crashed/failed writers.

        ``min_age_seconds`` protects a concurrent writer's live temp
        file (writes finish in milliseconds; stale means orphaned).
        """
        import time

        cutoff = time.time() - min_age_seconds
        for path in self.directory.glob("*.tmp.*"):
            try:
                if path.stat().st_mtime <= cutoff:
                    path.unlink()
            except OSError:
                pass

    def clear(self) -> int:
        """Delete every cache entry; returns how many were removed.

        Stale ``*.tmp.*`` writer leftovers and quarantined entries are
        swept too (not counted as entries).
        """
        self._sweep_stale_tmp()
        for path in self.directory.glob("*.quarantine"):
            try:
                path.unlink()
            except OSError:
                pass
        removed = 0
        for path in self.directory.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def evict_to(self, max_bytes: int) -> int:
        """LRU-evict (by mtime) until the cache fits ``max_bytes``.

        Loads refresh an entry's mtime, so recently used points survive;
        returns how many entries were removed.  Races with concurrent
        writers degrade gracefully (missing files are skipped).  Stale
        ``*.tmp.*`` writer leftovers are reclaimed as well — they are
        unaccounted bytes that would otherwise live under the cache
        directory forever.
        """
        self._sweep_stale_tmp(min_age_seconds=60.0)
        entries = []
        total = 0
        for path in self.directory.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        if total <= max_bytes:
            return 0
        removed = 0
        for mtime, size, path in sorted(entries):  # oldest first
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
        return removed


class PointExecutionError(RuntimeError):
    """A sweep point failed, annotated with which point.

    An in-process failure chains the original exception as
    ``__cause__``; a service worker's failure carries its formatted
    traceback in the message.

    ``attempts`` carries the service's per-attempt post-mortem when the
    retry budget is exhausted: one dict per attempt with the failure
    ``kind`` (``"crash"``/``"stalled"``/``"exception"``), a human
    ``reason``, the attempt ``duration`` in seconds, and — for crashes —
    the worker's ``exitcode``/signal.  A point that died once to a
    SIGKILL and once to a hang is then distinguishable from one that
    raised twice, which is exactly what the chaos post-mortems need.
    """

    def __init__(
        self,
        message: str,
        arch: Optional[str] = None,
        op_bytes: Optional[int] = None,
        rows: Optional[int] = None,
        attempts: Optional[List[Dict[str, Any]]] = None,
    ) -> None:
        super().__init__(message)
        self.arch = arch
        self.op_bytes = op_bytes
        self.rows = rows
        self.attempts = list(attempts or [])


def _run_point(
    arch: str,
    scan: ScanConfig,
    rows: int,
    seed: int,
    scale: int,
    data: Optional[LineitemData],
    plan: Optional[QueryPlan],
) -> RunResult:
    """One point with failures wrapped in :class:`PointExecutionError`."""
    try:
        return run_scan(arch, scan, rows=rows, seed=seed, scale=scale,
                        data=data, plan=plan)
    except Exception as exc:
        raise PointExecutionError(
            f"sweep point (arch={arch}, op_bytes={scan.op_bytes}, "
            f"layout={scan.layout}, strategy={scan.strategy}, rows={rows}) "
            f"failed: {exc!r}",
            arch, scan.op_bytes, rows,
        ) from exc


def _resolve_jobs(jobs: Optional[int]) -> int:
    """Worker count: explicit argument > ``REPRO_JOBS`` > CPU count."""
    if jobs is None:
        jobs = setting("REPRO_JOBS") or os.cpu_count() or 1
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    return jobs


class ExperimentEngine:
    """Runs sweeps of simulation points behind the result cache.

    Parameters
    ----------
    jobs:
        Worker processes for parallel misses; ``1`` executes serially
        in-process.  Defaults to ``REPRO_JOBS`` or the machine's CPU
        count.
    cache_dir:
        Result cache location (see :func:`cache_directories`); the
        engine's service checkpoints under its ``checkpoints``
        subdirectory.
    use_cache:
        Force the cache on/off; defaults to ``REPRO_CACHE`` (on).
    cache_max_mb:
        Size cap of the on-disk cache in MB; when exceeded after a
        sweep, least-recently-used entries (by mtime — loads refresh
        it) are evicted.  Defaults to ``REPRO_CACHE_MAX_MB``
        (unbounded when unset).

    ``service`` runs parallel misses: None until the first, then a
    cache-less :class:`~repro.service.SimulationService` with ``jobs``
    workers, stopped by :meth:`close`, a ``with`` block or a dropped engine.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache_dir: Optional[str | os.PathLike] = None,
        use_cache: Optional[bool] = None,
        cache_max_mb: Optional[float] = None,
    ) -> None:
        self.jobs = _resolve_jobs(jobs)
        self.cache_dir, _ = cache_directories(cache_dir)
        if use_cache is None:
            use_cache = setting("REPRO_CACHE")
        self.cache: Optional[ResultCache] = (
            ResultCache(self.cache_dir) if use_cache else None
        )
        if cache_max_mb is None:
            cache_max_mb = setting("REPRO_CACHE_MAX_MB")
        elif cache_max_mb <= 0:
            raise ValueError("cache size cap must be positive")
        self.cache_max_bytes: Optional[int] = (
            None if cache_max_mb is None else int(cache_max_mb * 1024 * 1024)
        )
        self.service: Optional[Any] = None
        self._close_service: Optional[weakref.finalize] = None
        self.cache_hits = 0
        self.cache_misses = 0
        self.simulated_points = 0
        self.cache_evictions = 0

    # -- public API --------------------------------------------------------

    def sweep(
        self,
        name: str,
        points: List[Tuple[str, ScanConfig]],
        rows: int,
        data: Optional[LineitemData] = None,
        seed: int = 1994,
        scale: int = DEFAULT_SCALE,
        plan: Optional[QueryPlan] = None,
    ) -> ExperimentResult:
        """Run (arch, config) points of one query plan over one dataset.

        Drop-in compatible with the historical serial ``sweep()``:
        results come back in ``points`` order inside an
        :class:`ExperimentResult`, and a point failing functional
        verification raises ``AssertionError``.  ``plan`` defaults to
        the Q6 select scan; the default plan is keyed without a plan
        field, so plan-less and explicit-Q6 sweeps share cache entries,
        while every other plan gets distinct entries via its digest.
        """
        data, _, keys = resolve_points(points, rows, seed, scale, data, plan)
        runs: List[Optional[RunResult]] = [None] * len(points)
        pending: List[int] = []
        for index, key in enumerate(keys):
            cached = self.cache.load(key) if self.cache and key else None
            if cached is not None:
                self.cache_hits += 1
                runs[index] = cached
            else:
                self.cache_misses += 1
                pending.append(index)

        if pending:
            fresh = self._execute(
                [points[i] for i in pending], data, rows, seed, scale, plan
            )
            for index, run in zip(pending, fresh):
                if self.cache and keys[index] and run.verified is not False:
                    self.cache.store(keys[index], run)
                runs[index] = run
        if self.cache is not None and self.cache_max_bytes is not None:
            # Enforced even on fully-warm sweeps, so lowering the cap on
            # an existing oversized cache takes effect immediately.
            self.cache_evictions += self.cache.evict_to(self.cache_max_bytes)

        result = ExperimentResult(name=name)
        for (arch, scan), run in zip(points, runs):
            if run.verified is False:
                raise AssertionError(f"{arch} {scan} failed functional verification")
            result.runs.append(run)
        return result

    def run_point(
        self,
        arch: str,
        scan: ScanConfig,
        rows: int,
        data: Optional[LineitemData] = None,
        seed: int = 1994,
        scale: int = DEFAULT_SCALE,
        plan: Optional[QueryPlan] = None,
    ) -> RunResult:
        """One cached simulation point (a single-point :meth:`sweep`)."""
        outcome = self.sweep(
            f"{arch}-{scan.op_bytes}B", [(arch, scan)], rows,
            data=data, seed=seed, scale=scale, plan=plan,
        )
        return outcome.runs[0]

    def clear_cache(self) -> int:
        """Drop every cached result; returns the number removed."""
        return self.cache.clear() if self.cache is not None else 0

    def close(self) -> None:
        """Stop the engine's service, if any (a later miss starts anew)."""
        if self.service is not None:
            self._close_service()
            self.service = None

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution ---------------------------------------------------------

    def _execute(
        self,
        points: List[Tuple[str, ScanConfig]],
        data: LineitemData,
        rows: int,
        seed: int,
        scale: int,
        plan: Optional[QueryPlan] = None,
    ) -> List[RunResult]:
        """Simulate ``points`` (cache misses only): in-process or service."""
        self.simulated_points += len(points)
        if self.jobs == 1 or len(points) == 1:
            return [
                _run_point(arch, scan, rows, seed, scale, data, plan)
                for arch, scan in points
            ]
        if self.service is None:
            from ..service import SimulationService

            self.service = SimulationService(
                jobs=self.jobs, cache_dir=self.cache_dir, use_cache=False
            )
            # No worker outlives its engine, closed or not.
            self._close_service = weakref.finalize(
                self, self.service.close, timeout=5.0, force=True
            )
        return self.service.execute_points(
            points, data, rows, seed, scale, plan=plan
        )
