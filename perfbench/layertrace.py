"""Outside-in layer trace of one workload pass.

:class:`Tracer` patches timing wrappers around the program's public
entry points *where their callers look them up* (``run_scan`` is
patched in ``repro.sim.runner`` and ``repro.sim.engine``,
``compute_energy`` in ``repro.sim.runner``, ...), before any pool or
service worker forks, so the workers inherit the wrappers.  Each call
becomes a span: name, start, end, parent span, request id and the
counts taken at that boundary.  Spans stay in memory; a worker process
writes its spans out after each top-level span (one job), the parent
when the pass ends.  :func:`layer_metrics` folds the spans of every
process into the per-layer metrics.

High-frequency leaf calls (one ``next()`` of a codegen run stream per
TraceRun) are folded into their parent span as a total and a count
instead of one span each.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import multiprocessing
import os
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.codegen.hipe
import repro.codegen.hive
import repro.codegen.hmc
import repro.codegen.x86
import repro.cpu.kernel
import repro.db.datagen
import repro.memory.shared_data
import repro.service.service
import repro.sim.checkpoint
import repro.sim.engine
import repro.sim.machine
import repro.sim.runner
from repro import run_scan

from workloads import Point, percentile, point_label

#: the tracer whose state a forked child must reset (see ``_after_fork``)
_ACTIVE: Optional["Tracer"] = None
_FORK_HOOK_INSTALLED = False


def _after_fork() -> None:
    if _ACTIVE is not None:
        _ACTIVE.forget_parent()


def _label(arch, scan, rows, data=None, plan=None) -> str:
    """The request id of a call naming a point by its arguments."""
    return point_label(arch, scan, data.rows if data is not None else rows,
                       plan)


class _TimedRuns:
    """A codegen run stream whose every ``next()`` is timed and counted."""

    def __init__(self, tracer: "Tracer", runs) -> None:
        self._tracer = tracer
        self._runs = iter(runs)

    def __iter__(self):
        return self

    def __next__(self):
        start = time.monotonic()
        try:
            run = next(self._runs)
        except StopIteration:
            self._tracer.fold("codegen", time.monotonic() - start)
            raise
        self._tracer.fold("codegen", time.monotonic() - start,
                          iterations=run.count)
        return run


class Tracer:
    """Spans of one traced pass, across the parent and its workers."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.root_pid = os.getpid()
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, req: Optional[str] = None) -> Dict[str, Any]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = {
            "id": f"{os.getpid()}.{next(self._ids)}",
            "name": name,
            "pid": os.getpid(),
            "parent": parent["id"] if parent else None,
            "req": req if req is not None else (parent or {}).get("req"),
            "start": time.monotonic(),
            "end": None,
            "fold": {},
            "counts": {},
        }
        stack.append(span)
        return span

    def end(self, span: Dict[str, Any]) -> None:
        span["end"] = time.monotonic()
        stack = self._stack()
        stack.remove(span)
        with self._lock:
            self.spans.append(span)
        if not stack and os.getpid() != self.root_pid:
            self.flush()  # a worker writes its spans out per job

    def fold(self, name: str, seconds: float, **counts: int) -> None:
        """Add one leaf call to the innermost open span."""
        stack = self._stack()
        if not stack:
            span = self.begin(name)
            span["start"] -= seconds
            self.end(span)
            return
        target = stack[-1]
        total = target["fold"].setdefault(name, [0.0, 0])
        total[0] += seconds
        total[1] += 1
        for key, value in counts.items():
            target["counts"][key] = target["counts"].get(key, 0) + value

    def flush(self) -> None:
        with self._lock:
            spans, self.spans = self.spans, []
        if not spans:
            return
        path = self.directory / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")

    def forget_parent(self) -> None:
        """In a freshly forked child: drop the parent's spans and stacks."""
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def collect(self) -> List[Dict[str, Any]]:
        """Every span of the pass: the parent's and each worker's file."""
        self.flush()
        spans: List[Dict[str, Any]] = []
        for path in sorted(self.directory.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                spans.extend(json.loads(line) for line in handle)
        return spans

    # -- patching ----------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str,
             req_of: Optional[Callable[..., str]] = None,
             before: Optional[Callable[..., Any]] = None,
             after: Optional[Callable[..., None]] = None) -> None:
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.begin(name, req_of(*args, **kwargs) if req_of else None)
            token = before() if before else None
            try:
                result = original(*args, **kwargs)
                if after:
                    after(span, token, result, args)
                return result
            finally:
                tracer.end(span)

        if inspect.isfunction(original):
            traced = functools.wraps(original)(traced)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> None:
        global _ACTIVE, _FORK_HOOK_INSTALLED
        runner = repro.sim.runner
        engine = repro.sim.engine
        service = repro.service.service
        kernel = repro.cpu.kernel
        signature = inspect.signature(runner.run_scan)

        def scan_label(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            return _label(a["arch"], a["scan"], a["rows"], a["data"],
                          a["plan"])

        def scan_after(span, before, result, args):
            after = kernel.code_cache_stats()
            counts = span["counts"]
            counts["kernels_compiled"] = after["compiled"] - before["compiled"]
            counts["kernels_shared"] = after["shared"] - before["shared"]
            stats = result.replay
            if stats is not None:
                counts["replay_skipped"] = stats.skipped_iterations
                counts["replay_simulated"] = stats.simulated_iterations
                counts["replay_probes_failed"] = stats.probes_failed
                counts["replay_fragment_sigs"] = stats.fragment_sigs
                counts["replay_fragments_seen"] = stats.fragments_seen
                counts["replay_fragments_stitched"] = stats.fragments_stitched

        for owner in (runner, engine):
            self.wrap(owner, "run_scan", "run_scan", req_of=scan_label,
                      before=kernel.code_cache_stats, after=scan_after)
        self.wrap(runner, "build_machine", "build_machine")
        self.wrap(runner, "build_workload", "build_workload")
        self.wrap(runner, "compute_energy", "compute_energy")
        self.wrap(runner, "execute_plan", "execute_plan")
        for owner in (runner, engine, repro.db.datagen):
            self.wrap(owner, "generate_table", "datagen")
        self.wrap(engine, "generate_lineitem", "datagen")
        for owner in (engine, service):
            self.wrap(owner, "data_digest", "digest")
        self.wrap(repro.sim.machine.Machine, "run_runs", "run_runs")
        self.wrap(kernel, "compile_shape", "compile_shape")

        def traced_codegen(module):
            original = module.generate_plan_runs

            @functools.wraps(original)
            def generate_plan_runs(workload, scan):
                span = self.begin("codegen")
                try:
                    runs = original(workload, scan)
                finally:
                    self.end(span)
                return _TimedRuns(self, runs)

            self._patches.append((module, "generate_plan_runs", original))
            module.generate_plan_runs = generate_plan_runs

        for module in (repro.codegen.x86, repro.codegen.hmc,
                       repro.codegen.hive, repro.codegen.hipe):
            traced_codegen(module)

        def load_after(span, before, result, args):
            span["counts"]["cache_loads"] = 1
            span["counts"]["cache_hits"] = int(result is not None)

        self.wrap(engine.ResultCache, "load", "cache_load", after=load_after)
        self.wrap(engine.ResultCache, "store", "cache_store")

        def save_after(span, before, saved, args):
            store, key = args[0], args[1]
            if saved:
                span["counts"]["checkpoint_bytes"] = \
                    store.path_for(key).stat().st_size

        self.wrap(repro.sim.checkpoint.CheckpointStore, "save",
                  "checkpoint_save", after=save_after)

        def submit_label(service_, arch, scan, rows, **kwargs):
            return _label(arch, scan, rows, kwargs.get("data"),
                          kwargs.get("plan"))

        self.wrap(service.SimulationService, "submit", "submit",
                  req_of=submit_label)
        self.wrap(service, "DatasetImage", "publish")
        self.wrap(repro.memory.shared_data, "attach_dataset", "attach")

        _ACTIVE = self
        if not _FORK_HOOK_INSTALLED:
            os.register_at_fork(after_in_child=_after_fork)
            _FORK_HOOK_INSTALLED = True

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        _ACTIVE = None


# -- per-layer metrics ---------------------------------------------------------

def _duration(span: Dict[str, Any]) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: List[Dict[str, Any]], outcome, jobs: int,
                  root_pid: int) -> Dict[str, float]:
    """Fold the spans and outputs of one traced pass into layer metrics.

    A layer that does no work on a workload reads 0.
    """
    known = {span["id"] for span in spans}
    child_time: Dict[str, float] = defaultdict(float)
    for span in spans:
        if span["parent"] in known:
            child_time[span["parent"]] += _duration(span)

    def named(name):
        return [span for span in spans if span["name"] == name]

    def total(*names):
        return sum(_duration(s) for name in names for s in named(name))

    def self_time(name):
        return sum(
            _duration(s) - child_time[s["id"]]
            - sum(seconds for seconds, _ in s["fold"].values())
            for s in named(name)
        )

    def count(key):
        return sum(span["counts"].get(key, 0) for span in spans)

    compiled, shared = count("kernels_compiled"), count("kernels_shared")
    skipped = count("replay_skipped")
    saves = named("checkpoint_save")
    metrics = {
        "db.datagen_s": total("datagen"),
        "db.digest_s": total("digest"),
        "codegen.s": total("codegen") + sum(
            s["fold"].get("codegen", [0.0, 0])[0] for s in spans),
        "codegen.iterations": count("iterations"),
        "sim.build_s": total("build_machine", "build_workload"),
        "sim.verify_s": self_time("run_scan") + total("execute_plan"),
        "energy.s": total("compute_energy"),
        "sim.run_s": self_time("run_runs"),
        "cpu.compile_s": total("compile_shape"),
        "cpu.kernels_compiled": compiled,
        "cpu.kernel_shared_share": share_of(shared, compiled + shared),
        "replay.skipped_share": share_of(
            skipped, skipped + count("replay_simulated")),
        "replay.probes_failed": count("replay_probes_failed"),
        "replay.fragment_sigs": count("replay_fragment_sigs"),
        "replay.stitched_share": share_of(
            count("replay_fragments_stitched"),
            count("replay_fragments_seen")),
        "engine.cache_store_s": total("cache_store"),
        "engine.cache_load_s": total("cache_load"),
        "engine.cache_hit_share": share_of(count("cache_hits"),
                                           count("cache_loads")),
        "engine.worker_idle_share": _idle_share(spans, outcome, jobs,
                                                root_pid),
        "checkpoint.saves": len(saves),
        "checkpoint.save_s": total("checkpoint_save"),
        "checkpoint.mb": count("checkpoint_bytes") / 1e6,
        "service.submit_s": total("submit"),
        "shm.publish_s": total("publish"),
        "shm.attach_s": total("attach"),
    }
    metrics.update(_service_metrics(spans, outcome))
    metrics.update(model_metrics(outcome.results))
    metrics["model.paper_err"] = outcome.notes.get("paper_err", 0.0)
    return metrics


def _idle_share(spans, outcome, jobs, root_pid) -> float:
    """Share of worker capacity idle during the measured phase."""
    lo, hi = outcome.window
    if hi <= lo:
        return 0.0
    busy = sum(
        max(0.0, min(s["end"], hi) - max(s["start"], lo))
        for s in spans
        if s["pid"] != root_pid and s["parent"] is None
        and s["name"] in ("run_scan", "attach")
    )
    return max(0.0, 1.0 - busy / (jobs * (hi - lo)))


def _service_metrics(spans, outcome) -> Dict[str, float]:
    records = outcome.records
    waits = [r.started_at - r.submitted_at for r in records
             if r.started_at is not None]
    worker_scans = [s for s in spans if s["name"] == "run_scan"
                    and s["parent"] is None]
    overheads = []
    for record in records:
        inside = [
            s for s in worker_scans
            if s["pid"] == record.worker_pid
            and record.started_at <= s["start"] and s["end"] <= record.finished_at
        ]
        if inside:
            overheads.append(record.finished_at - record.started_at
                             - _duration(inside[-1]))
    return {
        "service.queue_wait_p50_s": percentile(waits, 0.5) if waits else 0.0,
        "service.queue_wait_p90_s": percentile(waits, 0.9) if waits else 0.0,
        "service.overhead_p50_s": (statistics.median(overheads)
                                   if overheads else 0.0),
        "service.retries": sum(max(0, r.attempts - 1) for r in records),
    }


MODEL_ARCHS = ("x86", "hmc", "hive", "hipe")


def model_metrics(results: Dict[str, Any]) -> Dict[str, float]:
    """Simulated per-row costs of each architecture over the workload."""
    metrics: Dict[str, float] = {}
    for arch in MODEL_ARCHS:
        runs = [r for r in results.values() if r.arch == arch]
        rows = sum(r.rows for r in runs)
        dram = sum(r.stats.get(f"{arch}.hmc.dram_bytes_read", 0)
                   + r.stats.get(f"{arch}.hmc.dram_bytes_written", 0)
                   for r in runs)
        metrics[f"model.{arch}.cycles_per_row"] = share_of(
            sum(r.cycles for r in runs), rows)
        metrics[f"model.{arch}.dram_bytes_per_row"] = share_of(dram, rows)
        metrics[f"model.{arch}.dram_pj_per_row"] = share_of(
            sum(r.energy.dram_total_pj for r in runs), rows)
    hipe = [r for r in results.values() if r.arch == "hipe"]
    metrics["model.hipe.squashed_load_share"] = share_of(
        sum(r.stats.get("hipe.hipe.squashed_loads", 0) for r in hipe),
        sum(r.stats.get("hipe.hipe.loads", 0) for r in hipe))
    return metrics


def share_of(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# -- replay saving ---------------------------------------------------------------

#: the points the forked measuring processes read (inherited at fork)
_SAVING_POINTS: List[Point] = []


def _exact_vs_default(index: int) -> Tuple[float, float, bool]:
    """One point run exact and default back to back in this process.

    The order alternates with the point index, so warm per-process
    state (compiled kernel code) favours neither path on the whole.
    """
    p = _SAVING_POINTS[index]
    walls = {}
    results = {}
    order = (True, None) if index % 2 == 0 else (None, True)
    for exact in order:
        start = time.monotonic()
        results[exact] = run_scan(p.arch, p.scan, rows=p.rows, data=p.data,
                                  plan=p.plan, exact=exact)
        walls[exact] = time.monotonic() - start
    return walls[True], walls[None], results[True] == results[None]


def replay_saving(points: List[Point], jobs: int) -> Tuple[float, List[str]]:
    """Exact minus default wall over ``points``; labels whose results differ.

    Points are handed out in list order to ``jobs`` forked processes.
    """
    global _SAVING_POINTS
    _SAVING_POINTS = list(points)
    try:
        context = multiprocessing.get_context("fork")
        with context.Pool(min(jobs, len(points))) as pool:
            outcomes = pool.map(_exact_vs_default, range(len(points)),
                                chunksize=1)
    finally:
        _SAVING_POINTS = []
    saved = sum(exact - default for exact, default, _ in outcomes)
    differing = [p.label for p, (_, _, same) in zip(points, outcomes)
                 if not same]
    return saved, differing
