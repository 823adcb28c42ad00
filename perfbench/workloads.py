"""The two workloads of the end-to-end benchmark.

Each workload drives the simulator only through its public API
(``ExperimentEngine`` and the figure harnesses, ``SimulationService``,
``run_scan``) and returns a :class:`Outcome`: the end-to-end metrics,
the simulated outputs it checked, and the raw samples the traced pass
needs.  README.md explains why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import multiprocessing
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for result caches, checkpoints and spans; deleted per run
WORK = ROOT / ".perfbench_work"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# The program under test.  A checkout without src/ fails right here,
# before anything is printed.
from repro import (  # noqa: E402
    LINEITEM_Q6_SCHEMA,
    ExperimentEngine,
    JobState,
    ScanConfig,
    SimulationService,
    q6_select_plan,
    selectivity_scan_plan,
)
from repro.db import datagen  # noqa: E402
from repro.db.scan import execute_plan  # noqa: E402
from repro.experiments import (  # noqa: E402
    run_fig3a,
    run_fig3b,
    run_fig3c,
    run_fig3d,
)
from repro.experiments.common import BEST_CONFIGS  # noqa: E402
from repro.experiments.fig3a import fig3a_points  # noqa: E402
from repro.experiments.fig3b import fig3b_points  # noqa: E402
from repro.experiments.fig3c import fig3c_points  # noqa: E402

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3

#: the headline ratios the figure harnesses annotate with the paper's
#: values (13 of them; ``hive_unroll_gain`` and the 3d energy savings
#: carry no single paper number)
PAPER_HEADLINES: Dict[str, Dict[str, float]] = {
    "fig3a": {
        "hmc16_vs_x86_16": 1.97,
        "hmc64_vs_x86_64": 2.19,
        "hmc256_vs_best_x86": 0.82,
        "hive16_vs_x86_16": 3.0,
        "hive256_vs_best_x86": 1.11,
    },
    "fig3b": {"x86_vs_hmc256": 4.38, "hive256_vs_best_x86": 2.0},
    "fig3c": {"hmc256_32x_speedup": 5.15, "hive256_32x_speedup": 7.57},
    "fig3d": {
        "hmc_speedup": 5.15,
        "hive_speedup": 7.55,
        "hipe_speedup": 6.46,
        "hipe_vs_hive_slowdown": 1.15,
    },
}


def nproc() -> int:
    """CPUs this process may run on; no workload uses more workers."""
    return len(os.sched_getaffinity(0))


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]); inf sorts last."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def paper_err(headlines: Dict[str, Dict[str, float]]) -> float:
    """``exp(mean |ln(sim/paper)|) - 1`` over :data:`PAPER_HEADLINES`."""
    logs = [
        abs(math.log(headlines[figure][name] / paper))
        for figure, values in PAPER_HEADLINES.items()
        for name, paper in values.items()
    ]
    return math.exp(sum(logs) / len(logs)) - 1.0


def result_record(result) -> Dict[str, Any]:
    """The simulated output of one point that the digest covers."""
    return {
        "arch": result.arch,
        "scan": result.scan.to_dict(),
        "rows": result.rows,
        "cycles": result.cycles,
        "uops": result.uops,
        "stats": result.stats,
        "energy": result.energy.to_dict(),
    }


def output_digest(records: List[Dict[str, Any]]) -> str:
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    """Largest peak RSS of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the program."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.monotonic()
    subprocess.run(
        [sys.executable, "-c", "import repro.experiments"],
        cwd=ROOT, env=env, check=True, capture_output=True, timeout=60,
    )
    return time.monotonic() - start


#: the probe's CPU time on an unloaded reference host (2 vCPUs at 2 GHz)
REFERENCE_PROBE_S = 0.003
#: probes per host-speed sample; their median is the sample
SAMPLE_PROBES = 16
#: while a batch runs, its processes are stopped this often for a sample
#: of this many probes (about 15 ms, so 3 % of the batch's wall)
PAUSE_INTERVAL_S = 0.5
PAUSE_PROBES = 4


def probe_seconds() -> float:
    """CPU seconds this thread spends on one fixed pure-Python work unit."""
    start = time.thread_time()
    counters: Dict[int, int] = {}
    for i in range(20_000):
        key = i & 1023
        counters[key] = counters.get(key, 0) + i
    return time.thread_time() - start


def child_pids() -> List[int]:
    """Every child process of this process, whichever thread started it."""
    pids: List[int] = []
    for path in Path("/proc/self/task").glob("*/children"):
        pids.extend(int(pid) for pid in path.read_text().split())
    return pids


def stop_children(grace: float = 10.0) -> None:
    """Stop every process this one started and wait for each to end.

    Pool and service workers that are still alive get ``grace`` seconds
    and are then killed.  The multiprocessing resource tracker, which the
    service's first shared-memory dataset starts, would outlive the run
    (it exits only once every holder of its pipe has), so it is stopped
    after the workers.  Anything left after that is killed.
    """
    deadline = time.monotonic() + grace
    for process in multiprocessing.active_children():
        process.join(max(0.0, deadline - time.monotonic()))
        if process.is_alive():
            process.kill()
            process.join()
    with contextlib.suppress(ChildProcessError):
        resource_tracker._resource_tracker._stop()
    for pid in child_pids():
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)


class HostSpeed:
    """The host's speed, probed only while the workload's workers are idle.

    The simulator is pure Python, and on a shared host its speed drifts
    by 20-40 % within seconds to minutes as other tenants load the same
    cores.  A timing is therefore scaled by how long
    :func:`probe_seconds` took around it, relative to
    :data:`REFERENCE_PROBE_S`.  No sample is taken while a worker of
    the workload runs, so the factor follows the other tenants' load and
    never the workload's own: samples fall between set-ups and before
    cache hits, when no worker runs, and, while set-ups or batches run,
    in short pauses during which :meth:`pausing` stops every child
    process.  CPU time of the probing thread is used, so
    waiting for a CPU or the interpreter lock does not count as a slow
    host.
    """

    def __init__(self, pause: bool = True) -> None:
        #: whether :meth:`pausing` stops the batch to sample (a traced
        #: pass does not: its spans would include the pauses)
        self.pause = pause
        #: tag -> one median probe time per sample
        self.samples: Dict[str, List[float]] = {}
        #: (start, end) of every pause, monotonic clock
        self.pauses: List[Tuple[float, float]] = []

    def sample(self, tag: str, probes: int = SAMPLE_PROBES) -> None:
        """Probe the host now and file the median under ``tag``."""
        probe_seconds()  # warms the interpreter up after an idle spell
        values = [probe_seconds() for _ in range(probes)]
        self.samples.setdefault(tag, []).append(statistics.median(values))

    def factor(self, tag: str) -> float:
        """How much slower than the reference the host ran at ``tag``.

        A tag without samples (its phase failed) uses every sample.
        """
        chosen = self.samples.get(tag) or [
            probe for probes in self.samples.values() for probe in probes]
        return statistics.median(chosen) / REFERENCE_PROBE_S

    @contextlib.contextmanager
    def pausing(self, tag: str):
        """Sample ``tag`` every :data:`PAUSE_INTERVAL_S` while the block
        runs, each time with every child process stopped (SIGSTOP) until
        the sample is taken.  Subtract :meth:`paused` from the timings."""
        if not self.pause:
            yield
            return
        done = threading.Event()

        def loop():
            while not done.wait(PAUSE_INTERVAL_S):
                self._paused_sample(tag)

        thread = threading.Thread(target=loop, name="perfbench-host-speed")
        thread.start()
        try:
            yield
        finally:
            done.set()
            thread.join()

    def _paused_sample(self, tag: str) -> None:
        start = time.monotonic()
        stopped = []
        try:
            for pid in child_pids():
                try:
                    os.kill(pid, signal.SIGSTOP)
                    stopped.append(pid)
                except ProcessLookupError:
                    pass
            self.sample(tag, probes=PAUSE_PROBES)
        finally:
            for pid in stopped:
                try:
                    os.kill(pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass
            self.pauses.append((start, time.monotonic()))

    def paused(self, lo: float, hi: float) -> float:
        """Seconds of ``[lo, hi]`` the workload's processes were stopped."""
        return sum(max(0.0, min(end, hi) - max(start, lo))
                   for start, end in self.pauses)


def children_cpu() -> float:
    """CPU seconds of every child process this process has waited for."""
    times = os.times()
    return times.children_user + times.children_system


def point_label(arch: str, scan: ScanConfig, rows: int, plan=None) -> str:
    """Name of a point in the output: ``arch-opB@unroll-plan-rows``."""
    name = plan.name if plan is not None else "q6_select"
    return f"{arch}-{scan.op_bytes}B@{scan.unroll}-{name}-{rows}"


@dataclass
class Point:
    """One requested simulation point of a workload."""

    arch: str
    scan: ScanConfig
    plan: Any
    data: Any

    @property
    def rows(self) -> int:
        return int(self.data.rows)

    @property
    def label(self) -> str:
        return point_label(self.arch, self.scan, self.rows, self.plan)


@dataclass
class Outcome:
    """What one pass of a workload measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    #: operations attempted / failed (failed, unverified, refused, expired)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: output checks that did not hold (wrong results)
    wrong: List[str] = field(default_factory=list)
    digest: str = ""
    notes: Dict[str, Any] = field(default_factory=dict)
    #: the work measure ``trace.overhead_share`` compares, in seconds
    work_s: float = 0.0
    #: label -> RunResult of every simulated point (model metrics)
    results: Dict[str, Any] = field(default_factory=dict)
    #: (start, end) of the measured phase, monotonic clock
    window: Tuple[float, float] = (0.0, 0.0)
    #: metric -> the :class:`HostSpeed` tag of the samples taken around
    #: it; None leaves the metric uncalibrated
    speed_tags: Dict[str, Optional[str]] = field(default_factory=lambda: {
        "setup_s": "setup", "rows_per_s": "phase",
        "latency_p50_s": "phase", "hit_latency_p50_s": "hit"})
    #: service job records of the measured phase (service workloads)
    records: List[Any] = field(default_factory=list)
    #: distinct points of the workload, for the replay-saving measurement
    points: List[Point] = field(default_factory=list)


class Workdir:
    """Fresh directories under :data:`WORK`, removed by :meth:`cleanup`."""

    def __init__(self) -> None:
        self.root = WORK / f"run-{os.getpid()}"
        self._count = 0

    def fresh(self, name: str) -> Path:
        self._count += 1
        path = self.root / f"{self._count:02d}-{name}"
        path.mkdir(parents=True)
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def timed_setups(setup: Callable[[], Any], teardown: Callable[[Any], None],
                 outcome: "Outcome", speed: HostSpeed,
                 repeats: int = SETUP_REPEATS) -> Any:
    """Set up ``repeats`` times, keep the last; ``setup_s`` is the median.

    Each set-up is timed as a fresh interpreter's imports plus the
    in-process set-up (engine or service start, tables, warm-up).  The
    host is sampled before each set-up, once the previous one's workers
    have stopped, after the last one, whose workers are then idle, and
    in pauses while they run.
    """
    walls = []
    state = None
    with speed.pausing("setup"):
        for _ in range(repeats):
            if state is not None:
                teardown(state)
            speed.sample("setup")
            began = time.monotonic()
            imports = import_seconds()
            start = time.monotonic()
            state = setup()
            end = time.monotonic()
            walls.append(imports + end - start - speed.paused(began, end))
    speed.sample("setup")
    outcome.metrics["setup_s"] = statistics.median(walls)
    return state


def check_point(point: Point, result, outcome: Outcome) -> None:
    """Functional checks of one result, outside any timed region.

    An unverified result is a failed operation (it counts in the error
    rate) and a wrong output (the run exits 1).
    """
    if result.verified is False:
        outcome.failures.append(f"{point.label}: unverified")
        outcome.wrong.append(f"{point.label}: failed functional verification")
    if point.plan is not None and point.plan.aggregate is not None:
        expected = execute_plan(point.plan, point.data).aggregates
        if result.aggregates != expected:
            outcome.wrong.append(
                f"{point.label}: aggregates differ from execute_plan"
            )


def occupancy(cpu_before: float, jobs: int, wall: float) -> float:
    """Share of the workers' capacity their CPU time filled over ``wall``.

    Call once the workers have exited, so their CPU time is counted.
    """
    return (children_cpu() - cpu_before) / (jobs * wall) if wall else 0.0


def finish_service(service: SimulationService) -> None:
    service.close(timeout=60.0, force=True)


# -- figures -----------------------------------------------------------------

FIGURE_ROWS = {"fig3a": 8_192, "fig3b": 32_768, "fig3c": 32_768,
               "fig3d": 32_768}
HARNESSES = (("fig3a", run_fig3a), ("fig3b", run_fig3b),
             ("fig3c", run_fig3c), ("fig3d", run_fig3d))
FIGURE_POINTS = {"fig3a": len(fig3a_points()), "fig3b": len(fig3b_points()),
                 "fig3c": len(fig3c_points()), "fig3d": len(BEST_CONFIGS)}
#: cache-served redraws of each figure right after its first draw
FIGURE_REDRAWS = 9


def figures(seed: int, seconds: float, work: Workdir, tiny: bool = False,
            jobs: Optional[int] = None, setups: int = SETUP_REPEATS,
            speed: Optional[HostSpeed] = None) -> Outcome:
    """Regenerate Figures 3a-3d on one engine, then again from its cache.

    The figures keep the harnesses' fixed 1994 dataset (``paper_err`` is
    defined on it), so ``seed`` and ``seconds`` do not apply.
    """
    jobs = jobs or nproc()
    speed = speed or HostSpeed()
    rows = {name: (128 if name == "fig3a" else 256) if tiny else count
            for name, count in FIGURE_ROWS.items()}
    outcome = Outcome()

    def setup():
        return ExperimentEngine(jobs=jobs, cache_dir=work.fresh("figures"))

    engine = timed_setups(setup, lambda e: None, outcome, speed, setups)

    results: Dict[str, Any] = {}
    walls: Dict[str, float] = {}
    redraws: Dict[str, float] = {}
    hits = 0
    cpu = children_cpu()
    start = time.monotonic()
    for name, harness in HARNESSES:
        began = time.monotonic()
        try:
            with speed.pausing("phase"):
                results[name] = harness(rows=rows[name], engine=engine)
        except AssertionError as exc:
            outcome.failures.append(f"{name}: {exc}")
            if "functional verification" in str(exc):
                outcome.wrong.append(f"{name}: {exc}")
        except Exception as exc:  # a failed point aborts its harness call
            outcome.failures.append(f"{name}: {exc!r}")
        ended = time.monotonic()
        walls[name] = ended - began - speed.paused(began, ended)
        if name not in results:
            continue
        # Redraw the figure from the cache right away, so the cache-hit
        # samples spread over the run as the first draws do.
        samples = []
        for _ in range(FIGURE_REDRAWS):
            # A redraw takes milliseconds: the host is probed right
            # beside it, on the same thread.
            speed.sample("hit", probes=1)
            began = time.monotonic()
            again = harness(rows=rows[name], engine=engine)
            samples.append(time.monotonic() - began)
            hits += len(again.runs)
            if [result_record(r) for r in again.runs] != \
                    [result_record(r) for r in results[name].runs]:
                outcome.wrong.append(f"{name}: cached redraw differs")
        redraws[name] = statistics.median(samples)
    outcome.window = (start, time.monotonic())

    requested = sum(len(r.runs) for r in results.values())
    outcome.attempted = sum(FIGURE_POINTS.values()) + hits
    if engine.simulated_points + engine.cache_hits != requested + hits:
        outcome.wrong.append("engine point accounting does not add up")
    if not tiny and len(results) == len(HARNESSES) \
            and (engine.simulated_points, requested) != (40, 46):
        outcome.wrong.append(
            f"expected 40 simulated of 46 requested points, got "
            f"{engine.simulated_points} of {requested}"
        )

    records = []
    for name, result in results.items():
        data = datagen.generate_table(LINEITEM_Q6_SCHEMA, rows[name], 1994)
        for run in result.runs:
            point = Point(run.arch, run.scan, q6_select_plan(), data)
            check_point(point, run, outcome)
            records.append(result_record(run))
            if point.label not in outcome.results:
                outcome.results[point.label] = run
                outcome.points.append(point)
    outcome.digest = output_digest(records)
    if len(results) == len(HARNESSES):
        outcome.notes["paper_err"] = paper_err(
            {name: r.headline for name, r in results.items()})

    # Every point is due when the regeneration starts and done when the
    # harness call that draws its figure returns (redraws not counted);
    # the points of a failed call count as beyond every percentile.
    latencies = []
    elapsed = 0.0
    for name, _ in HARNESSES:
        elapsed += walls[name]
        done = elapsed if name in results else math.inf
        latencies.extend([done] * FIGURE_POINTS[name])
    busy = sum(walls[name] for name in results)
    total_rows = sum(r.rows for res in results.values() for r in res.runs)
    outcome.work_s = busy
    outcome.metrics.update(
        rows_per_s=total_rows / busy if busy else 0.0,
        latency_p50_s=percentile(latencies, 0.5),
        # one regeneration of all four figures from the cache
        hit_latency_p50_s=(sum(redraws.values())
                           if len(redraws) == len(HARNESSES) else math.inf),
    )
    outcome.notes.update(n=len(latencies),
                         hit_n=FIGURE_REDRAWS * len(redraws),
                         latency_p90_s=percentile(latencies, 0.9),
                         occupancy=occupancy(cpu, jobs, busy))
    return outcome


# -- service set-up -----------------------------------------------------------

def warm_service(service: SimulationService, warmups: List[Point],
                 seed: int) -> None:
    """Spawn every worker and publish each dataset before measuring.

    The warm-up points run concurrently (one per worker) and are chosen
    outside the measured mix, so none of them is a later cache hit.
    """
    try:
        tickets = [
            service.submit(p.arch, p.scan, p.rows, seed=seed, data=p.data,
                           plan=p.plan)
            for p in warmups
        ]
        for record in service.wait(tickets, timeout=120):
            if record.state is not JobState.DONE:
                raise RuntimeError(f"warm-up failed: {record.error}")
    except BaseException:
        finish_service(service)
        raise


# -- scale-2m ------------------------------------------------------------------

SCALE_ROWS = 2_097_152
SCALE_SCAN = ScanConfig("dsm", "column", 256, unroll=1)
#: cache-served re-requests of each batch point after the batch
SCALE_HIT_ROUNDS = 3


def scale_points(data) -> List[Point]:
    """The batch, longest first: HIVE Q6, HIPE sel-0.4, HMC Q6.

    On two workers HIVE Q6 runs alone while the other two follow each
    other, and the two sides take about as long.
    """
    q6 = q6_select_plan()
    return [
        Point("hive", SCALE_SCAN, q6, data),
        Point("hipe", SCALE_SCAN, selectivity_scan_plan(0.4), data),
        Point("hmc", SCALE_SCAN, q6, data),
    ]


def scale_2m(seed: int, seconds: float, work: Workdir, tiny: bool = False,
             jobs: Optional[int] = None, setups: int = SETUP_REPEATS,
             speed: Optional[HostSpeed] = None,
             service_options: Optional[Dict[str, Any]] = None) -> Outcome:
    """Three 2 M-row points over one shared seeded table, via the service."""
    jobs = jobs or nproc()
    speed = speed or HostSpeed()
    rows = 4_096 if tiny else SCALE_ROWS
    outcome = Outcome()
    # A re-submit is mostly the service re-hashing the 2 M-row table in
    # C, which does not follow the pure-Python probe: over ten seeds its
    # raw spread was 0.06, and 0.15 once calibrated.
    outcome.speed_tags["hit_latency_p50_s"] = None
    warm_scan = ScanConfig("dsm", "column", 256, unroll=16)

    def setup():
        data = datagen.generate_table(LINEITEM_Q6_SCHEMA, rows, seed)
        warm = datagen.generate_table(LINEITEM_Q6_SCHEMA, 512, seed)
        service = SimulationService(jobs=jobs, cache_dir=work.fresh("service"),
                                    **(service_options or {}))
        warm_service(service, [
            Point(arch, warm_scan, q6_select_plan(), warm)
            for arch in ("hmc", "hipe")[:jobs]
        ], seed)
        return data, service

    data, service = timed_setups(
        setup, lambda state: finish_service(state[1]), outcome, speed, setups)
    points = scale_points(data)
    try:
        cpu = children_cpu()
        start = time.monotonic()
        with speed.pausing("phase"):
            tickets = [
                service.submit(p.arch, p.scan, p.rows, seed=seed,
                               data=p.data, plan=p.plan)
                for p in points
            ]
            try:
                service.wait(tickets, timeout=120)
            except TimeoutError:
                pass  # the stragglers are counted as failed below
        records = {t.id: service.status(t) for t in tickets}
        end = time.monotonic()
        outcome.window = (start, end)
        hit_latencies = []
        hit_records = []
        for _ in range(SCALE_HIT_ROUNDS):
            for p in points:
                due = time.monotonic()
                ticket = service.submit(p.arch, p.scan, p.rows, seed=seed,
                                        data=p.data, plan=p.plan)
                record = service.status(ticket)
                if record.state is not JobState.DONE or not record.cached:
                    outcome.failures.append(f"{p.label}: repeat not cached")
                    continue
                hit_latencies.append(record.finished_at - due)
                hit_records.append((p, record))
    finally:
        finish_service(service)

    outcome.attempted = len(points) * (1 + SCALE_HIT_ROUNDS)
    latencies = []
    digest_records = []
    batch = [records[t.id] for t in tickets]
    outcome.records = batch
    for p, record in zip(points, batch):
        if record.state is not JobState.DONE:
            outcome.failures.append(
                f"{p.label}: {record.state.value} ({record.error})")
            latencies.append(math.inf)
            continue
        latencies.append(record.finished_at - start
                         - speed.paused(start, record.finished_at))
        check_point(p, record.result, outcome)
        outcome.results[p.label] = record.result
        digest_records.append(result_record(record.result))
    for p, record in hit_records:
        original = outcome.results.get(p.label)
        if original is None or record.result != original:
            outcome.wrong.append(f"{p.label}: cached repeat differs")
    outcome.digest = output_digest(digest_records)
    outcome.points = points
    last = max(r.finished_at if r.state is JobState.DONE else end
               for r in batch)
    busy = last - start - speed.paused(start, last)
    outcome.work_s = busy
    outcome.metrics.update(
        rows_per_s=len(points) * rows / busy,
        latency_p50_s=percentile(latencies, 0.5),
        hit_latency_p50_s=statistics.median(hit_latencies)
        if hit_latencies else math.inf,
    )
    outcome.notes.update(n=len(latencies), hit_n=len(hit_latencies),
                         latency_p90_s=percentile(latencies, 0.9),
                         occupancy=occupancy(cpu, jobs, busy))
    return outcome


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "figures": figures,
    "scale-2m": scale_2m,
}
