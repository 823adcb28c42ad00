"""Tests for the parallel, cached experiment engine (repro.sim.engine)."""

import dataclasses
import gc
import json
import os
import time

import pytest

from repro.codegen.base import ScanConfig
from repro.sim.engine import (
    ExperimentEngine,
    ResultCache,
    cache_directories,
    code_digest,
    data_digest,
    machine_digest,
    point_key,
)
from repro.sim.runner import run_scan
from repro.db.datagen import generate_lineitem
from repro.db.query6 import q6_select_plan
from repro.db.workloads import q1_style_plan, selectivity_scan_plan

ROWS = 256
POINTS = [
    ("x86", ScanConfig("dsm", "column", 64)),
    ("hmc", ScanConfig("dsm", "column", 256)),
    ("hive", ScanConfig("dsm", "column", 256, unroll=8)),
    ("hipe", ScanConfig("dsm", "column", 256, unroll=8)),
]


def make_engine(tmp_path, **kwargs):
    kwargs.setdefault("cache_dir", tmp_path / "cache")
    return ExperimentEngine(**kwargs)


class TestParallelEqualsSerial:
    def test_results_identical_across_job_counts(self, tmp_path):
        serial = make_engine(tmp_path, jobs=1, use_cache=False)
        a = serial.sweep("serial", POINTS, ROWS)
        with make_engine(tmp_path, jobs=3, use_cache=False) as parallel:
            b = parallel.sweep("parallel", POINTS, ROWS)
            # the misses ran on the engine's own service
            assert parallel.service.simulated_points == len(POINTS)
        assert a.runs == b.runs  # full RunResult equality, field by field
        assert [r.cycles for r in a.runs] == [r.cycles for r in b.runs]
        assert [r.uops for r in a.runs] == [r.uops for r in b.runs]
        assert [r.energy.to_dict() for r in a.runs] == [
            r.energy.to_dict() for r in b.runs
        ]
        assert [r.verified for r in a.runs] == [r.verified for r in b.runs]

    def test_jobs_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")
        assert ExperimentEngine(use_cache=False).jobs == 1
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert ExperimentEngine(use_cache=False).jobs == 7

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            ExperimentEngine(jobs=0, use_cache=False)


class TestCaching:
    def test_second_sweep_hits_cache_without_resimulating(self, tmp_path):
        engine = make_engine(tmp_path, jobs=1)
        first = engine.sweep("one", POINTS, ROWS)
        assert engine.simulated_points == len(POINTS)
        assert engine.cache_misses == len(POINTS)

        second = engine.sweep("two", POINTS, ROWS)
        assert engine.simulated_points == len(POINTS)  # nothing re-simulated
        assert engine.cache_hits == len(POINTS)
        assert [r.cycles for r in first.runs] == [r.cycles for r in second.runs]
        assert [r.stats for r in first.runs] == [r.stats for r in second.runs]

    def test_cache_shared_between_engines(self, tmp_path):
        one = make_engine(tmp_path, jobs=1)
        one.sweep("warm", POINTS[:2], ROWS)
        two = make_engine(tmp_path, jobs=1)
        two.sweep("reuse", POINTS[:2], ROWS)
        assert two.cache_hits == 2
        assert two.simulated_points == 0

    def test_overlapping_sweeps_share_points(self, tmp_path):
        engine = make_engine(tmp_path, jobs=1)
        engine.sweep("first", POINTS[:3], ROWS)
        engine.sweep("second", POINTS[1:], ROWS)  # overlaps on 2 points
        assert engine.cache_hits == 2
        assert engine.simulated_points == len(POINTS)

    def test_disabled_cache_always_simulates(self, tmp_path):
        engine = make_engine(tmp_path, jobs=1, use_cache=False)
        engine.sweep("a", POINTS[:1], ROWS)
        engine.sweep("b", POINTS[:1], ROWS)
        assert engine.simulated_points == 2
        assert engine.cache_hits == 0

    def test_run_point_single(self, tmp_path):
        engine = make_engine(tmp_path, jobs=1)
        run = engine.run_point("hive", ScanConfig("dsm", "column", 256), ROWS)
        assert run.arch == "hive"
        again = engine.run_point("hive", ScanConfig("dsm", "column", 256), ROWS)
        assert again.cycles == run.cycles
        assert engine.cache_hits == 1

    def test_clear_cache(self, tmp_path):
        engine = make_engine(tmp_path, jobs=1)
        engine.sweep("warm", POINTS[:2], ROWS)
        assert engine.clear_cache() == 2
        engine.sweep("cold", POINTS[:2], ROWS)
        assert engine.simulated_points == 4


class TestCacheKey:
    BASE = dict(rows=ROWS, seed=1994, scale=80, dataset="d0")

    def key(self, arch="hive", scan=None, **overrides):
        args = dict(self.BASE)
        args.update(overrides)
        scan = scan or ScanConfig("dsm", "column", 256)
        return point_key(arch, scan, **args)

    def test_key_stable(self):
        assert self.key() == self.key()

    def test_key_changes_with_every_field(self):
        base = self.key()
        assert self.key(arch="hipe") != base
        assert self.key(scan=ScanConfig("dsm", "column", 128)) != base
        assert self.key(scan=ScanConfig("dsm", "column", 256, unroll=2)) != base
        assert self.key(scan=ScanConfig("nsm", "tuple", 256)) != base
        assert self.key(rows=ROWS * 2) != base
        assert self.key(seed=7) != base
        assert self.key(scale=1) != base
        assert self.key(dataset="d1") != base
        assert self.key(machine="m1") != self.key(machine="m2")

    def test_machine_digest_tracks_the_timing_model(self):
        # Different architectures and scales resolve to different
        # machine configs, so their cached points can never collide;
        # the digest is what invalidates caches on timing-model edits.
        assert machine_digest("hmc", 80) != machine_digest("hive", 80)
        assert machine_digest("x86", 80) != machine_digest("x86", 1)
        assert machine_digest("hipe", 80) == machine_digest("hipe", 80)

    def test_data_digest_tracks_contents(self):
        a = data_digest(generate_lineitem(128, seed=1))
        b = data_digest(generate_lineitem(128, seed=2))
        c = data_digest(generate_lineitem(256, seed=1))
        assert len({a, b, c}) == 3
        assert data_digest(generate_lineitem(128, seed=1)) == a

    def test_plan_and_code_fields_change_the_key(self):
        base = self.key()
        assert self.key(plan="p1") != base
        assert self.key(plan="p1") != self.key(plan="p2")
        assert self.key(code="c1") != base
        assert self.key(code="c1") != self.key(code="c2")

    def test_code_digest_stable_per_process(self):
        assert code_digest() == code_digest()
        assert len(code_digest()) == 16


class TestPlanKeys:
    def test_default_plan_shares_keys_with_plain_sweeps(self, tmp_path):
        # Q6 through the plan IR must hit the cache entries the plan-less
        # sweep wrote — warm-cache reuse across the refactor.
        engine = make_engine(tmp_path, jobs=1)
        plain = engine.sweep("plain", POINTS[:1], ROWS)
        via_plan = engine.sweep("plan", POINTS[:1], ROWS, plan=q6_select_plan())
        assert engine.cache_hits == 1
        assert plain.runs[0].cycles == via_plan.runs[0].cycles

    def test_distinct_plans_get_distinct_entries(self, tmp_path):
        engine = make_engine(tmp_path, jobs=1)
        engine.sweep("q1", POINTS[2:3], ROWS, plan=q1_style_plan())
        engine.sweep("s25", POINTS[2:3], ROWS, plan=selectivity_scan_plan(0.25))
        engine.sweep("s50", POINTS[2:3], ROWS, plan=selectivity_scan_plan(0.50))
        assert engine.simulated_points == 3
        again = engine.sweep("q1-again", POINTS[2:3], ROWS, plan=q1_style_plan())
        assert engine.simulated_points == 3  # warm
        assert again.runs[0].aggregates is not None

    def test_plan_results_roundtrip_through_cache(self, tmp_path):
        engine = make_engine(tmp_path, jobs=1)
        first = engine.sweep("q1", POINTS[3:], ROWS, plan=q1_style_plan())
        fresh = make_engine(tmp_path, jobs=1)
        second = fresh.sweep("q1", POINTS[3:], ROWS, plan=q1_style_plan())
        assert fresh.cache_hits == 1
        assert second.runs[0].aggregates == first.runs[0].aggregates
        assert second.runs[0].verified is True


class TestEviction:
    def _fill(self, tmp_path, entries=4):
        engine = make_engine(tmp_path, jobs=1)
        for index in range(entries):
            engine.sweep(f"warm{index}", POINTS[:1], 64 + index * 64)
        return engine

    def test_evict_to_drops_oldest_first(self, tmp_path):
        self._fill(tmp_path)
        cache = ResultCache(tmp_path / "cache")
        paths = sorted(cache.directory.glob("*.json"), key=lambda p: p.stat().st_mtime)
        # Age the first entry well into the past.
        os.utime(paths[0], (time.time() - 1000, time.time() - 1000))
        total = sum(p.stat().st_size for p in cache.directory.glob("*.json"))
        removed = cache.evict_to(total - 1)  # force out exactly one
        assert removed >= 1
        assert not paths[0].exists()  # the LRU entry went first

    def test_evict_to_noop_under_limit(self, tmp_path):
        self._fill(tmp_path, entries=2)
        cache = ResultCache(tmp_path / "cache")
        assert cache.evict_to(10 * 1024 * 1024) == 0
        assert len(list(cache.directory.glob("*.json"))) == 2

    def test_engine_cap_via_argument(self, tmp_path):
        # A tiny cap forces evictions as sweeps store fresh results.
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path / "cache",
                                  cache_max_mb=0.002)  # ~2 KB
        for index in range(3):
            engine.sweep(f"s{index}", POINTS[:1], 64 + index * 64)
        assert engine.cache_evictions > 0
        total = sum(
            p.stat().st_size for p in (tmp_path / "cache").glob("*.json")
        )
        assert total <= 0.002 * 1024 * 1024 * 1.5  # near the cap

    def test_engine_cap_via_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0.002")
        engine = make_engine(tmp_path, jobs=1)
        assert engine.cache_max_bytes == int(0.002 * 1024 * 1024)
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "not-a-number")
        with pytest.raises(ValueError):
            make_engine(tmp_path / "b", jobs=1)

    def test_loads_refresh_recency(self, tmp_path):
        engine = make_engine(tmp_path, jobs=1)
        engine.sweep("a", POINTS[:1], 64)
        engine.sweep("b", POINTS[:1], 128)
        cache = ResultCache(tmp_path / "cache")
        paths = sorted(cache.directory.glob("*.json"), key=lambda p: p.stat().st_mtime)
        stale = time.time() - 1000
        for path in paths:
            os.utime(path, (stale, stale))
        engine.sweep("a-again", POINTS[:1], 64)  # cache hit refreshes mtime
        refreshed = [p for p in cache.directory.glob("*.json")
                     if p.stat().st_mtime > stale + 1]
        assert len(refreshed) == 1


class TestCorruption:
    def test_corrupted_entries_are_ignored_and_repaired(self, tmp_path):
        engine = make_engine(tmp_path, jobs=1)
        first = engine.sweep("warm", POINTS[:1], ROWS)
        entries = list((tmp_path / "cache").glob("*.json"))
        assert len(entries) == 1
        entries[0].write_text("{ this is not json")

        again = engine.sweep("repair", POINTS[:1], ROWS)
        assert again.runs[0].cycles == first.runs[0].cycles
        assert engine.simulated_points == 2  # re-simulated, no crash
        # and the entry was rewritten with a valid payload
        assert json.loads(entries[0].read_text())["result"]["arch"] == "x86"

    def test_wrong_schema_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        path = cache.path_for("k")
        path.write_text(json.dumps({"schema": 999, "result": {}}))
        assert cache.load("k") is None

    def test_truncated_payload_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        path = cache.path_for("k")
        path.write_text(json.dumps({"schema": 1, "result": {"arch": "x86"}}))
        assert cache.load("k") is None

    def test_missing_file_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        assert cache.load("never-stored") is None


class TestExperimentsIntegration:
    def test_figure_harness_uses_injected_engine(self, tmp_path):
        from repro.experiments.fig3d import run_fig3d

        engine = make_engine(tmp_path, jobs=1)
        outcome = run_fig3d(rows=ROWS, engine=engine)
        assert engine.simulated_points == len(outcome.runs) == 4
        again = run_fig3d(rows=ROWS, engine=engine)
        assert engine.simulated_points == 4  # all cached
        assert again.headline == outcome.headline

    def test_common_sweep_routes_through_engine(self, tmp_path):
        from repro.experiments.common import sweep

        engine = make_engine(tmp_path, jobs=1)
        outcome = sweep("routed", POINTS[:2], ROWS, engine=engine)
        assert len(outcome.runs) == 2
        assert engine.simulated_points == 2


class TestCodeDigestCoverage:
    """The result-cache code digest must cover the kernel rewrite stack."""

    def test_kernel_stack_is_inside_the_digest(self):
        from repro.sim.engine import timing_model_files

        names = {"/".join(path.parts[-2:]) for path in timing_model_files()}
        for required in ("common/resources.py", "cpu/core.py",
                         "cpu/kernel.py", "sim/replay.py", "sim/machine.py"):
            assert required in names, (
                f"{required} missing from the timing-model digest: cached "
                "points from before a rewrite there could be served stale"
            )


class TestStoreRobustness:
    """store() degrades to "uncached" instead of raising or leaking temps."""

    def test_unserialisable_result_leaves_no_trace(self, tmp_path):
        engine = make_engine(tmp_path, jobs=1)
        result = engine.run_point(*POINTS[2], rows=ROWS)
        poisoned = dataclasses.replace(result, stats={"bad": object()})
        key = "f" * 64
        engine.cache.store(key, poisoned)  # must not raise
        assert engine.cache.load(key) is None
        assert list(engine.cache.directory.glob("*.tmp.*")) == []

    def test_clear_sweeps_stale_writer_temps(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        orphan = cache.directory / ("a" * 64 + ".tmp.12345")
        orphan.write_text("half-written entry")
        assert cache.clear() == 0  # temps are not entries
        assert not orphan.exists()

    def test_evict_reclaims_aged_temps_even_under_budget(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        live = cache.directory / ("b" * 64 + ".tmp.1")
        orphan = cache.directory / ("c" * 64 + ".tmp.2")
        live.write_text("a concurrent writer's temp")
        orphan.write_text("a crashed writer's temp")
        aged = time.time() - 1_000
        os.utime(orphan, (aged, aged))
        assert cache.evict_to(10**9) == 0  # no entries to evict
        assert live.exists()  # younger than the 60s stale threshold
        assert not orphan.exists()


class TestWorkerFailureContext:
    """A failed point names itself: arch, op bytes, rows, chained cause."""

    def test_serial_failure_carries_point_context(self):
        from repro.sim.engine import PointExecutionError

        engine = ExperimentEngine(jobs=1, use_cache=False)
        with pytest.raises(PointExecutionError) as excinfo:
            engine.sweep("bad", [("bogus", POINTS[0][1])], ROWS)
        error = excinfo.value
        assert error.arch == "bogus"
        assert error.op_bytes == POINTS[0][1].op_bytes
        assert error.rows == ROWS
        assert "arch=bogus" in str(error)
        assert isinstance(error.__cause__, ValueError)

    def test_pool_failure_carries_point_context(self, tmp_path):
        from repro.sim.engine import PointExecutionError

        # two misses on jobs=2: they run on the engine's service
        with make_engine(tmp_path, jobs=2, use_cache=False) as engine:
            with pytest.raises(PointExecutionError) as excinfo:
                engine.sweep("bad", [POINTS[2], ("bogus", POINTS[0][1])], ROWS)
            assert engine.service is not None
        assert excinfo.value.arch == "bogus"
        assert excinfo.value.rows == ROWS
        assert "op_bytes=64" in str(excinfo.value)
        assert "unknown architecture" in str(excinfo.value)


class TestCacheFront:
    """The engine is the only cache front; its service has no cache."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_disabled_cache_is_never_consulted(self, tmp_path, monkeypatch,
                                               jobs):
        # Checksum-valid entries with wrong cycles at the real keys of
        # two points, in the directory every cache defaults to.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "planted"))
        data = generate_lineitem(ROWS, 1994)
        planted = ResultCache(tmp_path / "planted")
        truth = []
        for arch, scan in POINTS[:2]:
            run = run_scan(arch, scan, rows=ROWS, data=data)
            truth.append(run.cycles)
            key = point_key(arch, scan, ROWS, 1994, 80,
                            dataset=data_digest(data),
                            machine=machine_digest(arch, 80),
                            code=code_digest())
            planted.store(key, dataclasses.replace(run, cycles=run.cycles + 1))
            assert planted.load(key).cycles == run.cycles + 1

        engine = ExperimentEngine(jobs=jobs, use_cache=False)
        outcome = engine.sweep("bypass", POINTS[:2], ROWS)
        assert [r.cycles for r in outcome.runs] == truth
        assert engine.simulated_points == 2
        assert engine.cache_hits == 0

    def test_empty_directory_knobs_mean_unset(self, tmp_path, monkeypatch):
        # Empty means unset: a cache in the working directory would have
        # clear_cache() unlink every *.json there.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "keep.json").write_text("{}")
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", "")
        engine = ExperimentEngine(jobs=1, use_cache=True)
        engine.sweep("one", POINTS[:1], ROWS)
        assert len(list((tmp_path / ".repro_cache").glob("*.json"))) == 1
        assert cache_directories()[1] == os.path.join(".repro_cache",
                                                      "checkpoints")
        assert engine.clear_cache() == 1
        assert (tmp_path / "keep.json").exists()


class TestLifecycle:
    def test_no_worker_outlives_its_engine(self, tmp_path):
        from repro.experiments import common

        def workers_of(engine):
            engine.sweep("two", POINTS[:2], ROWS)
            return [worker.process for worker in engine.service._workers]

        with make_engine(tmp_path, jobs=2, use_cache=False) as engine:
            workers = workers_of(engine)
            segments = [image._shm.name
                        for image in engine.service._images.values()]
        assert workers and segments and engine.service is None
        for name in segments:
            assert not os.path.exists(os.path.join("/dev/shm", name))
        dropped = make_engine(tmp_path, jobs=2, use_cache=False)
        workers += workers_of(dropped)
        del dropped  # never closed: its finalizer stops the service
        gc.collect()
        replaced = make_engine(tmp_path, jobs=2, use_cache=False)
        workers += workers_of(replaced)
        common.set_default_engine(replaced)
        common.set_default_engine(None)
        assert not any(process.is_alive() for process in workers)
