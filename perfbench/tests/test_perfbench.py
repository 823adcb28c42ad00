"""Self-tests of the benchmark, on tiny inputs.

Run from the repository root (they are not part of the tier-1 suite)::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402  (puts the program's src/ on the path)

import repro.sim.engine  # noqa: E402
import repro.sim.runner  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == ["figures", "scale-2m"]
    assert set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_pass_emits_every_metric_with_its_unit(workload, trace):
    outcome = run.run(workload, seed=3, seconds=4, trace=trace, tiny=True)
    result = outcome["result"]
    assert result["correct"], outcome["lines"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    values = [m["value"] for m in result["metrics"].values()]
    assert all(math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    assert any(line.startswith(f"digest {workload} ")
               for line in outcome["lines"])


def test_paper_err_matches_hand_computed_fixture():
    # Every headline 10 % (in log terms) off the paper, one of them
    # e^-1.4 below it: mean |ln| = (12 * 0.1 + 1.4) / 13 = 0.2.
    headlines = {
        figure: {name: paper * math.exp(0.1) for name, paper in values.items()}
        for figure, values in workloads.PAPER_HEADLINES.items()
    }
    headlines["fig3a"]["hmc16_vs_x86_16"] = 1.97 * math.exp(-1.4)
    assert workloads.paper_err(headlines) == pytest.approx(
        math.exp(0.2) - 1.0, rel=1e-12)
    exact = {figure: dict(values)
             for figure, values in workloads.PAPER_HEADLINES.items()}
    assert workloads.paper_err(exact) == 0.0


def test_percentile():
    assert workloads.percentile([4, 1, 3, 2], 0.5) == 2
    assert workloads.percentile([4, 1, 3, 2], 0.9) == 4
    assert workloads.percentile([1, math.inf, 2], 0.9) == math.inf


def test_host_factor_is_the_median_sample_of_its_tag():
    speed = workloads.HostSpeed()
    ref = workloads.REFERENCE_PROBE_S
    speed.samples = {"phase": [ref, 3 * ref, 2 * ref], "hit": [0.5 * ref]}
    assert speed.factor("phase") == pytest.approx(2.0)
    assert speed.factor("hit") == pytest.approx(0.5)
    speed.sample("setup", probes=3)
    assert len(speed.samples["setup"]) == 1
    assert speed.factor("setup") > 0


def test_a_run_leaves_no_process_behind():
    """Service workers and the shared-memory resource tracker included."""
    outcome = run.run("scale-2m", seed=3, seconds=4, trace=False, tiny=True)
    assert outcome["result"]["correct"], outcome["lines"]
    assert workloads.child_pids() == []


def _stalled_batch(tmp_path, monkeypatch, faults):
    if faults:
        monkeypatch.setenv("REPRO_FAULTS", faults)
    else:
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
    work = workloads.Workdir()
    work.root = tmp_path / ("stalled" if faults else "clean")
    outcome = workloads.scale_2m(
        seed=5, seconds=4, work=work, tiny=True, jobs=1, setups=1,
        service_options={"timeout": 1.5})
    assert not outcome.failures and not outcome.wrong
    start = outcome.window[0]
    return {p.label: r.finished_at - start
            for p, r in zip(outcome.points, outcome.records)}


def test_injected_worker_stall_shows_in_later_latencies(tmp_path, monkeypatch):
    """A hung first attempt delays the requests queued behind it.

    Only the HIVE job hangs (the warm-up point is HMC); the watchdog
    kills the silent worker after 1.5 s and the retry runs clean.
    Latency is timed from each request's due time, the batch start, so
    the stall must show up in the *other* requests, which wait behind
    it on the one worker.
    """
    clean = _stalled_batch(tmp_path, monkeypatch, None)
    stalled = _stalled_batch(tmp_path, monkeypatch,
                             "hang@start,attempt=1,arch=hive")
    others = [label for label in stalled if not label.startswith("hive-")]
    assert others
    assert all(stalled[label] > clean[label] + 0.75 for label in others)


@pytest.mark.parametrize("workload", ["figures", "scale-2m"])
def test_an_unverified_result_fails_the_run(workload, monkeypatch, capsys):
    """A result that fails the simulator's own check exits 1, correct=false.

    ``run_scan`` is stubbed where the pool and service workers look it
    up (they fork from this process, so they inherit the stub).
    """
    original = repro.sim.runner.run_scan

    def unverified(*args, **kwargs):
        return dataclasses.replace(original(*args, **kwargs), verified=False)

    monkeypatch.setattr(repro.sim.runner, "run_scan", unverified)
    monkeypatch.setattr(repro.sim.engine, "run_scan", unverified)
    code = run.report(run.run(workload, seed=3, seconds=4, trace=False,
                              tiny=True))
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert any(line.startswith("wrong: ") and "functional verification" in line
               for line in lines)


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: no result, exit != 0."""
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures",
         "--seed", "1", "--seconds", "4", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
