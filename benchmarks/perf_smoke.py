"""Simulator throughput smoke: uops/sec per (arch, mode) point.

Records the perf trajectory the ROADMAP asked for: every point is
simulated **cold** (no result cache) and measured in simulated-uops per
wall-second, then compared against the committed ``BENCH_PR7.json``
baseline.  A >30 % throughput regression fails the gate.

The payload also carries **replay canaries**: reduced-interleave-cube
points on which the steady-state replay layer must *engage* — HIVE Q6
and HIPE selectivity must converge and skip iterations.  A change that
silently de-periodises the paper workloads — greedy tie-breaking
creeping back into a scheduler, a signature component drifting — flips
a canary to ``engaged: false`` and fails the gate outright, independent
of throughput.

Raw uops/sec varies with the host, so both the baseline and the current
run include a *calibration score* — a fixed pure-Python workload timed
on the same machine — and the gate compares calibration-normalised
throughput.  Regenerate the baseline on an idle machine with::

    REPRO_BENCH_WRITE=1 python benchmarks/perf_smoke.py
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR7.json"
ROWS = 32_768
#: allowed normalised-throughput regression before the gate fails
REGRESSION_TOLERANCE = 0.30

#: the measured grid: the fig3b-style column points of every
#: architecture plus one tuple-at-a-time point (the slowest shape)
POINTS = [
    ("x86", "dsm", "column", 16, 1),
    ("x86", "dsm", "column", 64, 1),
    ("hmc", "dsm", "column", 256, 1),
    ("hive", "dsm", "column", 256, 1),
    ("hipe", "dsm", "column", 256, 1),
    ("x86", "nsm", "tuple", 64, 1),
]

#: replay-engagement canaries: (label, arch, op_bytes, rows, plan_kind).
#: HIVE runs the paper's Q6; HIPE runs the single-predicate selectivity
#: scan (its Q6 predicated-load squashes are data-aperiodic, so the
#: guard *must* keep Q6 exact — engagement is asserted where the
#: predicate stream is uniform, as designed).
CANARIES = [
    ("canary-hive-q6", "hive", 256, 262_144, "q6"),
    ("canary-hipe-selectivity", "hipe", 256, 262_144, "selectivity"),
]


def calibration_score() -> float:
    """Host speed proxy: fixed dict/arithmetic workload, ops per second."""
    best = 0.0
    for _ in range(3):
        counters = {}
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            key = i & 1023
            counters[key] = counters.get(key, 0) + 1
            total += key
        elapsed = time.perf_counter() - start
        best = max(best, 300_000 / elapsed)
    return best


def point_label(arch, layout, strategy, op, unroll) -> str:
    return f"{arch}-{layout}-{strategy}-{op}B@{unroll}"


def measure_points(rows: int = ROWS):
    """Simulate every grid point cold; returns the measurement payload."""
    from repro.codegen.base import ScanConfig
    from repro.sim.runner import run_scan

    points = {}
    for arch, layout, strategy, op, unroll in POINTS:
        scan = ScanConfig(layout, strategy, op, unroll)
        start = time.perf_counter()
        result = run_scan(arch, scan, rows=rows)
        elapsed = time.perf_counter() - start
        points[point_label(arch, layout, strategy, op, unroll)] = {
            "uops": result.uops,
            "cycles": result.cycles,
            "seconds": round(elapsed, 4),
            "uops_per_sec": round(result.uops / elapsed, 1),
        }
    return points


def measure_canaries():
    """Reduced-cube replay points; must converge (engaged=True)."""
    from repro.codegen.base import ScanConfig
    from repro.common.config import reduced_cube_config
    from repro.db.workloads import selectivity_scan_plan
    from repro.sim.runner import run_scan

    canaries = {}
    for label, arch, op, rows, plan_kind in CANARIES:
        plan = selectivity_scan_plan(0.4) if plan_kind == "selectivity" else None
        start = time.perf_counter()
        result = run_scan(arch, ScanConfig("dsm", "column", op, 1), rows=rows,
                          plan=plan, config=reduced_cube_config(arch))
        elapsed = time.perf_counter() - start
        replay = result.replay
        canaries[label] = {
            "engaged": bool(replay is not None and replay.runs_converged > 0
                            and replay.skipped_iterations > 0),
            "skipped_iterations": 0 if replay is None else replay.skipped_iterations,
            "simulated_iterations": 0 if replay is None else replay.simulated_iterations,
            "seconds": round(elapsed, 4),
        }
    return canaries


def run_benchmark():
    calibration = calibration_score()
    points = measure_points()
    canaries = measure_canaries()
    return {
        "schema": 3,
        "rows": ROWS,
        "calibration": round(calibration, 1),
        "points": points,
        "canaries": canaries,
    }


def write_baseline(payload) -> None:
    with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def check_against_baseline(payload, baseline):
    """Return a list of (label, normalised current, normalised floor)."""
    failures = []
    base_cal = baseline["calibration"]
    cur_cal = payload["calibration"]
    for label, base in baseline["points"].items():
        current = payload["points"].get(label)
        if current is None:
            failures.append((label, 0.0, 0.0))
            continue
        base_norm = base["uops_per_sec"] / base_cal
        cur_norm = current["uops_per_sec"] / cur_cal
        floor = base_norm * (1.0 - REGRESSION_TOLERANCE)
        if cur_norm < floor:
            failures.append((label, cur_norm, floor))
    return failures


def test_perf_smoke():
    """Cold-run the grid; fail on a >30 % normalised-throughput drop or
    a replay canary refusing to engage (silent de-periodisation)."""
    payload = run_benchmark()
    print()
    print(f"calibration {payload['calibration']:.0f} ops/s")
    for label, point in payload["points"].items():
        print(f"  {label:28s} {point['uops']:>9,} uops "
              f"{point['seconds']:>8.2f}s {point['uops_per_sec']:>12,.0f} uops/s")
    for label, canary in payload["canaries"].items():
        print(f"  {label:28s} engaged={canary['engaged']} "
              f"skipped={canary['skipped_iterations']:,} "
              f"simulated={canary['simulated_iterations']:,}")
    refusals = [label for label, canary in payload["canaries"].items()
                if not canary["engaged"]]
    assert not refusals, (
        "steady-state replay refused to engage on: " + ", ".join(refusals)
        + " — a scheduler or signature change de-periodised the workloads"
    )
    if not BASELINE_PATH.exists():  # first run: nothing to gate against
        write_baseline(payload)
        return
    with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    failures = check_against_baseline(payload, baseline)
    assert not failures, (
        "simulated-uops/sec regressed >30% vs BENCH_PR7.json on: "
        + ", ".join(f"{label} ({cur:.4f} < {floor:.4f})"
                    for label, cur, floor in failures)
    )


if __name__ == "__main__":
    payload = run_benchmark()
    print(json.dumps(payload, indent=2, sort_keys=True))
    if os.environ.get("REPRO_BENCH_WRITE") == "1":
        write_baseline(payload)
        print(f"baseline written to {BASELINE_PATH}", file=sys.stderr)
