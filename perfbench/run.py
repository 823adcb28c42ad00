"""End-to-end benchmark of the HIPE simulator: one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the workload and prints every end-to-end metric;
``--trace 1`` runs the same workload and seed twice, untraced and then
with the layer trace installed, and prints every per-layer metric.  The
last line of standard output is one JSON object::

    {"correct": true, "attempted": 184, "failed": 0,
     "metrics": {"rows_per_s": {"value": 63418.2, "unit": "1/s"}, ...}}

The exit code is 0 when every output check held, 1 otherwise.
README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
from pathlib import Path
from typing import Any, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

# imports the program: fails, printing nothing, in a checkout without src/
from workloads import (  # noqa: E402
    SETUP_REPEATS, WORKLOADS, HostSpeed, Workdir, nproc, peak_rss_mb,
    stop_children)

#: the default seed, and the seed held out for checking later claims
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001

END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "1/s",
    "latency_p50_s": "s",
    "hit_latency_p50_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "db.datagen_s": "s",
    "db.digest_s": "s",
    "codegen.s": "s",
    "codegen.iterations": "count",
    "sim.build_s": "s",
    "sim.verify_s": "s",
    "energy.s": "s",
    "sim.run_s": "s",
    "cpu.compile_s": "s",
    "cpu.kernels_compiled": "count",
    "cpu.kernel_shared_share": "fraction",
    "replay.skipped_share": "fraction",
    "replay.probes_failed": "count",
    "replay.fragment_sigs": "count",
    "replay.stitched_share": "fraction",
    "replay.saved_s": "s",
    "engine.cache_store_s": "s",
    "engine.cache_load_s": "s",
    "engine.cache_hit_share": "fraction",
    "engine.worker_idle_share": "fraction",
    "checkpoint.saves": "count",
    "checkpoint.save_s": "s",
    "checkpoint.mb": "MB",
    "service.submit_s": "s",
    "service.queue_wait_p50_s": "s",
    "service.queue_wait_p90_s": "s",
    "service.overhead_p50_s": "s",
    "service.retries": "count",
    "shm.publish_s": "s",
    "shm.attach_s": "s",
    **{f"model.{arch}.{name}": unit
       for arch in ("x86", "hmc", "hive", "hipe")
       for name, unit in (("cycles_per_row", "cycles/row"),
                          ("dram_bytes_per_row", "B/row"),
                          ("dram_pj_per_row", "pJ/row"))},
    "model.hipe.squashed_load_share": "fraction",
    "model.paper_err": "ratio",
    "trace.overhead_share": "ratio",
}

#: what a latency beyond every percentile (a failed request) reads as
BEYOND_EVERY_PERCENTILE = 1e9


def _finite(value: float) -> float:
    return value if math.isfinite(value) else BEYOND_EVERY_PERCENTILE


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> Dict[str, Any]:
    """Run one workload; returns the result object the last line prints."""
    measure = WORKLOADS[workload]
    work = Workdir()
    lines: List[str] = []
    try:
        if trace:  # sets up once: a traced run reports no setup_s
            outcome = measure(seed, seconds, work, tiny=tiny, setups=1,
                              speed=HostSpeed(pause=False))
            wrong = list(outcome.wrong)
            values, units = _traced(measure, seed, seconds, work,
                                    tiny, outcome, wrong)
        else:
            speed = HostSpeed()
            outcome = measure(seed, seconds, work, tiny=tiny,
                              setups=SETUP_REPEATS, speed=speed)
            wrong = list(outcome.wrong)
            tags = outcome.speed_tags
            factors = {name: speed.factor(tags[name]) if tags[name] else 1.0
                       for name in outcome.metrics}
            values = calibrated(outcome, factors)
            values["peak_rss_mb"] = peak_rss_mb()
            units = END_TO_END
            lines.append("measured " + " ".join(
                f"{name}={value:.6g}"
                for name, value in outcome.metrics.items()))
            # The workers' occupancy beside the factor shows whether the
            # factor follows the workload's own load (it should not).
            lines.append("host_factor " + " ".join(
                f"{name}={value:.4f}" for name, value in factors.items())
                + f" occupancy={outcome.notes['occupancy']:.3f}"
                + f" samples={len(speed.samples.get('phase', []))}")
    finally:
        work.cleanup()
        stop_children()

    lines.append(f"digest {workload} seed={seed} {outcome.digest}")
    if "paper_err" in outcome.notes:
        lines.append(f"paper_err {outcome.notes['paper_err']:.6f}")
    # p90 is reported, not gated: neither batch (46 and 3 requests) has
    # ten requests beyond it.
    lines.append(f"latency p50={_finite(outcome.metrics['latency_p50_s']):.6g}"
                 f" p90={_finite(outcome.notes['latency_p90_s']):.6g}"
                 f" n={outcome.notes['n']} hit_n={outcome.notes['hit_n']}")
    lines.extend(f"failed: {failure}" for failure in outcome.failures)
    lines.extend(f"wrong: {problem}" for problem in wrong)
    return {
        "lines": lines,
        "result": {
            "correct": not wrong,
            "attempted": outcome.attempted,
            "failed": len(outcome.failures),
            "metrics": {
                name: {"value": _finite(float(values[name])), "unit": unit}
                for name, unit in units.items()
            },
        },
    }


#: how strongly the simulator's speed follows the probe's: chosen on
#: five-seed tuning runs of each workload, as the exponent with the
#: smallest worst-case spread (README.md, "Host-speed calibration")
SENSITIVITY = 0.5


def calibrated(outcome, factors: Dict[str, float]) -> Dict[str, float]:
    """Each timing scaled to the reference host speed."""
    values = {}
    for name, value in outcome.metrics.items():
        scale = factors[name] ** SENSITIVITY
        values[name] = value * scale if name.endswith("_per_s") \
            else value / scale
    return values


def _traced(measure, seed, seconds, work, tiny, untraced, wrong):
    """The traced pass plus the replay-saving measurement."""
    import layertrace

    tracer = layertrace.Tracer(work.fresh("spans"))
    tracer.install()
    try:
        traced = measure(seed, seconds, work, tiny=tiny, setups=1,
                         speed=HostSpeed(pause=False))
    finally:
        tracer.uninstall()
    if traced.digest != untraced.digest:
        wrong.append("traced pass simulated different outputs")
    wrong.extend(traced.wrong)
    values = layertrace.layer_metrics(tracer.collect(), traced, nproc(),
                                      tracer.root_pid)
    values["trace.overhead_share"] = traced.work_s / untraced.work_s - 1.0
    saved, differing = layertrace.replay_saving(untraced.points, nproc())
    values["replay.saved_s"] = saved
    wrong.extend(f"{label}: exact and replay results differ"
                 for label in differing)
    return values, PER_LAYER


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="accepted and unused: both workloads measure "
                             "a fixed batch of about 25 s")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGTERM unwinds through the workloads' cleanup, which stops the
    # service workers (they treat SIGTERM as "drain", not "exit").
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    return report(run(args.workload, args.seed, args.seconds,
                      bool(args.trace)))


def report(outcome: Dict[str, Any]) -> int:
    """Print a run's lines and result; the exit code (1 on a wrong output)."""
    for line in outcome["lines"]:
        print(line)
    print(json.dumps(outcome["result"]), flush=True)
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
