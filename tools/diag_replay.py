"""Diagnose why the replay probe refuses a workload.

Runs one (arch, config, rows) point with an instrumented probe that
reports which signature parts differ at each failed boundary comparison.
Usage: PYTHONPATH=src python tools/diag_replay.py hmc 256 2097152

An extra ``mini`` argument (after the three positionals) uses the
reduced-cube machine config.
"""

from __future__ import annotations

import math
import sys

from repro.codegen.base import ScanConfig
from repro.db.query6 import q6_select_plan
from repro.db.datagen import generate_table
from repro.sim.machine import build_machine
from repro.sim import replay
from repro.sim.replay import ReplayExecutor, _AddressMap
from repro.sim.runner import build_workload, _CODEGENS

PART_NAMES = [
    "slotted(core+ports)", "occupancy", "rr_pools(fu/lanes)",
    "addr_pools(cmd/fu/bus/banks)",
    "core clocks(fetch_floor/brwm/pim)", "rob", "regs", "store_fwd",
    "predictor",
    "l1 tags", "l1 mshr", "l1 pref",
    "l2 tags", "l2 mshr", "l2 pref",
    "l3 tags", "l3 mshr", "l3 pref",
    "engine",
]


def diff_parts(sig1, sig2, label):
    bad = []
    for i, (a, b) in enumerate(zip(sig1, sig2)):
        if a != b:
            name = PART_NAMES[i] if i < len(PART_NAMES) else f"part{i}"
            bad.append((i, name))
    print(f"  {label}: {len(bad)} differing parts: {[n for _, n in bad]}")
    for i, name in bad[:4]:
        a, b = sig1[i], sig2[i]
        try:
            sa, sb = set(a), set(b)
            only_a = sorted(sa - sb)
            only_b = sorted(sb - sa)
            print(f"    [{name}] only-A({len(only_a)}): {repr(only_a)[:260]}")
            print(f"    [{name}] only-B({len(only_b)}): {repr(only_b)[:260]}")
            if not only_a and not only_b:
                print(f"    [{name}] same multiset, order differs")
                for k, (x, y) in enumerate(zip(a, b)):
                    if x != y:
                        print(f"      first order diff at {k}: {repr(x)[:120]} vs {repr(y)[:120]}")
                        break
        except TypeError:
            print(f"    [{name}] A={repr(a)[:260]}")
            print(f"    [{name}] B={repr(b)[:260]}")


class DiagExecutor(ReplayExecutor):
    def _probe_and_skip(self, run, j, p):
        state = self.state
        execution = self.execution
        one = self._region_deltas(run, 1, p)
        if one is None:
            scale = 1
            for region in run.regions:
                d = (region.stride * p).denominator
                if d > 1:
                    scale = scale * d // math.gcd(scale, d)
            p *= scale
            if run.count - j < 3 * p:
                print(f"probe @j={j}: scaled p={p} doesn't fit")
                return 0, False
            one = self._region_deltas(run, 1, p)
        print(f"probe @j={j} p={p} (run key={run.key[:4] if run.key else None} "
              f"count={run.count})")
        state.fixed_regs = run.fixed_regs
        base_phase = (j * run.regs_per_iter) % replay.REG_WINDOW
        state.refresh_stats()
        keys0 = state.stat_keys()
        raw0 = state.raw_snapshot()
        cnt0 = state.counter_vector()
        rot0 = state.rotation_vector()
        now0 = execution.last_commit
        for k in range(p):
            self._simulate_iteration(run, j + k)
        state.reg_phase = (base_phase + p * run.regs_per_iter) % replay.REG_WINDOW
        amap1 = _AddressMap(run.regions, list(one))
        state.refresh_stats()
        if state.stat_keys() != keys0:
            print("  new stat keys appeared")
            return p, False
        raw1 = state.raw_snapshot()
        sig1 = state.signature(amap1, raw0)
        cnt1 = state.counter_vector()
        rot1 = state.rotation_vector()
        now1 = execution.last_commit
        for k in range(p):
            self._simulate_iteration(run, j + p + k)
        state.reg_phase = (base_phase + 2 * p * run.regs_per_iter) % replay.REG_WINDOW
        amap2 = _AddressMap(run.regions, [2 * d for d in one])
        state.refresh_stats()
        if state.stat_keys() != keys0:
            print("  new stat keys (2nd)")
            return 2 * p, False
        sig2 = state.signature(amap2, raw1)
        cnt2 = state.counter_vector()
        rot2 = state.rotation_vector()
        now2 = execution.last_commit
        dt1, dt2 = now1 - now0, now2 - now1
        if sig2 != sig1:
            diff_parts(sig1, sig2, "sig1 vs sig2")
            return 2 * p, False
        if dt1 != dt2:
            print(f"  dt mismatch {dt1} vs {dt2}")
            return 2 * p, False
        da = [b - a for a, b in zip(cnt0, cnt1)]
        db = [b - a for a, b in zip(cnt1, cnt2)]
        if da != db:
            idx = [i for i, (x, y) in enumerate(zip(da, db)) if x != y]
            print(f"  counter delta mismatch at {idx[:10]}")
            return 2 * p, False
        ra = [b - a for a, b in zip(rot0, rot1)]
        rb = [b - a for a, b in zip(rot1, rot2)]
        if ra != rb:
            print(f"  rotation delta mismatch {ra} vs {rb}")
            return 2 * p, False
        periods = (run.count - (j + 2 * p)) // p
        total = self._region_deltas(run, periods, p)
        amap_skip = _AddressMap(run.regions, total)
        if state.plan_tag_relabel(amap_skip) is None:
            print("  tag relabel refused (ambiguous merge)")
        if state.plan_pool_relabel(amap_skip) is None:
            print("  pool relabel refused (vault-space collision)")
        if state.plan_prefetcher_relabel(amap_skip, raw1) is None:
            print("  prefetcher relabel refused (key collision)")
        print(f"  sigs MATCH at j={j} p={p}, dt={dt1} "
              f"(diag mode: not extrapolating)")
        return 2 * p, False


def main():
    argv = sys.argv[1:]
    arch = argv[0] if len(argv) > 0 else "hmc"
    op = int(argv[1]) if len(argv) > 1 else 256
    rows = int(argv[2]) if len(argv) > 2 else 2_097_152
    config = None
    if "mini" in argv[3:]:
        from repro.common.config import reduced_cube_config
        config = reduced_cube_config(arch)
    plan = q6_select_plan()
    data = generate_table(plan.table, rows, 1994)
    machine = build_machine(arch, config=config)
    workload = build_workload(machine, data, "dsm", plan=plan)
    runs = _CODEGENS[arch].generate_plan_runs(
        workload, ScanConfig("dsm", "column", op, 1))
    executor = DiagExecutor(machine, machine.core.execution())
    executor.consume(runs)
    print(executor.stats)


if __name__ == "__main__":
    main()
