#!/usr/bin/env python
"""Cross-check run-compiled kernels against the uncompiled uop path.

Runs the Q6 column scan on every architecture (HIVE also at 16 B, whose
skip-fragmented later passes compile across their short runs, and HIPE
at 16 B, whose predicated loads and stores squash and move partial
lanes while a share of its uops runs uncompiled), the NSM
tuple-at-a-time scan on x86, HMC and HIVE (HIVE at 64 and 16 B, whose
groups' compare results are verified), and three filter-then-aggregate
plans (HIPE selectivity 0.4, x86 Q6 revenue and HIVE Q6 revenue, whose
engine accumulators are summed across iterations) twice — once with run
compilation enabled (the default) and once with ``REPRO_KERNEL=0`` — on
both the replay path and the ``REPRO_EXACT=1`` slow path, and asserts
cycles, uops, verification, statistics, energy and aggregates are
bit-identical.
This is the CI smoke that keeps :mod:`repro.cpu.kernel` honest: the
generated kernels transcribe :meth:`CoreExecution.process`, and any
divergence between the two paths is a compiler bug, never a model
change.

Usage::

    PYTHONPATH=src python tools/check_kernel_identity.py [rows]
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: (arch, layout, strategy, op bytes, plan); the tuple points cover the
#: match-keyed tuple run shapes (HMC-16B: four load-compares per tuple,
#: HIVE-16B four engine loads per verified compare), HIVE-16B column the
#: fragmented passes, HIPE-16B column the predicated squashes and partial
#: lanes, and the plans the aggregate runs (HIVE Q6 revenue: the engine's
#: ADD accumulators)
POINTS = [
    ("x86", "dsm", "column", 64, "q6"), ("x86", "dsm", "column", 16, "q6"),
    ("hmc", "dsm", "column", 256, "q6"), ("hive", "dsm", "column", 256, "q6"),
    ("hipe", "dsm", "column", 256, "q6"), ("hive", "dsm", "column", 16, "q6"),
    ("hipe", "dsm", "column", 16, "q6"),
    ("x86", "nsm", "tuple", 16, "q6"), ("hmc", "nsm", "tuple", 16, "q6"),
    ("hive", "nsm", "tuple", 64, "q6"), ("hive", "nsm", "tuple", 16, "q6"),
    ("hipe", "dsm", "column", 256, "sel_0.4"),
    ("x86", "dsm", "column", 64, "q6_revenue"),
    ("hive", "dsm", "column", 256, "q6_revenue"),
]


def fingerprint(result) -> dict:
    return {
        "cycles": result.cycles,
        "uops": result.uops,
        "verified": result.verified,
        "stats": result.stats,
        "energy": result.energy.to_dict(),
        "aggregates": result.aggregates,
    }


def run_point(arch: str, layout: str, strategy: str, op: int, plan: str,
              rows: int, kernel: bool, exact: bool) -> dict:
    os.environ["REPRO_KERNEL"] = "1" if kernel else "0"
    from repro.codegen.base import ScanConfig
    from repro.db.query6 import q6_revenue_plan, q6_select_plan
    from repro.db.workloads import selectivity_scan_plan
    from repro.sim.runner import run_scan

    plans = {"q6": q6_select_plan, "q6_revenue": q6_revenue_plan,
             "sel_0.4": lambda: selectivity_scan_plan(0.4)}
    result = run_scan(arch, ScanConfig(layout, strategy, op, 1), rows=rows,
                      plan=plans[plan](), exact=exact)
    return fingerprint(result)


def main() -> int:
    rows = int(sys.argv[1]) if len(sys.argv) > 1 else 32_768
    failures = 0
    for point in POINTS:
        arch, layout, strategy, op, plan = point
        for exact in (False, True):
            compiled = run_point(*point, rows, kernel=True, exact=exact)
            uncompiled = run_point(*point, rows, kernel=False, exact=exact)
            label = (f"{arch}-{op}B {strategy} {plan} rows={rows} "
                     f"exact={exact}")
            if compiled == uncompiled:
                print(f"  OK   {label}: cycles={compiled['cycles']:,} "
                      f"uops={compiled['uops']:,}")
            else:
                failures += 1
                print(f"  FAIL {label}: kernel and uncompiled paths differ")
                for key in compiled:
                    if compiled[key] != uncompiled[key]:
                        print(f"       {key}: {str(compiled[key])[:120]} != "
                              f"{str(uncompiled[key])[:120]}")
    if failures:
        print(f"{failures} point(s) diverged")
        return 1
    # Code-object economics: shape-varying literals are interned, so a
    # multi-arch sweep must find at least one same-structure shape (or a
    # re-simulated workload) sharing a cached code object.
    from repro.cpu.kernel import code_cache_stats

    cache = code_cache_stats()
    print(f"code objects: {cache['compiled']} compiled, "
          f"{cache['shared']} shared")
    if cache["compiled"] > 0 and cache["shared"] == 0:
        print("FAIL: no code-object sharing across the sweep — literal "
              "interning has regressed to one compile per shape")
        return 1
    print("kernel path is bit-identical to the uncompiled path on all points")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
