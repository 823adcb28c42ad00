"""Diagnose why the replay probe refuses a workload.

Runs one (arch, op bytes, rows) Q6 column point through the replay
executor and prints every probe it takes: where it ran, its period, and
either that it converged or the reason it refused (new counters, the
signature parts that differed, cycle, uop or rotation deltas, the
counters whose deltas differed by their dotted stats-tree names, e.g.
``x86.caches.l2.misses``, or the relabel plan that failed).
Usage: PYTHONPATH=src python tools/diag_replay.py hmc 256 2097152

An extra ``mini`` argument (after the three positionals) uses the
reduced-cube machine config.
"""

from __future__ import annotations

import sys

from repro.codegen.base import ScanConfig
from repro.db.query6 import q6_select_plan
from repro.db.datagen import generate_table
from repro.sim.machine import build_machine
from repro.sim.replay import ReplayExecutor
from repro.sim.runner import build_workload, _CODEGENS


class LoggingExecutor(ReplayExecutor):
    """The replay executor, printing the outcome of each probe."""

    def _probe_and_skip(self, run, j, p):
        consumed, refusal = super()._probe_and_skip(run, j, p)
        print(f"probe @j={j} p={p} (run key={run.key[:4]} count={run.count}): "
              f"{'converged' if refusal is None else 'refused: ' + refusal}")
        return consumed, refusal


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
    executor = LoggingExecutor(machine, machine.core.execution())
    executor.consume(runs)
    print(executor.stats)


if __name__ == "__main__":
    main()
