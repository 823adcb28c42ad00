"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation flips one mechanism and reports its contribution:

* DRAM timing domain ("bus" default vs literal 166 MHz "array" clock),
* hardware prefetchers on/off (the x86 baseline's streaming bandwidth),
* HIPE's per-lane partial predicated loads (extension) vs the paper's
  region-squash-only behaviour,
* predication itself: HIPE's single predicated pass vs HIVE's full scans
  on identical hardware,
* selectivity sweep: predication's benefit as the match rate varies
  (the paper's future-work axis).
"""

from dataclasses import replace

import pytest

from repro.codegen.base import ScanConfig
from repro.common.config import machine_for
from repro.db.datagen import generate_lineitem
from repro.sim.machine import build_machine
from repro.sim.runner import build_workload, run_scan
from repro.codegen import x86 as x86_codegen

ROWS = 8192


@pytest.fixture(scope="module")
def data():
    return generate_lineitem(ROWS, seed=1994)


def test_ablation_timing_domain(benchmark, data):
    """Bus-domain vs literal array-domain DRAM timings (DESIGN.md §4)."""

    def run_both():
        out = {}
        for domain in ("bus", "array"):
            config = machine_for("hmc")
            config = replace(config, hmc=replace(config.hmc, timing_domain=domain))
            machine = build_machine("hmc", config=config)
            workload = build_workload(machine, data, "dsm")
            from repro.codegen import hmc as hmc_codegen

            result = machine.run_runs(
                hmc_codegen.column_runs(workload, ScanConfig("dsm", "column", 256))
            )
            out[domain] = result.cycles
        return out

    cycles = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print(f"\n  bus-domain: {cycles['bus']:,} cyc; array-domain: {cycles['array']:,} cyc "
          f"({cycles['array'] / cycles['bus']:.2f}x slower)")
    assert cycles["array"] > cycles["bus"] * 1.5


def test_ablation_prefetchers(benchmark, data):
    """x86 with and without its stride+stream prefetchers."""

    def run_both():
        out = {}
        for enabled in (True, False):
            config = machine_for("x86")
            if not enabled:
                config = replace(
                    config,
                    l1=replace(config.l1, prefetcher="none"),
                    l2=replace(config.l2, prefetcher="none"),
                )
            machine = build_machine("x86", config=config)
            workload = build_workload(machine, data, "dsm")
            result = machine.run_runs(
                x86_codegen.column_runs(workload, ScanConfig("dsm", "column", 64))
            )
            out[enabled] = result.cycles
        return out

    cycles = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print(f"\n  prefetch on: {cycles[True]:,} cyc; off: {cycles[False]:,} cyc "
          f"({cycles[False] / cycles[True]:.2f}x slower without)")
    assert cycles[False] > cycles[True]


def test_ablation_partial_predicated_loads(benchmark, data):
    """Extension: per-lane gather on predicated loads (vs region squash)."""

    def run_both():
        out = {}
        for partial in (False, True):
            from repro.common.config import hipe_logic_config

            config = machine_for("hipe")
            pim = replace(hipe_logic_config(), partial_predicated_loads=partial)
            config = replace(config, pim=pim)
            machine = build_machine("hipe", config=config)
            # Patch the engine's config (build_machine constructs its own).
            machine.engine.config = pim
            workload = build_workload(machine, data, "dsm")
            from repro.codegen import hipe as hipe_codegen

            result = machine.run_runs(
                hipe_codegen.column_runs(workload, ScanConfig("dsm", "column", 256, unroll=32))
            )
            machine.hmc.collect_stats()
            stats = machine.stats.flatten()
            out[partial] = (result.cycles, stats.get("hipe.hmc.dram_bytes_read", 0))
        return out

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    (cyc_off, bytes_off), (cyc_on, bytes_on) = results[False], results[True]
    print(f"\n  region-squash only: {cyc_off:,} cyc, {bytes_off:,.0f} B read; "
          f"per-lane gather: {cyc_on:,} cyc, {bytes_on:,.0f} B read")
    assert bytes_on < bytes_off  # the gather extension reads fewer bytes


def test_ablation_predication_vs_full_scan(benchmark, data):
    """HIPE's predicated single pass vs HIVE's three full passes."""

    def run_both():
        out = {}
        for arch in ("hive", "hipe"):
            r = run_scan(arch, ScanConfig("dsm", "column", 256, unroll=32),
                         rows=ROWS, data=data)
            out[arch] = (r.cycles, r.energy.dram_total_pj)
        return out

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print(f"\n  HIVE: {results['hive'][0]:,} cyc, {results['hive'][1] / 1e6:.2f} uJ; "
          f"HIPE: {results['hipe'][0]:,} cyc, {results['hipe'][1] / 1e6:.2f} uJ")
    # Predication trades some time (dependences) for DRAM energy.
    assert results["hipe"][1] < results["hive"][1]


def test_ablation_selectivity_sweep(benchmark):
    """Predication benefit vs selectivity (squash rate rises as the
    first predicate gets more selective)."""
    from repro.cpu.isa import AluFunc
    from repro.db.query6 import Predicate

    def run_sweep():
        out = {}
        for hi_day in (760, 840, 1095):  # ~1 %, ~4.5 %, ~15 % first-column pass rate
            predicates = (
                Predicate("l_shipdate", AluFunc.CMP_RANGE, 731, hi_day),
                Predicate("l_discount", AluFunc.CMP_RANGE, 5, 7),
                Predicate("l_quantity", AluFunc.CMP_LT, 24),
            )
            machine = build_machine("hipe")
            dat = generate_lineitem(ROWS, seed=7)
            workload = build_workload(machine, dat, "dsm", predicates=predicates)
            from repro.codegen import hipe as hipe_codegen

            machine.run_runs(hipe_codegen.column_runs(
                workload, ScanConfig("dsm", "column", 256, unroll=32)))
            machine.hmc.collect_stats()
            stats = machine.stats.flatten()
            out[hi_day] = stats.get("hipe.hipe.squashed_loads", 0)
        return out

    squashes = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print(f"\n  squashed loads by shipdate upper bound: {squashes}")
    # More selective first column => more squashed later-column regions.
    values = list(squashes.values())
    assert values[0] >= values[-1]
