"""repro: a reproduction of "HIPE: HMC Instruction Predication Extension
Applied on Database Processing" (Tomé et al., DATE 2018).

The package provides a trace-driven timing simulator of the paper's four
evaluated systems — an out-of-order x86 host with the HMC as plain
memory, the extended HMC update ISA, the HIVE logic-layer vector engine,
and HIPE (HIVE + predication) — together with the TPC-H Query 6 database
workload, per-architecture scan code generators, an energy model, and
the harnesses that regenerate every figure of the paper's evaluation.

Quickstart::

    from repro import ScanConfig, run_scan

    result = run_scan("hipe", ScanConfig("dsm", "column", 256, unroll=32),
                      rows=16_384)
    print(result.cycles, result.energy.dram_total_pj, result.verified)

Query plans
-----------

Workloads are :class:`~repro.db.plan.QueryPlan` values — a declared
table schema plus Scan/Filter/Project/Aggregate operator nodes — and
every layer consumes them: ``repro.db.scan.execute_plan`` interprets a
plan with reference numpy semantics, each codegen lowers it per
operator, and :func:`run_scan` verifies the lowering uop-deep against
the interpreter.  The default plan is the paper's Q6 select scan;
:func:`~repro.db.workloads.q1_style_plan` (grouped aggregation) and
:func:`~repro.db.workloads.selectivity_scan_plan` (parameterised range
scan) open the workload space::

    from repro import ScanConfig, q1_style_plan, run_scan

    result = run_scan("hive", ScanConfig("dsm", "column", 256, unroll=32),
                      rows=16_384, plan=q1_style_plan())
    print(result.aggregates)  # verified per-group SUM/COUNT values

Experiment engine
-----------------

Figure sweeps are many independent (architecture, scan-config) points,
so the package ships an :class:`~repro.sim.engine.ExperimentEngine`,
the only cache front of those sweeps.  It memoises completed points in
an on-disk cache under ``.repro_cache/``, keyed by architecture,
configuration, rows, seed, cache scale, dataset digest, machine-config
digest, result-shaping source digest, query-plan digest and package
version, and runs the misses in-process or, when several miss and
``jobs > 1``, on a cache-less :class:`~repro.service.SimulationService`
it owns (persistent workers, shared-memory datasets, crash retry and
pass checkpoints; ``engine.close()`` or a ``with`` block stops them).
All figure harnesses (``repro.experiments``) route through a shared
default engine, so regenerating a figure twice — or figures that share
points, as 3b/3c/3d do — is near-instant after the first run::

    from repro import ExperimentEngine, ScanConfig

    with ExperimentEngine() as engine:   # REPRO_JOBS workers, cached
        result = engine.sweep("demo", [
            ("x86", ScanConfig("dsm", "column", 64, unroll=8)),
            ("hipe", ScanConfig("dsm", "column", 256, unroll=32)),
        ], rows=16_384)
    print(result.report())

Environment knobs, all declared in :mod:`repro.common.settings`:
``REPRO_JOBS`` (worker count; ``1`` = serial with identical results),
``REPRO_CACHE_DIR`` (cache location; checkpoints go to its
``checkpoints`` subdirectory or ``REPRO_CHECKPOINT_DIR``),
``REPRO_CACHE=0`` (disable caching), ``REPRO_CACHE_MAX_MB`` (LRU cap),
``REPRO_ROWS`` (sweep sizes), ``REPRO_KERNEL=0`` and ``REPRO_EXACT=1``
(slower, bit-identical paths).  The service's limits are arguments of
:class:`~repro.service.SimulationService` only.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from .codegen.base import (
    PIM_OP_SIZES,
    PIM_UNROLLS,
    ScanConfig,
    ScanWorkload,
    X86_OP_SIZES,
    X86_UNROLLS,
)
from .common.config import (
    ARCHITECTURES,
    DEFAULT_SCALE,
    MachineConfig,
    hipe_logic_config,
    hive_logic_config,
    machine_for,
    paper_config,
    scaled_config,
)
from .db.datagen import (
    LINEITEM_Q1_SCHEMA,
    LINEITEM_Q6_SCHEMA,
    ColumnSpec,
    LineitemData,
    TableData,
    TableSchema,
    generate_lineitem,
    generate_table,
)
from .db.plan import (
    Aggregate,
    AggSpec,
    Filter,
    Predicate,
    Project,
    QueryPlan,
    Scan,
)
from .db.query6 import (
    Q6_PREDICATES,
    q6_revenue_plan,
    q6_select_plan,
    reference_mask,
    reference_revenue,
)
from .db.scan import PlanResult, execute_plan
from .db.workloads import q1_style_plan, selectivity_scan_plan
from .energy.model import EnergyReport, compute_energy
from .sim.engine import ExperimentEngine, ResultCache
from .sim.machine import Machine, build_machine
from .sim.results import (
    ExperimentResult,
    RunResult,
    format_table,
    normalised,
    speedup,
)
from .sim.runner import DEFAULT_ROWS, build_workload, run_scan
from .service import JobState, SimulationService, Ticket

__version__ = "1.9.0"

__all__ = [
    "ARCHITECTURES",
    "Aggregate",
    "AggSpec",
    "ColumnSpec",
    "DEFAULT_ROWS",
    "DEFAULT_SCALE",
    "EnergyReport",
    "ExperimentEngine",
    "ExperimentResult",
    "Filter",
    "JobState",
    "LINEITEM_Q1_SCHEMA",
    "LINEITEM_Q6_SCHEMA",
    "LineitemData",
    "Machine",
    "MachineConfig",
    "PIM_OP_SIZES",
    "PIM_UNROLLS",
    "PlanResult",
    "Predicate",
    "Project",
    "Q6_PREDICATES",
    "QueryPlan",
    "ResultCache",
    "RunResult",
    "Scan",
    "ScanConfig",
    "ScanWorkload",
    "SimulationService",
    "TableData",
    "Ticket",
    "TableSchema",
    "X86_OP_SIZES",
    "X86_UNROLLS",
    "build_machine",
    "build_workload",
    "compute_energy",
    "execute_plan",
    "format_table",
    "generate_lineitem",
    "generate_table",
    "hipe_logic_config",
    "hive_logic_config",
    "machine_for",
    "normalised",
    "paper_config",
    "q1_style_plan",
    "q6_revenue_plan",
    "q6_select_plan",
    "reference_mask",
    "reference_revenue",
    "run_scan",
    "scaled_config",
    "selectivity_scan_plan",
    "speedup",
]
