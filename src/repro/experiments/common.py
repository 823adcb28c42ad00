"""Shared experiment plumbing: row counts, engine routing, result shapes.

The figure harnesses all funnel through :func:`sweep`, which delegates
to a process-wide default :class:`~repro.sim.engine.ExperimentEngine` —
memoised on disk (``.repro_cache/``), so regenerating a figure twice, or
figures that share points, costs one simulation per unique point; the
misses run in parallel (``REPRO_JOBS``) on a service that engine owns.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..codegen.base import ScanConfig
from ..common.config import DEFAULT_SCALE
from ..common.settings import setting
from ..db.datagen import LineitemData
from ..db.plan import QueryPlan
from ..sim.engine import ExperimentEngine
from ..sim.results import ExperimentResult, RunResult  # noqa: F401  (re-export)

#: default rows per experiment — override with REPRO_ROWS.  32 K rows
#: against the scale-80 caches preserve the paper's working-set >> LLC
#: regime (see DESIGN.md §4); raise towards 6_001_215 (TPC-H SF1) for
#: paper-scale runs at proportional simulation cost.
DEFAULT_EXPERIMENT_ROWS = 32_768

#: the best configuration of each architecture, from Figures 3a-3c —
#: shared by Figure 3d and the multi-query harness so recalibrations
#: move both together
BEST_CONFIGS: List[Tuple[str, ScanConfig]] = [
    ("x86", ScanConfig("dsm", "column", 64, unroll=8)),
    ("hmc", ScanConfig("dsm", "column", 256, unroll=32)),
    ("hive", ScanConfig("dsm", "column", 256, unroll=32)),
    ("hipe", ScanConfig("dsm", "column", 256, unroll=32)),
]

_DEFAULT_ENGINE: Optional[ExperimentEngine] = None


def experiment_rows(default: int = DEFAULT_EXPERIMENT_ROWS) -> int:
    """Row count for experiments: ``REPRO_ROWS`` (at least 64) or ``default``."""
    rows = setting("REPRO_ROWS")
    return default if rows is None else rows


def default_engine() -> ExperimentEngine:
    """The process-wide engine the figure harnesses share (lazy)."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = ExperimentEngine()
    return _DEFAULT_ENGINE


def set_default_engine(engine: Optional[ExperimentEngine]) -> None:
    """Replace (or with ``None``, reset) the process-wide engine.

    The replaced engine is closed, so its service's workers stop.
    """
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is not None and _DEFAULT_ENGINE is not engine:
        _DEFAULT_ENGINE.close()
    _DEFAULT_ENGINE = engine


def sweep(
    name: str,
    points: List[Tuple[str, ScanConfig]],
    rows: int,
    data: Optional[LineitemData] = None,
    seed: int = 1994,
    scale: int = DEFAULT_SCALE,
    engine: Optional[ExperimentEngine] = None,
    plan: Optional[QueryPlan] = None,
) -> ExperimentResult:
    """Run (arch, config) points of one plan over one shared dataset."""
    if engine is None:
        engine = default_engine()
    return engine.sweep(name, points, rows, data=data, seed=seed, scale=scale,
                        plan=plan)
