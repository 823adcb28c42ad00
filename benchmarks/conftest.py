"""Benchmark configuration.

Each benchmark regenerates one of the paper's tables/figures and prints
the same rows/series the paper reports.  Figure sweeps are full
simulations, so every benchmark runs one round/one iteration by default;
scale the workload with REPRO_ROWS (default 8192 here, 4096 under CI —
raise it for paper-scale shapes at proportional runtime).

Every test collected from this directory carries the ``bench`` marker,
so ``pytest -m bench`` runs the figure tier and ``pytest tests -q``
stays the fast unit tier.  The sweeps route through the shared
:class:`~repro.sim.engine.ExperimentEngine`, so re-runs load completed
points from ``.repro_cache/`` (set REPRO_CACHE=0 to measure cold).
"""

import os
import pathlib

import pytest

from repro.experiments.common import experiment_rows

#: rows used by the figure benches unless REPRO_ROWS overrides; CI boxes
#: get a smaller default so the figure tier stays a smoke test there.
BENCH_ROWS = experiment_rows(4096 if os.environ.get("CI") else 8192)

_BENCH_DIR = pathlib.Path(__file__).parent


@pytest.fixture(scope="session")
def bench_rows() -> int:
    """Rows per figure benchmark."""
    return BENCH_ROWS


def pytest_collection_modifyitems(items):
    """Mark everything under benchmarks/ as the ``bench`` tier."""
    for item in items:
        try:
            in_benchmarks = _BENCH_DIR in pathlib.Path(str(item.path)).parents
        except (TypeError, ValueError):
            in_benchmarks = False
        if in_benchmarks:
            item.add_marker(pytest.mark.bench)
