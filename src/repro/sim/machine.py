"""Machine assembly: wiring one of the four evaluated systems together.

``build_machine("hipe")`` returns a ready-to-run system: the HMC cube,
the cache hierarchy, the out-of-order core, and — depending on the
architecture — the extended HMC ISA backend or the HIVE/HIPE logic-layer
engine, all sharing one statistics tree and one memory image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..common.config import (
    DEFAULT_SCALE,
    MachineConfig,
    hipe_logic_config,
    hive_logic_config,
    machine_for,
)
from ..common.stats import StatGroup
from ..cache.hierarchy import CacheHierarchy
from ..cpu.core import OoOCore, PimBackend
from ..memory.hmc import Hmc
from ..memory.image import MemoryImage
from ..pim.hive import HiveBackend, HiveEngine
from ..pim.hipe import HipeBackend, HipeEngine
from ..pim.hmc_isa import HmcIsaBackend


@dataclass
class Machine:
    """One evaluated system, fully wired."""

    arch: str
    config: MachineConfig
    image: MemoryImage
    hmc: Hmc
    hierarchy: CacheHierarchy
    core: OoOCore
    stats: StatGroup
    backend: Optional[PimBackend] = None
    engine: Optional[HiveEngine] = None

    #: replay bookkeeping of the last `run_runs` (never part of results)
    replay_stats: Optional[object] = None

    def run(self, trace):
        """Execute a uop trace; returns the core result (stats updated).

        The run ends when both the core has committed everything *and*
        the memory-side engine has drained (posted PIM instructions may
        still be executing in the cube when the core retires them).
        """
        result = self.core.run(trace)
        return self._finish(result)

    def run_runs(self, runs, exact: Optional[bool] = None, monitor=None):
        """Execute a steady-state run stream (see :mod:`repro.sim.replay`).

        ``exact`` is tri-state: ``None`` (default) follows the
        environment (``REPRO_EXACT=1`` forces the slow path), ``True``
        simulates every uop regardless, and an explicit ``False`` forces
        the replay path even under ``REPRO_EXACT=1`` — callers can
        override the environment in *both* directions.  Results are
        bit-identical either way; the replay path is just
        asymptotically faster on converged scans.  Both paths run each
        body through the run-compiled kernels of
        :mod:`repro.cpu.kernel` (disable with ``REPRO_KERNEL=0``;
        kernel and uncompiled execution are likewise bit-identical).

        ``monitor`` (a :class:`~repro.sim.checkpoint.RunMonitor`)
        interposes on the stream for heartbeats and pass-boundary
        checkpoints; when it carries a restored execution, the run
        resumes from that snapshot instead of starting fresh.
        """
        from ..cpu.kernel import consume_runs
        from .replay import ReplayExecutor, replay_enabled

        if exact is None:
            exact = not replay_enabled()
        execution = self._execution_for(monitor)
        if monitor is not None:
            runs = monitor.attach(self, execution, runs)
        if exact or self.hierarchy.directory is not None:
            consume_runs(execution, runs)
            return self._finish(execution.result())
        executor = ReplayExecutor(self, execution)
        executor.consume(runs)
        self.replay_stats = executor.stats
        return self._finish(execution.result())

    def _execution_for(self, monitor):
        if monitor is not None:
            execution = monitor.take_resume_execution()
            if execution is not None:
                return execution
        return self.core.execution()

    def _finish(self, result):
        if self.engine is not None and self.engine.last_completion > result.cycles:
            result.cycles = self.engine.last_completion
            result.stats.set("cycles", result.cycles)
        self.hmc.collect_stats()
        return result


def build_machine(
    arch: str,
    scale: int = DEFAULT_SCALE,
    image: Optional[MemoryImage] = None,
    config: Optional[MachineConfig] = None,
) -> Machine:
    """Construct an x86 / HMC / HIVE / HIPE system.

    ``scale=1`` uses the exact Table I capacities; the default shrinks
    caches (and is meant to be paired with a proportionally smaller
    dataset — see DESIGN.md §4).
    """
    arch = arch.lower()
    if config is None:
        config = machine_for(arch, scale)
    stats = StatGroup(arch)
    if image is None:
        image = MemoryImage(config.hmc.total_size_bytes)
    hmc = Hmc(config.hmc, stats.child("hmc"))
    hierarchy = CacheHierarchy(config, hmc, stats.child("caches"))

    backend: Optional[PimBackend] = None
    engine: Optional[HiveEngine] = None
    if arch == "hmc":
        backend = HmcIsaBackend(
            hmc, image, stats.child("hmc_isa"),
            max_outstanding=config.hmc.isa_window,
        )
    elif arch == "hive":
        pim_config = config.pim if config.pim is not None else hive_logic_config()
        engine = HiveEngine(
            pim_config, hmc, image,
            stats=stats.child("hive"),
            invalidate_range=hierarchy.invalidate_range,
        )
        backend = HiveBackend(engine, hmc, stats.child("hive_backend"))
    elif arch == "hipe":
        pim_config = config.pim if config.pim is not None else hipe_logic_config()
        engine = HipeEngine(
            pim_config, hmc, image,
            stats=stats.child("hipe"),
            invalidate_range=hierarchy.invalidate_range,
        )
        backend = HipeBackend(engine, hmc, stats.child("hipe_backend"))
    elif arch != "x86":
        raise ValueError(f"unknown architecture {arch!r}")

    core = OoOCore(config, hierarchy, pim_backend=backend, stats=stats.child("core"))
    return Machine(
        arch=arch,
        config=config,
        image=image,
        hmc=hmc,
        hierarchy=hierarchy,
        core=core,
        stats=stats,
        backend=backend,
        engine=engine,
    )
