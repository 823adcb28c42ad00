"""HIPE: the paper's contribution — HIVE plus predication match logic.

HIPE keeps HIVE's balanced design (36 x 256 B registers, unified vector
FUs, in-order sequencer with interlock) and adds:

* an **instruction buffer** holding incoming instructions,
* **predication match logic**: load/store/ALU instructions may carry a
  predicate register — they execute only for lanes whose zero flag
  matches the wanted value.  A fully unmatched region is *squashed*
  (no DRAM access), a partially matched load transfers only the matched
  lanes' bytes; predicated-off ALU lanes produce zero, which is exactly
  the conjunction-AND the select scan needs.

This turns the scan's control-flow (branch on the previous column's
match) into data-flow inside the cube: during the evaluation of column
k, only tuples that survived columns 1..k-1 are loaded and compared —
the source of the paper's DRAM traffic/energy savings, and of the extra
data dependencies that cost ~15 % versus HIVE's full streaming scan.

The engine logic lives in :class:`~repro.pim.hive.HiveEngine`; this
subclass enables predication, enforces the instruction-buffer bound and
separates the statistics namespace.  Like HIVE it computes values after
the instructions issue, in bulk (:mod:`repro.pim.evaluator`), except
where timing reads data: a predicated load or store needs its
predicate's zero flags to decide a squash or a partial transfer.  It
evaluates the log, and from then on every value is computed as its
instruction issues, until a locked block issues no predicated op —
HIPE's predicated scans stay effectively eager, its unpredicated ones
(a single-predicate selectivity scan, the count aggregates) run in
bulk.  Predicated ALU ops take the same time whichever lanes they keep.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..common.config import PimLogicConfig, hipe_logic_config
from ..common.stats import StatGroup
from ..memory.hmc import Hmc
from ..memory.image import MemoryImage
from .hive import HiveBackend, HiveEngine


class HipeEngine(HiveEngine):
    """HIVE's sequencer with the predication match logic switched on."""

    def __init__(
        self,
        config: Optional[PimLogicConfig] = None,
        hmc: Hmc | None = None,
        image: MemoryImage | None = None,
        stats: Optional[StatGroup] = None,
        invalidate_range: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        if config is None:
            config = hipe_logic_config()
        if not config.predication:
            raise ValueError("HipeEngine requires a predication-enabled config")
        if hmc is None or image is None:
            raise ValueError("HipeEngine needs the cube and the memory image")
        super().__init__(config, hmc, image, stats=stats, invalidate_range=invalidate_range)

    # Predication support is inherited: the issue functions HiveEngine
    # builds for predicated loads, stores and ALU ops implement the match
    # logic, and refuse to be built unless config.predication is set —
    # which this class guarantees.


class HipeBackend(HiveBackend):
    """Core-side adapter for HIPE (instruction-buffer-sized window).

    The instruction buffer lets the core stream a locked block's
    instructions into the cube without per-instruction round trips; its
    size bounds how many HIPE instructions may be in flight.
    """

    def __init__(
        self,
        engine: HipeEngine,
        hmc: Hmc,
        stats: Optional[StatGroup] = None,
        max_outstanding: Optional[int] = None,
    ) -> None:
        if max_outstanding is None:
            max_outstanding = engine.config.instruction_buffer_entries
        super().__init__(engine, hmc, stats=stats, max_outstanding=max_outstanding)
