"""The HIVE/HIPE interlocked register bank.

Table I: 36 registers of 256 B each (9 KB total — the paper's "balanced"
redesign, 94 % smaller than original HIVE).  Each register holds

* a 256 B value (a vector of 4 B lanes by default),
* per-lane *zero flags* — set by every ALU operation, consumed by HIPE's
  predication match logic ("the register bank stores not only the result
  value, but also the zero flag from each operation", §III),
* a *ready time* implementing the interlock: the sequencer keeps
  dispatching during outstanding loads and stalls only when an
  instruction actually reads a not-yet-ready register.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..common.config import PimLogicConfig
from ..common.stats import StatGroup

_LANE_DTYPES = {1: np.int8, 2: np.int16, 4: np.int32, 8: np.int64}


class PimRegister:
    """One vector register: value, per-lane match flags, interlock time."""

    __slots__ = ("index", "nbytes", "value", "lane_match", "ready")

    def __init__(self, index: int, nbytes: int) -> None:
        self.index = index
        self.nbytes = nbytes
        self.value = np.zeros(nbytes, dtype=np.uint8)
        # Flags at the finest lane granularity used by the engines (4 B);
        # ops with wider lanes view a prefix of this array.
        self.lane_match = np.zeros(nbytes // 4, dtype=bool)
        self.ready = 0

    def lanes(self, lane_bytes: int) -> np.ndarray:
        """The value viewed as signed integer lanes of ``lane_bytes``."""
        return self.value.view(_LANE_DTYPES[lane_bytes])

    def set_lanes(self, data: np.ndarray, lane_bytes: int) -> None:
        """Overwrite value lanes and refresh the per-lane match flags."""
        raw = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        if raw.size > self.nbytes:
            raise ValueError(f"{raw.size} B exceeds the {self.nbytes} B register")
        self.value[: raw.size] = raw
        if raw.size < self.nbytes:
            self.value[raw.size :] = 0
        np.not_equal(self.value.view(np.int32), 0, out=self.lane_match)


class PimRegisterBank:
    """The bank: bounds-checked access plus read/write accounting."""

    def __init__(self, config: PimLogicConfig, stats: StatGroup | None = None) -> None:
        self.config = config
        self.registers: List[PimRegister] = [
            PimRegister(i, config.register_bytes) for i in range(config.register_count)
        ]
        self.stats = stats if stats is not None else StatGroup("register_bank")
        self.stats.batch(self, (("_n_reads", "reads"), ("_n_writes", "writes")))

    def __len__(self) -> int:
        return len(self.registers)

    def __getitem__(self, index: int) -> PimRegister:
        if not (0 <= index < len(self.registers)):
            raise IndexError(
                f"register r{index} outside the {len(self.registers)}-entry bank"
            )
        return self.registers[index]

    def read(self, index: int) -> PimRegister:
        """A timed read access (accounting; interlock is caller-side)."""
        self._n_reads += 1
        return self[index]

    def write(self, index: int, data: np.ndarray, lane_bytes: int, ready: int) -> PimRegister:
        """A timed write: install data, flags, and the interlock time."""
        register = self[index]
        register.set_lanes(data, lane_bytes)
        register.ready = max(register.ready, ready)
        self._n_writes += 1
        return register
