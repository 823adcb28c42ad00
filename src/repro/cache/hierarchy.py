"""The full cache hierarchy of one core, backed by the HMC.

L1 (private, stride prefetch) -> L2 (private, stream prefetch) ->
L3 (inclusive) -> HMC serial links -> vaults.

The hierarchy is the x86 baseline's whole memory system; the PIM
architectures use it only for the core-side accesses that remain
(materialisation writes, cached bitmask reads, ...).
"""

from __future__ import annotations

from typing import Optional

from ..common.config import MachineConfig
from ..common.stats import StatGroup
from ..memory.hmc import Hmc
from .cache import AccessType, CacheLevel


class HmcPort:
    """Adapter presenting the HMC with the cache's downstream interface."""

    def __init__(self, hmc: Hmc, line_bytes: int = 64) -> None:
        self.hmc = hmc
        self.line_bytes = line_bytes

    def access(self, cycle: int, line_address: int, acc_type: AccessType, pc: int = 0) -> int:
        """Forward one line request over the serial links."""
        if acc_type in (AccessType.LOAD, AccessType.PREFETCH):
            return self.hmc.read_line_times(cycle, line_address, self.line_bytes)[1]
        # Stores/writebacks are posted: the core-side completes when the
        # packet is accepted by the links; DRAM absorbs it asynchronously.
        return self.hmc.write_line_times(cycle, line_address, self.line_bytes)[0]


class CacheHierarchy:
    """One core's L1/L2 on an inclusive L3 over the HMC."""

    def __init__(
        self,
        config: MachineConfig,
        hmc: Hmc,
        stats: Optional[StatGroup] = None,
    ) -> None:
        self.config = config
        self.stats = stats if stats is not None else StatGroup("caches")
        self.line_bytes = config.l1.line_bytes
        self._n_loads = 0
        self._n_stores = 0
        self.stats.register_flush(self._flush_counts)

        port = HmcPort(hmc, config.l3.line_bytes)
        self.l3 = CacheLevel(config.l3, port, self.stats.child("l3"))
        self.l2 = CacheLevel(config.l2, self.l3, self.stats.child("l2"))
        self.l1 = CacheLevel(config.l1, self.l2, self.stats.child("l1"))
        # Inclusive L3: evictions there must purge the private levels.
        self.l3.register_upstream(self.l1.invalidate)
        self.l3.register_upstream(self.l2.invalidate)

    def _flush_counts(self) -> None:
        if self._n_loads:
            self.stats.bump("loads", self._n_loads)
            self._n_loads = 0
        if self._n_stores:
            self.stats.bump("stores", self._n_stores)
            self._n_stores = 0

    # -- the core-facing interface ------------------------------------------

    def _split_lines(self, address: int, nbytes: int):
        line = self.line_bytes
        first = address - (address % line)
        last = (address + max(nbytes, 1) - 1) // line * line
        cursor = first
        while cursor <= last:
            yield cursor
            cursor += line

    def load(self, cycle: int, address: int, nbytes: int, pc: int = 0) -> int:
        """A demand load of ``nbytes``; returns data-ready cycle."""
        line_bytes = self.line_bytes
        first = address - (address % line_bytes)
        last = (address + (nbytes if nbytes > 1 else 1) - 1) // line_bytes * line_bytes
        l1_access = self.l1.access
        if first == last:  # common case: the access fits one line
            completion = l1_access(cycle, first, AccessType.LOAD, pc)
            if completion < cycle:
                completion = cycle
        else:
            completion = cycle
            line = first
            while line <= last:
                done = l1_access(cycle, line, AccessType.LOAD, pc)
                if done > completion:
                    completion = done
                line += line_bytes
        self._n_loads += 1
        return completion

    def store(self, cycle: int, address: int, nbytes: int, pc: int = 0) -> int:
        """A committed store of ``nbytes``; returns L1-accept cycle."""
        line_bytes = self.line_bytes
        first = address - (address % line_bytes)
        last = (address + (nbytes if nbytes > 1 else 1) - 1) // line_bytes * line_bytes
        l1_access = self.l1.access
        if first == last:
            completion = l1_access(cycle, first, AccessType.STORE, pc)
            if completion < cycle:
                completion = cycle
        else:
            completion = cycle
            line = first
            while line <= last:
                done = l1_access(cycle, line, AccessType.STORE, pc)
                if done > completion:
                    completion = done
                line += line_bytes
        self._n_stores += 1
        return completion

    def prefetch(self, cycle: int, address: int, pc: int = 0) -> None:
        """A software prefetch hint into L1."""
        self.l1.access(cycle, address, AccessType.PREFETCH, pc)

    def invalidate_range(self, address: int, nbytes: int) -> None:
        """Purge every line of a range from all levels.

        Used when the HIVE/HIPE engine stores to DRAM behind the caches:
        any stale cached copy must disappear, which is also why the
        processor's subsequent bitmask reads pay DRAM latency (Fig. 3b's
        HIVE penalty).
        """
        for line in self._split_lines(address, nbytes):
            self.l1.invalidate(line)
            self.l2.invalidate(line)
            self.l3.invalidate(line)

    def contains(self, address: int) -> bool:
        """True if any level holds the line (tests/debugging)."""
        return (
            self.l1.contains(address)
            or self.l2.contains(address)
            or self.l3.contains(address)
        )
