"""Vault controller: one of the HMC's 32 independent memory channels.

Each vault owns 8 DRAM banks, a command queue and a data bus (Table I:
8 B burst width at a 2:1 core-to-bus frequency ratio, i.e. the bus moves
8 bytes every 2 core cycles = 4 B per core cycle).  Banks give
intra-vault parallelism; the shared bus serialises data transfers.

Each vault also hosts the HMC baseline's processing-in-memory functional
unit ("logical bitwise & integer", 1-core-cycle latency), used by the
extended HMC ISA instructions of the paper's second baseline.
"""

from __future__ import annotations

from ..common.config import HmcConfig
from ..common.resources import BandwidthResource, BusyResource
from .dram import DramBank, DramTimings


class Vault:
    """One vault: command queue, banks, data bus, and a PIM functional unit."""

    def __init__(self, vault_id: int, config: HmcConfig) -> None:
        self.vault_id = vault_id
        timings = DramTimings.from_config(config)
        bus_bytes_per_core_cycle = config.burst_bytes / config.core_to_bus_ratio
        cycles_per_byte = 1.0 / bus_bytes_per_core_cycle
        self.banks = [
            DramBank(timings, cycles_per_byte)
            for _ in range(config.banks_per_vault)
        ]
        # One DRAM command slot per DRAM-cycle-ish window; modelled as one
        # command per core cycle, serialised in arrival order — far from
        # limiting in practice, and deterministic so the steady state of
        # a streaming scan repeats with its address pattern.
        self._command_queue = BusyResource()
        self._data_bus = BandwidthResource(bus_bytes_per_core_cycle)
        # The per-vault functional unit of the HMC baseline accepts one
        # operation at a time (non-pipelined, 1-cycle per Table I).
        self._fu = BusyResource()
        self.fu_ops = 0

    def access(
        self, cycle: int, bank: int, nbytes: int, is_write: bool, address: int = 0
    ) -> int:
        """Perform a closed-page access of ``nbytes`` within one row.

        The command is accepted by the queue, the bank performs the
        activate/access/precharge sequence, and the data beats ride the
        vault's shared bus.  Returns when the data is at the vault
        interface (vault-local timing, no link cost).  ``address`` tags
        the command slot, the bank and the bus for replay relabelling
        (see BusyResource).  The caller (:meth:`Hmc.vault_access`) keeps
        ``bank`` in range and ``nbytes`` within one row-buffer block.
        """
        # One command slot per core cycle, serialised in arrival order.
        queue = self._command_queue
        issued = queue._next_free
        if cycle > issued:
            issued = cycle
        queue._next_free = issued + 1
        queue.last_address = address
        dram = self.banks[bank]
        start = dram.access(issued, nbytes, is_write, address)
        delay, burst, __ = dram._steps[is_write][nbytes]
        # The shared bus must be free when the bank starts streaming beats.
        data_start = start + delay
        bus = self._data_bus
        bus_start = bus._next_free
        if data_start > bus_start:
            bus_start = data_start
        duration = int(-(-nbytes // bus.bytes_per_cycle))
        if duration < 1:
            duration = 1
        bus_end = bus_start + duration
        bus._next_free = bus_end
        bus.last_address = address
        data_end = data_start + burst
        return data_end if data_end > bus_end else bus_end

    def access_times(
        self, cycle: int, bank: int, nbytes: int, is_write: bool, address: int = 0
    ) -> tuple:
        """:meth:`access` as ``(start, data_ready, bank_free)``: when the
        bank activated, when the data is at the vault interface, and when
        the bank can activate again."""
        data_ready = self.access(cycle, bank, nbytes, is_write, address)
        dram = self.banks[bank]
        bank_free = dram._resource._next_free
        return bank_free - dram._steps[is_write][nbytes][2], data_ready, bank_free
