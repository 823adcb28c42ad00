"""Closed-page DRAM bank timing.

Table I: DRAM @ 166 MHz with CAS, RP, RCD, RAS, CWD = 9, 9, 9, 24, 7 DRAM
cycles and a closed-page policy — every access pays a full
activate/access/precharge sequence, and the bank is unavailable for the
row-cycle time.  The 256 B row buffer means any aligned access of up to
256 B is serviced by exactly one activation; that amortisation with
operation size is the first-order effect behind Figure 3a/3b of the
paper (HMC-16B loses to x86, HMC-256B wins).

All returned times are in core cycles; the DRAM-domain timings are
converted once at construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.config import HmcConfig
from ..common.resources import BusyResource
from ..common.units import CORE_CLOCK, ClockDomain, MEGA, ceil_div


@dataclass(frozen=True)
class DramTimings:
    """Table I timings converted to core cycles."""

    t_cas: int
    t_rp: int
    t_rcd: int
    t_ras: int
    t_cwd: int

    @classmethod
    def from_config(cls, config: HmcConfig) -> "DramTimings":
        if config.timing_domain == "bus":
            # Timing counts at the data-bus clock (core freq / ratio).
            frequency = CORE_CLOCK.frequency_hz / config.core_to_bus_ratio
        elif config.timing_domain == "array":
            frequency = config.dram_frequency_mhz * MEGA
        else:
            raise ValueError(f"unknown timing domain {config.timing_domain!r}")
        dram_clock = ClockDomain("dram-timing", frequency)

        def cc(dram_cycles: int) -> int:
            return dram_clock.to_cycles_of(dram_cycles, CORE_CLOCK)

        return cls(
            t_cas=cc(config.t_cas),
            t_rp=cc(config.t_rp),
            t_rcd=cc(config.t_rcd),
            t_ras=cc(config.t_ras),
            t_cwd=cc(config.t_cwd),
        )

    @property
    def row_cycle(self) -> int:
        """Minimum spacing between activations of the same bank (tRC)."""
        return self.t_ras + self.t_rp


class DramBank:
    """One DRAM bank under the closed-page policy.

    The bank is a :class:`BusyResource` held for the row-cycle time per
    access; data transfer time is charged by the caller (the vault owns
    the shared data bus).  Counters: activations, reads, writes.
    """

    def __init__(self, timings: DramTimings, burst_core_cycles_per_byte: float) -> None:
        self.timings = timings
        self._burst_cpb = burst_core_cycles_per_byte
        self._burst_cache: dict = {}
        self._resource = BusyResource()
        self.activations = 0
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0

    def transfer_cycles(self, nbytes: int) -> int:
        """Core cycles the data bus needs for ``nbytes`` of this bank."""
        cycles = self._burst_cache.get(nbytes)
        if cycles is None:
            cycles = max(1, ceil_div(int(nbytes * self._burst_cpb * 1000), 1000))
            self._burst_cache[nbytes] = cycles
        return cycles

    def access_times(
        self, cycle: int, nbytes: int, is_write: bool, address: int = 0
    ) -> tuple:
        """Activate, access ``nbytes`` of one row, precharge.

        ``cycle`` is when the command could first be issued; the result
        accounts for the bank still being busy from a prior access.
        ``address`` tags the bank for replay relabelling.  Returns
        ``(start, data_start, data_end, bank_free)``: when the activate
        was accepted, the first and last data beats on the bus (the last
        is the completion of a read), and when the bank can activate
        again.
        """
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        t = self.timings
        burst = self.transfer_cycles(nbytes)
        # Column command after tRCD; data after CAS (read) or CWD (write).
        column_delay = t.t_cwd if is_write else t.t_cas
        access_latency = t.t_rcd + column_delay + burst
        # Closed page: the bank is tied up for the larger of the access
        # itself and the row-cycle time (tRAS + tRP).
        hold = access_latency if access_latency > t.row_cycle else t.row_cycle
        resource = self._resource
        start = resource._next_free
        if cycle > start:
            start = cycle
        bank_free = start + hold
        resource._next_free = bank_free
        resource.busy_cycles += hold
        resource.last_address = address
        data_start = start + t.t_rcd + column_delay
        data_end = data_start + burst
        self.activations += 1
        if is_write:
            self.writes += 1
            self.bytes_written += nbytes
        else:
            self.reads += 1
            self.bytes_read += nbytes
        return start, data_start, data_end, bank_free
