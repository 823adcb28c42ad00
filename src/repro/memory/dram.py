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
    the shared data bus).  Counters: activations, bytes read and bytes
    written, which the cube sums into its row-activation and DRAM-byte
    totals (:attr:`~repro.memory.hmc.Hmc.totals`).
    """

    def __init__(self, timings: DramTimings, burst_core_cycles_per_byte: float) -> None:
        self.timings = timings
        self._burst_cpb = burst_core_cycles_per_byte
        #: per access size, a read's and a write's cycles (:meth:`steps`)
        self._steps: tuple = ({}, {})
        self._resource = BusyResource()
        self.activations = 0
        self.bytes_read = 0
        self.bytes_written = 0

    def transfer_cycles(self, nbytes: int) -> int:
        """Core cycles the data bus needs for ``nbytes`` of this bank."""
        return max(1, ceil_div(int(nbytes * self._burst_cpb * 1000), 1000))

    def steps(self, nbytes: int, is_write: bool) -> tuple:
        """``(data delay, burst, hold)`` of an access of ``nbytes``.

        The data starts ``data delay`` cycles after the activation: the
        column command after tRCD, the data after CAS (read) or CWD
        (write).  It takes ``burst`` cycles, and under the closed-page
        policy the bank is tied up for ``hold`` cycles, the larger of
        the access itself and the row-cycle time (tRAS + tRP).  Each
        size is worked out once.
        """
        steps = self._steps[is_write].get(nbytes)
        if steps is None:
            if nbytes <= 0:
                raise ValueError("nbytes must be positive")
            t = self.timings
            delay = t.t_rcd + (t.t_cwd if is_write else t.t_cas)
            burst = self.transfer_cycles(nbytes)
            steps = (delay, burst, max(delay + burst, t.row_cycle))
            self._steps[is_write][nbytes] = steps
        return steps

    def access(self, cycle: int, nbytes: int, is_write: bool, address: int = 0) -> int:
        """Activate, access ``nbytes`` of one row, precharge.

        ``cycle`` is when the command could first be issued; the result
        accounts for the bank still being busy from a prior access.
        ``address`` tags the bank for replay relabelling.  Returns when
        the activate was accepted; the access's other times follow from
        it by :meth:`steps`.
        """
        steps = self._steps[is_write].get(nbytes)
        if steps is None:
            steps = self.steps(nbytes, is_write)
        resource = self._resource
        start = resource._next_free
        if cycle > start:
            start = cycle
        resource._next_free = start + steps[2]
        resource.last_address = address
        self.activations += 1
        if is_write:
            self.bytes_written += nbytes
        else:
            self.bytes_read += nbytes
        return start

    def access_times(
        self, cycle: int, nbytes: int, is_write: bool, address: int = 0
    ) -> tuple:
        """:meth:`access` as ``(start, data_start, data_end, bank_free)``:
        when the activate was accepted, the first and last data beats on
        the bus (the last is the completion of a read), and when the bank
        can activate again."""
        start = self.access(cycle, nbytes, is_write, address)
        delay, burst, hold = self._steps[is_write][nbytes]
        return start, start + delay, start + delay + burst, start + hold
