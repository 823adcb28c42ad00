"""The Hybrid Memory Cube: vaults + links + PIM entry points.

This is the single memory device of every evaluated system.  Three kinds
of traffic reach it:

* **Cache-line fills/writebacks** from the processor's cache hierarchy —
  cross the serial links, get routed to a vault, pay the closed-page DRAM
  timing (:meth:`Hmc.read_line_times` / :meth:`Hmc.write_line_times`).
* **HMC ISA instructions** (the extended-update baseline) — a 16 B request
  packet carries the operation; a vault-local functional unit performs the
  read(-modify-write) and a response packet carries back the (small)
  result, e.g. a comparison bitmask (:meth:`Hmc.pim_update_times`).
* **Logic-layer accesses** from the HIVE/HIPE engine, which sits *inside*
  the cube and therefore reaches the vaults without link traversal
  (:meth:`Hmc.vault_access`).

Timing only — the data itself lives in a :class:`~repro.memory.image.MemoryImage`.
"""

from __future__ import annotations

from ..common.config import HmcConfig
from ..common.stats import StatGroup
from .address_mapping import AddressMapping
from .links import HmcLinks
from .vault import Vault


class Hmc:
    """The cube: 32 vaults, 8 banks each, 4 links (Table I, HMC v2.1)."""

    def __init__(self, config: HmcConfig, stats: StatGroup | None = None) -> None:
        self.config = config
        self.mapping = AddressMapping(config)
        self.vaults = [Vault(v, config) for v in range(config.num_vaults)]
        self.links = HmcLinks(config)
        # Decode fields copied out of the mapping: the single-block fast
        # path below decodes inline instead of building DecodedAddress
        # objects per access.
        self._offset_mask = self.mapping._offset_mask
        self._offset_bits = self.mapping._offset_bits
        self._vault_mask = self.mapping._vault_mask
        self._vault_bits = self.mapping._vault_bits
        self._bank_mask = self.mapping._bank_mask
        self.stats = stats if stats is not None else StatGroup("hmc")
        self.stats.batch(self, (
            ("_n_vault_accesses", "vault_accesses"),
            ("_n_vault_bytes_read", "vault_bytes_read"),
            ("_n_vault_bytes_written", "vault_bytes_written"),
            ("_n_line_reads", "line_reads"),
            ("_n_line_writes", "line_writes"),
            ("_n_pim_updates", "pim_updates"),
        ))
        banks = [bank for vault in self.vaults for bank in vault.banks]
        links = self.links
        #: the cube totals, each ``(counter, members, attribute)``: the
        #: sum of ``attribute`` over ``members``.  collect_stats sets
        #: them (so they are present even at zero), and the replay layer
        #: extrapolates the same sums.
        self.totals = (
            ("row_activations", banks, "activations"),
            ("dram_bytes_read", banks, "bytes_read"),
            ("dram_bytes_written", banks, "bytes_written"),
            ("link_request_bytes", links._request_lanes.channels, "bytes_moved"),
            ("link_response_bytes", links._response_lanes.channels, "bytes_moved"),
            ("link_request_packets", [links], "request_packets"),
            ("link_response_packets", [links], "response_packets"),
            ("vault_fu_ops", self.vaults, "fu_ops"),
        )

    # -- vault-side primitives (no link crossing) --------------------------

    def vault_access(self, cycle: int, address: int, nbytes: int, is_write: bool) -> int:
        """Access DRAM from inside the cube; returns data-ready cycle.

        Accesses larger than one row-buffer block are split across the
        interleaved vaults and complete when the last block completes —
        this is how a 256 B HIVE/HIPE operation exploits one full row and
        how multi-block transfers ride vault parallelism.
        """
        offset_bits = self._offset_bits
        if (address & ~self._offset_mask) == \
                ((address + nbytes - 1) & ~self._offset_mask):
            # Fast path: the access lies in one row-buffer block (every
            # cache-line fill and every <=256 B PIM operand), so it lands
            # in exactly one (vault, bank) — decode inline.
            rest = address >> offset_bits
            done = self.vaults[rest & self._vault_mask].access(
                cycle, (rest >> self._vault_bits) & self._bank_mask, nbytes,
                is_write, address)
        else:
            done = cycle
            for block_addr, block_bytes in self.mapping.blocks_of(address, nbytes):
                rest = block_addr >> offset_bits
                vault = self.vaults[rest & self._vault_mask]
                bank = (rest >> self._vault_bits) & self._bank_mask
                ready = vault.access(cycle, bank, block_bytes, is_write,
                                     block_addr)
                if ready > done:
                    done = ready
        self._n_vault_accesses += 1
        if is_write:
            self._n_vault_bytes_written += nbytes
        else:
            self._n_vault_bytes_read += nbytes
        return done

    # -- processor-side transactions ---------------------------------------

    def read_line_times(self, cycle: int, address: int, nbytes: int) -> tuple:
        """A demand fill: request packet out, DRAM read, data packet back.

        Returns ``(issue, completion)``: when the request started
        serialising and when the data reached the core.
        """
        start, __, arrival = self.links.request(cycle)
        data_ready = self.vault_access(arrival, address, nbytes, is_write=False)
        completion = self.links.response(data_ready, nbytes)[2]
        self._n_line_reads += 1
        return start, completion

    def write_line_times(self, cycle: int, address: int, nbytes: int) -> tuple:
        """A writeback: request packet carries the data; ack comes back.

        Returns ``(issue, completion)``.  Writes are posted — callers
        normally use ``issue``; the acknowledgement (``completion``)
        matters only for fence-like semantics.
        """
        start, __, arrival = self.links.request(cycle, nbytes)
        written = self.vault_access(arrival, address, nbytes, is_write=True)
        completion = self.links.response(written)[2]
        self._n_line_writes += 1
        return start, completion

    def pim_update_times(
        self,
        cycle: int,
        address: int,
        nbytes: int,
        response_payload_bytes: int,
        writes_back: bool = False,
    ) -> tuple:
        """Execute one extended HMC ISA instruction at a vault.

        Models the paper's second baseline: the instruction crosses the
        links as a 16 B packet, the addressed vault reads ``nbytes``
        (one row-buffer block at most per vault, larger ops split), the
        per-vault functional unit applies the operation (e.g. compare
        against an immediate), optionally writes the result back to DRAM
        (classic read-modify-write update), and a response packet returns
        ``response_payload_bytes`` (a status, or the comparison bitmask).
        Returns ``(issue, completion)``: when the request started
        serialising and when the response reached the core.
        """
        if nbytes > max(self.config.op_sizes):
            raise ValueError(
                f"operation size {nbytes} exceeds HMC ISA maximum "
                f"{max(self.config.op_sizes)}"
            )
        start, __, arrival = self.links.request(cycle)
        data_ready = self.vault_access(arrival, address, nbytes, is_write=False)
        vault = self.vaults[(address >> self._offset_bits) & self._vault_mask]
        fu = vault._fu
        fu_start = fu._next_free
        if data_ready > fu_start:
            fu_start = data_ready
        fu._next_free = fu_start + 1
        fu.last_address = address
        vault.fu_ops += 1
        fu_done = fu_start + self.config.vault_fu_latency
        if writes_back:
            fu_done = self.vault_access(fu_done, address, nbytes, is_write=True)
        completion = self.links.response(fu_done, response_payload_bytes)[2]
        self._n_pim_updates += 1
        return start, completion

    # -- statistics ---------------------------------------------------------

    def collect_stats(self) -> StatGroup:
        """Set every cube total (:attr:`totals`) in the stats group."""
        for counter, members, attribute in self.totals:
            self.stats.set(counter, sum(getattr(m, attribute) for m in members))
        return self.stats
