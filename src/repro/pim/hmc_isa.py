"""The extended HMC ISA backend (the paper's second baseline).

HMC 2.1 natively supports only 16 B read-operate/read-modify-write
"update" instructions.  Following the paper (§IV "HMC baseline"), this
backend extends them with (a) operation sizes up to the 256 B row buffer
and (b) a non-destructive *load-compare* that evaluates a predicate over
the addressed lanes at the vault's functional unit and returns the match
bitmask to the core — unlike native compare-and-swap, the original data
survive.

Each instruction is one request packet over the links, a vault-local DRAM
access + functional-unit operation, and one response packet carrying the
bitmask (or a status for updates).  The backend is also *functional*: it
computes the real bitmask from the memory image so integration tests can
check query results across architectures.

The masks are evaluated in bulk.  A load-compare's timing does not depend
on its mask, so submission only logs the operation; the log is evaluated
in vectorised slices (see :func:`~repro.pim.ops.loadcmp_bits`) when it
fills a slice, when the masks are read, and before an update writes the
memory image — the only write to the image on an HMC machine.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..common.stats import StatGroup
from ..cpu.core import PimBackend
from ..cpu.isa import PimOp
from ..memory.hmc import Hmc
from ..memory.image import MemoryImage
from ..common.units import ceil_div
from .ops import apply_alu, loadcmp_bits

#: load-compares evaluated per vectorised slice: bounds the gathered
#: bytes (4 096 ops x 256 B = 1 MiB) and the pending log
MASK_SLICE_OPS = 4096


class HmcIsaBackend(PimBackend):
    """Core-side interface for extended HMC update instructions."""

    def __init__(
        self,
        hmc: Hmc,
        image: MemoryImage,
        stats: Optional[StatGroup] = None,
        max_outstanding: int = 4,
    ) -> None:
        self.hmc = hmc
        self.image = image
        self.stats = stats if stats is not None else StatGroup("hmc_isa")
        self.max_outstanding = max_outstanding
        #: logged, not yet evaluated load-compares: each address is copied
        #: at submit (the compiled kernels reuse one instruction object
        #: per body step and overwrite its address)
        self._pending_addrs: List[int] = []
        self._pending_insts: List = []
        #: evaluated masks in program order: packed bytes and the byte
        #: count of each op's mask (see :meth:`mask_table`)
        self._mask_bytes: List[np.ndarray] = []
        self._mask_widths: List[np.ndarray] = []
        self.stats.batch(self, (
            ("_n_loadcmp_ops", "loadcmp_ops"),
            ("_n_loadcmp_bytes", "loadcmp_bytes"),
        ))

    def submit_inst(self, inst, cycle: int) -> tuple:
        """Execute one extended HMC instruction; returns (completion, release).

        The controller window entry is held for the whole round trip —
        HMC ISA instructions always return a response the window waits
        for — so release equals completion.
        """
        if inst.op == PimOp.HMC_LOADCMP:
            lanes = inst.size // inst.lane_bytes
            mask_bytes = ceil_div(lanes, 8)
            completion = self.hmc.pim_update_times(
                cycle,
                inst.address,
                inst.size,
                response_payload_bytes=mask_bytes,
                writes_back=False,
            )[1]
            self._pending_addrs.append(inst.address)
            self._pending_insts.append(inst)
            if len(self._pending_addrs) >= MASK_SLICE_OPS:
                self._evaluate_pending()
            self._n_loadcmp_ops += 1
            self._n_loadcmp_bytes += inst.size
            return completion, completion
        if inst.op == PimOp.HMC_UPDATE:
            completion = self.hmc.pim_update_times(
                cycle,
                inst.address,
                inst.size,
                response_payload_bytes=0,
                writes_back=True,
            )[1]
            self._apply_update(inst)
            self.stats.bump("update_ops")
            return completion, completion
        raise ValueError(f"HMC ISA cannot execute {inst.op!r}")

    def log_loadcmps(self, addresses: np.ndarray, inst) -> None:
        """Log load-compares of ``inst``'s shape at ``addresses`` without
        timing them: the functional side of iterations the replay layer
        fast-forwards.  Their masks are read from the memory image like
        those of simulated ops."""
        self._pending_addrs.extend(np.asarray(addresses, dtype=np.int64).tolist())
        self._pending_insts.extend([inst] * len(addresses))
        if len(self._pending_addrs) >= MASK_SLICE_OPS:
            self._evaluate_pending()

    def mask_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every load-compare's mask, in program order.

        Returns the packed mask bytes of all ops back to back and the
        byte count of each op's mask.  The returned bytes are the stored
        masks themselves, not a copy.
        """
        self._evaluate_pending()
        if len(self._mask_bytes) != 1:
            self._mask_bytes = [np.concatenate(self._mask_bytes)
                                if self._mask_bytes else np.zeros(0, np.uint8)]
            self._mask_widths = [np.concatenate(self._mask_widths)
                                 if self._mask_widths else np.zeros(0, np.uint16)]
        return self._mask_bytes[0], self._mask_widths[0]

    @property
    def computed_masks(self) -> List[np.ndarray]:
        """:meth:`mask_table` split into one byte array per op."""
        flat, widths = self.mask_table()
        return np.split(flat, np.cumsum(widths, dtype=np.int64)[:-1])

    def _evaluate_pending(self) -> None:
        """Evaluate the logged load-compares, one slice at a time.

        A slice is a run of consecutive ops of one instruction shape,
        at most :data:`MASK_SLICE_OPS` long.
        """
        insts = self._pending_insts
        if not insts:
            return
        addresses = np.asarray(self._pending_addrs, dtype=np.int64)
        self._pending_addrs, self._pending_insts = [], []
        shapes: dict = {}

        def shape_of(inst):
            shape = shapes.get(id(inst))
            if shape is None:
                shape = shapes[id(inst)] = (
                    inst.size, inst.lane_bytes, inst.func, inst.imm_lo,
                    inst.imm_hi, inst.compound, inst.tuple_stride)
            return shape

        start = 0
        while start < len(insts):
            inst = insts[start]
            shape = shape_of(inst)
            stop = start + 1
            limit = min(len(insts), start + MASK_SLICE_OPS)
            while stop < limit and (insts[stop] is inst
                                    or shape_of(insts[stop]) == shape):
                stop += 1
            raw, offsets = self.image.gather(addresses[start:stop], inst.size)
            bits = loadcmp_bits(raw, inst, offsets)
            self._mask_bytes.append(bits.reshape(-1))
            self._mask_widths.append(
                np.full(stop - start, bits.shape[1], dtype=np.uint16))
            start = stop

    def _apply_update(self, inst) -> None:
        # Logged load-compares read the image as it was when they issued.
        self._evaluate_pending()
        raw = self.image.read(inst.address, inst.size)
        lanes = raw.view({1: np.int8, 2: np.int16, 4: np.int32, 8: np.int64}[inst.lane_bytes])
        result = apply_alu(inst.func, lanes, imm_lo=inst.imm_lo, imm_hi=inst.imm_hi)
        self.image.write(inst.address, result.view(np.uint8))

    def __getstate__(self):
        # A snapshot carries the masks as two flat arrays and no log.
        self.mask_table()
        return self.__dict__.copy()
