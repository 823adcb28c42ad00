"""Storage layouts: NSM (row-store) and DSM (column-store).

Paper §II-B / Figure 1: the N-ary Storage Model keeps whole tuples
contiguous (here 64 B per tuple — "each tuple occupies 64-bytes, which is
equal to the cache line size", §IV), while the Decomposition Storage
Model stores each attribute contiguously.  Both layouts place their bytes
in the machine's :class:`~repro.memory.image.MemoryImage`, so every
architecture scans the *same physical data*.

A scan only reads its table, so both layouts freeze their regions once
filled: they become read-only, and checkpoints reference them instead of
copying them.  A DSM column region is a view of the column array itself
(in a service worker, of the attached shared-memory dataset).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..memory.image import MemoryImage
from .datagen import LineitemData, Q6_COLUMNS  # noqa: F401  (re-export)

TUPLE_BYTES = 64
COLUMN_VALUE_BYTES = 4


@dataclass(frozen=True)
class ColumnRef:
    """Where one column lives: base address and per-row stride."""

    name: str
    base: int
    stride: int
    value_bytes: int = COLUMN_VALUE_BYTES

    def address_of(self, row: int) -> int:
        """Physical address of this column's value in ``row``."""
        return self.base + row * self.stride


class NsmTable:
    """Row-store: 64 B tuples with the table's columns at fixed offsets."""

    def __init__(self, image: MemoryImage, data: LineitemData, name: str = "lineitem_nsm") -> None:
        self.rows = data.rows
        self.name = name
        self.tuple_bytes = TUPLE_BYTES
        columns = data.column_names()
        if len(columns) * COLUMN_VALUE_BYTES > TUPLE_BYTES:
            raise ValueError(
                f"{len(columns)} columns exceed the {TUPLE_BYTES} B tuple"
            )
        alloc = image.allocate(name, data.rows * TUPLE_BYTES)
        self.base = alloc.base
        # Interleave the column values into the head of each tuple; the
        # remaining bytes model the table's other (unscanned) attributes.
        view = alloc.data.view(np.int32).reshape(data.rows, TUPLE_BYTES // 4)
        self.column_offsets: Dict[str, int] = {}
        for i, column in enumerate(columns):
            view[:, i] = data[column]
            self.column_offsets[column] = i * COLUMN_VALUE_BYTES
        alloc.freeze()
        self.columns = {
            column: ColumnRef(
                column, self.base + self.column_offsets[column], TUPLE_BYTES
            )
            for column in columns
        }

    def tuple_address(self, row: int) -> int:
        """Physical address of the start of ``row``'s tuple."""
        return self.base + row * TUPLE_BYTES

    @property
    def size_bytes(self) -> int:
        """Total table footprint."""
        return self.rows * TUPLE_BYTES


class DsmTable:
    """Column-store: each attribute in its own contiguous array."""

    def __init__(self, image: MemoryImage, data: LineitemData, name: str = "lineitem_dsm") -> None:
        self.rows = data.rows
        self.name = name
        self.columns: Dict[str, ColumnRef] = {}
        for column in data.column_names():
            alloc = image.map_array(f"{name}.{column}",
                                    np.asarray(data[column], dtype=np.int32))
            self.columns[column] = ColumnRef(column, alloc.base, COLUMN_VALUE_BYTES)

    def column(self, name: str) -> ColumnRef:
        """Reference to one column array."""
        return self.columns[name]

    @property
    def size_bytes(self) -> int:
        """Total footprint of all column arrays."""
        return self.rows * COLUMN_VALUE_BYTES * len(self.columns)


@dataclass
class ScanBuffers:
    """Output areas of a select scan: match bitmask and materialisation buffer.

    The mask is stored **bit-packed, one bit per tuple, LSB-first** — the
    paper's representation ("a bitmask with 1 for match and 0 for no
    match").  x86 writes it through the caches (AVX-512 k-mask stores);
    the PIM engines accumulate a whole block's chunk masks in a register
    (PACK_MASK) and write them with one row-buffer-sized DRAM access.
    """

    bitmask_base: int
    bitmask_bytes: int
    materialize_base: int
    materialize_bytes: int
    scratch_base: int = 0  # operator/iterator state (stays cache-hot)
    aggregate_base: int = 0  # per-(group, agg) partial-sum slots
    aggregate_slots: int = 0

    #: bytes per aggregate slot — one engine register (64 int32 lanes),
    #: so a whole slot travels in a single row-buffer-sized access
    AGGREGATE_SLOT_BYTES = 256

    def mask_address(self, row: int) -> int:
        """Address of the mask byte containing ``row``'s bit."""
        return self.bitmask_base + row // 8

    def mask_bytes_for(self, rows: int) -> int:
        """Mask footprint of ``rows`` tuples (at least one byte)."""
        return max(1, (rows + 7) // 8)

    def aggregate_address(self, slot: int) -> int:
        """Address of one (group, aggregate) partial-sum slot."""
        if not 0 <= slot < self.aggregate_slots:
            raise ValueError(f"aggregate slot {slot} outside the buffer")
        return self.aggregate_base + slot * self.AGGREGATE_SLOT_BYTES


#: aggregate slots reserved per scan — bounds groups x aggregates (the
#: IR targets low-cardinality group-bys; 64 slots = e.g. 16 groups x 4)
AGGREGATE_SLOTS = 64


def allocate_scan_buffers(
    image: MemoryImage, rows: int, name: str = "scan", tuple_bytes: int = TUPLE_BYTES
) -> ScanBuffers:
    """Reserve the bitmask, materialisation and aggregate regions of a scan."""
    mask_bytes = max(1, (rows + 7) // 8)
    # Round the mask region up to whole 256 B blocks so block-granular
    # PIM mask stores of the last (partial) block stay in bounds.
    mask_alloc = image.allocate(f"{name}.bitmask", (mask_bytes + 255) // 256 * 256 + 256)
    mat_bytes = rows * tuple_bytes  # worst case: everything matches
    mat_alloc = image.allocate(f"{name}.materialized", mat_bytes)
    scratch_alloc = image.allocate(f"{name}.scratch", 256)
    # Allocated last: pre-IR scans never touched this region, so every
    # earlier buffer keeps its historical address (byte-identical traces).
    agg_alloc = image.allocate(
        f"{name}.aggregates", AGGREGATE_SLOTS * ScanBuffers.AGGREGATE_SLOT_BYTES
    )
    return ScanBuffers(
        bitmask_base=mask_alloc.base,
        bitmask_bytes=mask_bytes,
        materialize_base=mat_alloc.base,
        materialize_bytes=mat_bytes,
        scratch_base=scratch_alloc.base,
        aggregate_base=agg_alloc.base,
        aggregate_slots=AGGREGATE_SLOTS,
    )
