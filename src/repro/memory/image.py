"""Functional memory image: the byte-addressable contents of the cube.

Timing and function are split in this simulator: caches and DRAM model
*when* data moves, while the :class:`MemoryImage` holds *what* the data
is.  The database tables, bitmask buffers and materialisation areas are
allocated here; the PIM engines (HMC ISA units, HIVE, HIPE) compute on
these real bytes so that every architecture's query result can be checked
bit-for-bit against the numpy reference.

A pass-boundary checkpoint pickles the image, and pickles only what a
resume cannot rebuild.  The tables are *frozen* once filled (read-only,
checksummed): the pickle carries each frozen region as a
:class:`RegionRef`, and :meth:`MemoryImage.rebind` re-attaches it from
the image of a machine rebuilt from the same data.  Writable regions
(masks, materialisation, aggregates) travel as their non-zero
:data:`PAGE_BYTES` pages only.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..common.units import align_up

#: granularity of a writable region's snapshot: all-zero pages are omitted
PAGE_BYTES = 4096


@dataclass
class Allocation:
    """A named contiguous region of the physical address space."""

    name: str
    base: int
    data: np.ndarray  # uint8 view of the region
    _checksum: Optional[str] = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def end(self) -> int:
        return self.base + self.size

    def freeze(self) -> None:
        """Make a filled region read-only; snapshots then reference it."""
        self.data.flags.writeable = False

    @property
    def frozen(self) -> bool:
        return not self.data.flags.writeable

    @property
    def checksum(self) -> str:
        """SHA-256 of a frozen region, taken once (its bytes never change)."""
        if self._checksum is None:
            self._checksum = hashlib.sha256(self.data).hexdigest()
        return self._checksum


@dataclass(frozen=True)
class RegionRef:
    """A frozen region as a snapshot carries it: identity, not bytes."""

    name: str
    base: int
    size: int
    checksum: str


def _written_pages(data: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Indices and bytes of the non-zero pages of a writable region.

    A short last page is zero-padded to a whole one.
    """
    whole = data.size // PAGE_BYTES
    pages = data[: whole * PAGE_BYTES].reshape(whole, PAGE_BYTES)
    index = np.flatnonzero(pages.view(np.uint64).any(axis=1))
    content = pages[index]
    tail = data[whole * PAGE_BYTES:]
    if tail.any():
        index = np.append(index, whole)
        padded = np.pad(tail, (0, PAGE_BYTES - tail.size))
        content = np.concatenate([content, padded[None]])
    return index, content


def _from_pages(size: int, index: np.ndarray, content: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_written_pages`: a zeroed region with its pages."""
    pages = -(-size // PAGE_BYTES)
    data = np.zeros(pages * PAGE_BYTES, dtype=np.uint8)
    data.reshape(pages, PAGE_BYTES)[index] = content
    return data[:size]


class MemoryImage:
    """Sparse physical memory built from named allocations."""

    def __init__(self, capacity: int, alignment: int = 256) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.alignment = alignment
        self._allocs: List[Allocation] = []  # sorted by base
        self._bases: List[int] = []
        self._by_name: Dict[str, Allocation] = {}
        self._cursor = alignment  # never hand out address 0
        #: frozen regions of an unpickled snapshot, awaiting :meth:`rebind`
        self._unbound: List[RegionRef] = []

    def allocate(self, name: str, size: int) -> Allocation:
        """Reserve ``size`` zeroed bytes; returns the allocation."""
        base = self._reserve(name, size)
        return self._insert(Allocation(name, base, np.zeros(size, dtype=np.uint8)))

    def allocate_array(self, name: str, array: np.ndarray) -> Allocation:
        """Allocate a writable region initialised with ``array``'s bytes."""
        raw = np.ascontiguousarray(array).view(np.uint8).reshape(-1)
        alloc = self.allocate(name, raw.size)
        alloc.data[:] = raw
        return alloc

    def map_array(self, name: str, array: np.ndarray) -> Allocation:
        """Allocate a frozen region that is a read-only view of ``array``.

        It lands where :meth:`allocate_array` would put it; only the copy
        is gone (a contiguous ``array`` is not copied).
        """
        raw = np.ascontiguousarray(array).view(np.uint8).reshape(-1)
        alloc = self._insert(Allocation(name, self._reserve(name, raw.size), raw))
        alloc.freeze()
        return alloc

    def _reserve(self, name: str, size: int) -> int:
        """The base address of a new ``size``-byte region called ``name``."""
        if name in self._by_name:
            raise ValueError(f"allocation {name!r} already exists")
        if size <= 0:
            raise ValueError("size must be positive")
        base = align_up(self._cursor, self.alignment)
        end = base + size
        if end > self.capacity:
            raise MemoryError(
                f"image capacity exhausted: {name!r} needs {size} B at {base:#x}"
            )
        self._cursor = align_up(end, self.alignment)
        return base

    def _insert(self, alloc: Allocation) -> Allocation:
        index = bisect.bisect_left(self._bases, alloc.base)
        self._allocs.insert(index, alloc)
        self._bases.insert(index, alloc.base)
        self._by_name[alloc.name] = alloc
        return alloc

    def region(self, name: str) -> Allocation:
        """Look an allocation up by name."""
        return self._by_name[name]

    def _find(self, address: int, nbytes: int) -> Allocation:
        index = bisect.bisect_right(self._bases, address) - 1
        if index >= 0:
            alloc = self._allocs[index]
            if address >= alloc.base and address + nbytes <= alloc.end:
                return alloc
        raise KeyError(
            f"range [{address:#x}, {address + nbytes:#x}) not inside any allocation"
        )

    def read(self, address: int, nbytes: int) -> np.ndarray:
        """Read ``nbytes`` as a uint8 array (a copy)."""
        alloc = self._find(address, nbytes)
        off = address - alloc.base
        return alloc.data[off : off + nbytes].copy()

    def gather(self, addresses: np.ndarray, nbytes: int) -> Tuple[np.ndarray, np.ndarray]:
        """Read ``nbytes`` at each of ``addresses`` in one vectorised pass.

        Returns the ``(len(addresses), nbytes)`` uint8 rows (a copy) and
        each address's offset within its allocation.  A range outside
        every allocation raises ``KeyError``, as :meth:`read` does.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        bases = np.asarray(self._bases, dtype=np.int64)
        index = np.searchsorted(bases, addresses, side="right") - 1
        inside = index >= 0
        if inside.all():
            ends = np.asarray([a.end for a in self._allocs], dtype=np.int64)
            inside = addresses + nbytes <= ends[index]
        if not inside.all():
            address = int(addresses[np.argmin(inside)])
            raise KeyError(
                f"range [{address:#x}, {address + nbytes:#x}) not inside any allocation"
            )
        offsets = addresses - bases[index]
        regions = np.unique(index)
        if regions.size == 1:
            windows = sliding_window_view(self._allocs[regions[0]].data, nbytes)
            return windows[offsets], offsets
        rows = np.empty((addresses.size, nbytes), dtype=np.uint8)
        for region in regions:
            chosen = index == region
            windows = sliding_window_view(self._allocs[region].data, nbytes)
            rows[chosen] = windows[offsets[chosen]]
        return rows, offsets

    def write(self, address: int, data: np.ndarray) -> None:
        """Write a uint8 array at ``address``."""
        raw = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        alloc = self._find(address, raw.size)
        off = address - alloc.base
        alloc.data[off : off + raw.size] = raw

    def view(self, name: str, dtype) -> np.ndarray:
        """A typed live view of a whole named allocation."""
        return self._by_name[name].data.view(dtype)

    # -- snapshots ----------------------------------------------------------

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_bases"], state["_by_name"]
        state["_allocs"] = [
            RegionRef(a.name, a.base, a.size, a.checksum) if a.frozen
            else (a.name, a.base, a.size) + _written_pages(a.data)
            for a in self._allocs
        ]
        return state

    def __setstate__(self, state) -> None:
        entries = state.pop("_allocs")
        self.__dict__.update(state)
        self._allocs, self._bases, self._by_name = [], [], {}
        for entry in entries:
            if isinstance(entry, RegionRef):
                self._unbound.append(entry)
            else:
                name, base, size, index, content = entry
                self._insert(Allocation(name, base,
                                        _from_pages(size, index, content)))

    def rebind(self, source: "MemoryImage") -> None:
        """Re-attach a snapshot's frozen regions from ``source``.

        ``source`` is the image of a machine rebuilt from the same data;
        each referenced region must match it in base, size and checksum,
        or a ``ValueError`` leaves this image unbound.
        """
        for ref in self._unbound:
            alloc = source._by_name.get(ref.name)
            if alloc is None or not alloc.frozen:
                raise ValueError(f"no frozen region {ref.name!r} to rebind")
            if (alloc.base, alloc.size, alloc.checksum) != (
                    ref.base, ref.size, ref.checksum):
                raise ValueError(f"region {ref.name!r} differs from the snapshot")
        for ref in self._unbound:
            self._insert(source._by_name[ref.name])
        self._unbound = []
