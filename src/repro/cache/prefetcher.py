"""Hardware prefetchers: stride (L1) and stream (L2), per Table I.

Prefetchers observe the demand stream at their cache level and return
line addresses to fetch ahead.  Their aggressiveness (``degree``) sets the
x86 baseline's achievable streaming bandwidth — the key calibration knob
for the paper's x86 scan throughput (see DESIGN.md §4).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List

#: shared empty result: most observations issue nothing, and the hot
#: path should not allocate a fresh list to say so
_NO_PREFETCHES: tuple = ()


class Prefetcher:
    """Interface: observe one demand access, propose prefetch addresses."""

    def observe(self, pc: int, line_address: int, was_miss: bool) -> List[int]:
        """React to a demand access; return line addresses to prefetch."""
        raise NotImplementedError


class NullPrefetcher(Prefetcher):
    """No prefetching."""

    def observe(self, pc: int, line_address: int, was_miss: bool) -> List[int]:
        return []


class StridePrefetcher(Prefetcher):
    """Classic PC-indexed stride detector (Table I: L1 "Stride prefetch").

    A table entry per load PC tracks the last address and stride; after
    two consistent strides the prefetcher issues ``degree`` lines ahead
    along the detected stride on every further access.
    """

    def __init__(self, line_bytes: int, degree: int = 2, table_entries: int = 64) -> None:
        self.line_bytes = line_bytes
        self.degree = degree
        self.table_entries = table_entries
        # pc -> (last_line, stride_lines, confidence)
        self._table: "OrderedDict[int, tuple]" = OrderedDict()

    def observe(self, pc: int, line_address: int, was_miss: bool):
        table = self._table
        entry = table.pop(pc, None)
        if entry is None:
            table[pc] = (line_address, 0, 0)
            if len(table) > self.table_entries:
                self._trim()
            return _NO_PREFETCHES
        last_line, stride, confidence = entry
        new_stride = line_address - last_line
        if new_stride == stride and new_stride != 0:
            if confidence < 3:
                confidence += 1
        elif new_stride != 0:
            stride, confidence = new_stride, 1
        else:
            # Same line again: keep state, no new information.
            table[pc] = (line_address, stride, confidence)
            return _NO_PREFETCHES
        table[pc] = (line_address, stride, confidence)
        if confidence < 2:
            return _NO_PREFETCHES
        return [line_address + i * stride for i in range(1, self.degree + 1)]

    def _trim(self) -> None:
        while len(self._table) > self.table_entries:
            self._table.popitem(last=False)


class StreamPrefetcher(Prefetcher):
    """Region-based sequential stream detector (Table I: L2 "Stream prefetch").

    Tracks up to ``streams`` active regions; two misses to adjacent lines
    in a region train a stream, after which each access advances the
    stream head by ``degree`` lines.
    """

    REGION_LINES = 64  # 4 KB regions with 64 B lines

    def __init__(self, line_bytes: int, degree: int = 4, streams: int = 16) -> None:
        self.line_bytes = line_bytes
        self.degree = degree
        self.max_streams = streams
        # region -> (last_line, direction, trained, head)
        self._streams: "OrderedDict[int, tuple]" = OrderedDict()

    def _region(self, line_address: int) -> int:
        return line_address // (self.REGION_LINES * self.line_bytes)

    def observe(self, pc: int, line_address: int, was_miss: bool) -> List[int]:
        region = self._region(line_address)
        entry = self._streams.pop(region, None)
        prefetches: List[int] = []
        if entry is None:
            self._streams[region] = (line_address, 0, False, line_address)
        else:
            last_line, direction, trained, head = entry
            delta = line_address - last_line
            step = self.line_bytes
            if not trained:
                if delta == step or delta == -step:
                    direction = 1 if delta > 0 else -1
                    trained = True
                    head = line_address
                self._streams[region] = (line_address, direction, trained, head)
            if trained and delta != 0:
                # Advance the head to stay `degree` lines past the demand.
                target = line_address + direction * self.degree * step
                candidate = line_address + direction * step
                if direction > 0:
                    next_head = head if head > candidate else candidate
                else:
                    next_head = head if head < candidate else candidate
                while (direction > 0 and next_head <= target) or (
                    direction < 0 and next_head >= target
                ):
                    prefetches.append(next_head)
                    next_head += direction * step
                self._streams[region] = (line_address, direction, trained, next_head)
            elif trained:
                self._streams[region] = (line_address, direction, trained, head)
        while len(self._streams) > self.max_streams:
            self._streams.popitem(last=False)
        return prefetches


def make_prefetcher(kind: str, line_bytes: int, degree: int) -> Prefetcher:
    """Factory used by the cache level: "none" | "stride" | "stream"."""
    kind = kind.lower()
    if kind == "none":
        return NullPrefetcher()
    if kind == "stride":
        return StridePrefetcher(line_bytes, degree=degree)
    if kind == "stream":
        return StreamPrefetcher(line_bytes, degree=degree)
    raise ValueError(f"unknown prefetcher kind {kind!r}")
