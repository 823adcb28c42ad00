"""Miss-status holding registers.

Table I gives each level three entry pools — request, write and eviction
MSHRs.  The file tracks misses in flight so that a second miss to the
same line *merges* (waits for the first fill instead of issuing a second
memory request), and bounds the level's memory-level parallelism: when
the relevant pool is exhausted, a new miss stalls until an entry frees.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Tuple

from ..common.config import CacheConfig
from ..common.resources import OccupancyResource

#: cycles a completed fill may linger before the merge table drops it.
#: Far larger than any request-time skew the out-of-order core produces,
#: so pruned entries can never have produced a merge; small enough that
#: the table stays bounded and periodic in steady state.
PRUNE_GRACE = 4096


class MshrFile:
    """Request/write/eviction entry pools plus the in-flight merge table.

    The level's miss path (:meth:`~repro.cache.cache.CacheLevel._miss`)
    rides, publishes and prunes the merge table's entries inline.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.requests = OccupancyResource(config.mshr_request)
        self.writes = OccupancyResource(config.mshr_write)
        self.evictions = OccupancyResource(config.mshr_eviction)
        self._in_flight: Dict[int, int] = {}  # line address -> fill completion
        self._fifo: Deque[Tuple[int, int]] = deque()  # (completion, line) log
        self._watermark = 0  # latest request time observed (prune horizon)

    def allocate_write(self, cycle: int, completion: int) -> int:
        """Take a write entry (store miss); returns granted cycle."""
        return self.writes.acquire(cycle, completion)

    def allocate_eviction(self, cycle: int, completion: int) -> int:
        """Take an eviction entry (dirty writeback); returns granted cycle."""
        return self.evictions.acquire(cycle, completion)
