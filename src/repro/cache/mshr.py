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
    """Request/write/eviction entry pools plus the in-flight merge table."""

    def __init__(self, config: CacheConfig) -> None:
        self.requests = OccupancyResource(config.mshr_request)
        self.writes = OccupancyResource(config.mshr_write)
        self.evictions = OccupancyResource(config.mshr_eviction)
        self._in_flight: Dict[int, int] = {}  # line address -> fill completion
        self._fifo: Deque[Tuple[int, int]] = deque()  # (completion, line) log
        self._watermark = 0  # latest request time observed (prune horizon)
        self.merges = 0
        self.allocations = 0

    def lookup_in_flight(self, line_address: int, cycle: int) -> int | None:
        """Completion time of an in-flight fill of this line, if any.

        Entries whose fill already completed are pruned lazily — the
        request stream visits times in (approximately) increasing order,
        so stale entries are dead weight.
        """
        if cycle > self._watermark:
            self._watermark = cycle
        done = self._in_flight.get(line_address)
        if done is None:
            return None
        if done <= cycle:
            del self._in_flight[line_address]
            return None
        self.merges += 1
        return done

    def record_fill(self, line_address: int, completion: int) -> None:
        """Publish the fill completion so later misses can merge.

        Entries whose fill completed :data:`PRUNE_GRACE` cycles before
        the latest request time seen are dropped continuously — they can
        never merge again (any lookup at a later time discards them), so
        pruning is timing-invisible, O(1) amortised via the FIFO log,
        and keeps the table bounded (and periodic in steady state).
        """
        in_flight = self._in_flight
        current = in_flight.get(line_address, 0)
        if completion > current:
            in_flight[line_address] = completion
            self._fifo.append((completion, line_address))
        horizon = self._watermark - PRUNE_GRACE
        fifo = self._fifo
        while fifo and fifo[0][0] <= horizon:
            done, line = fifo.popleft()
            if in_flight.get(line) == done:
                del in_flight[line]

    def allocate_write(self, cycle: int, completion: int) -> int:
        """Take a write entry (store miss); returns granted cycle."""
        return self.writes.acquire(cycle, completion)

    def allocate_eviction(self, cycle: int, completion: int) -> int:
        """Take an eviction entry (dirty writeback); returns granted cycle."""
        return self.evictions.acquire(cycle, completion)
