"""One set-associative cache level: functional tags + timing.

The cache is *functional* in its tag/replacement state (real sets, ways,
LRU stacks, dirty bits — so hit ratios are genuine) and *timed* through
the resource algebra (ports, latency, MSHR pools, downstream requests).
Data values are not stored here; the memory image holds them.

Write policy: write-back, write-allocate (store misses fetch the line).
Writebacks arriving from an upper level install the full line without a
fetch.  Prefetch requests fill the level but never recurse into the
prefetcher.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional

from ..common.config import CacheConfig
from ..common.resources import SlottedResource
from ..common.stats import StatGroup, ratio
from ..common.units import align_down
from .mshr import MshrFile, PRUNE_GRACE
from .prefetcher import make_prefetcher
from .replacement import LruPolicy, RandomPolicy, make_policy


class AccessType(enum.Enum):
    """What a request wants from the cache."""

    LOAD = "load"
    STORE = "store"
    PREFETCH = "prefetch"
    WRITEBACK = "writeback"


# Dense integer ids for list-indexed counters on the miss path (enum
# __hash__ is a Python-level call; ``acc_type.index`` is an attribute).
for _i, _member in enumerate(AccessType):
    _member.index = _i


class _Set:
    """Tags + dirty bits + replacement state of one set.

    ``tags`` aliases the policy's ordered tag container so the access
    fast path can do C-speed membership tests, and ``touch`` is the
    policy's pre-bound recency hook (None when hits don't promote —
    FIFO/random): a hit then costs two dict operations, not three
    Python-level method calls.
    """

    __slots__ = ("policy", "dirty", "tags", "touch", "pop_oldest")

    def __init__(self, policy_name: str) -> None:
        self.policy = make_policy(policy_name)
        self.dirty: dict = {}
        for container_name in ("_stack", "_queue", "_tags"):
            container = getattr(self.policy, container_name, None)
            if container is not None:
                self.tags = container
                break
        else:  # pragma: no cover - new policy flavours must declare tags
            raise TypeError(
                f"policy {policy_name!r} exposes no ordered tag container"
            )
        self.touch = (
            self.tags.move_to_end if isinstance(self.policy, LruPolicy) else None
        )
        # LRU and FIFO both victimise the oldest container entry; bind
        # the C-level popitem for them (random keeps the policy call).
        self.pop_oldest = (
            self.tags.popitem if not isinstance(self.policy, RandomPolicy)
            else None
        )


class CacheLevel:
    """A single cache level wired to a downstream memory (cache or HMC)."""

    def __init__(
        self,
        config: CacheConfig,
        next_level,
        stats: Optional[StatGroup] = None,
        policy: str = "lru",
    ) -> None:
        self.config = config
        self.next_level = next_level
        self._next_access = next_level.access
        self.line_bytes = config.line_bytes
        self.latency = config.latency
        self.num_sets = config.num_sets
        self.ways = config.ways
        self._sets = [_Set(policy) for _ in range(self.num_sets)]
        self._ports = SlottedResource(config.ports)
        self.mshr = MshrFile(config)
        self.prefetcher = make_prefetcher(
            config.prefetcher, config.line_bytes, config.prefetch_degree
        )
        self.stats = stats if stats is not None else StatGroup(config.name)
        self.stats.derive("hit_ratio", ratio("hits", "accesses"))
        self._invalidate_upstream: List[Callable[[int], None]] = []
        # Hot counters batched as ints (see StatGroup.register_flush).
        self._n_accesses = 0
        self._n_hits = 0
        self._n_misses = 0
        self._n_prefetch_hits = 0
        self._n_invalidations = 0
        self._n_evictions = 0
        self._n_writebacks = 0
        self._n_prefetches_issued = 0
        self._n_prefetches_dropped = 0
        self._n_miss_by_type = [0] * len(AccessType)
        self.stats.register_flush(self._flush_counts)

    def _flush_counts(self) -> None:
        stats = self.stats
        if self._n_accesses:
            stats.bump("accesses", self._n_accesses)
            self._n_accesses = 0
        if self._n_hits:
            stats.bump("hits", self._n_hits)
            self._n_hits = 0
        if self._n_misses:
            stats.bump("misses", self._n_misses)
            self._n_misses = 0
        if self._n_prefetch_hits:
            stats.bump("prefetch_hits", self._n_prefetch_hits)
            self._n_prefetch_hits = 0
        if self._n_invalidations:
            stats.bump("invalidations", self._n_invalidations)
            self._n_invalidations = 0
        if self._n_evictions:
            stats.bump("evictions", self._n_evictions)
            self._n_evictions = 0
        if self._n_writebacks:
            stats.bump("writebacks", self._n_writebacks)
            self._n_writebacks = 0
        if self._n_prefetches_issued:
            stats.bump("prefetches_issued", self._n_prefetches_issued)
            self._n_prefetches_issued = 0
        if self._n_prefetches_dropped:
            stats.bump("prefetches_dropped", self._n_prefetches_dropped)
            self._n_prefetches_dropped = 0
        for acc_type in AccessType:
            count = self._n_miss_by_type[acc_type.index]
            if count:
                stats.bump(f"misses_{acc_type.value}", count)
                self._n_miss_by_type[acc_type.index] = 0

    # -- wiring -------------------------------------------------------------

    def register_upstream(self, invalidate: Callable[[int], None]) -> None:
        """Add an upper-level invalidation hook (inclusive back-invalidation)."""
        self._invalidate_upstream.append(invalidate)

    # -- geometry -------------------------------------------------------------

    def _line_of(self, address: int) -> int:
        return align_down(address, self.line_bytes)

    def _set_index(self, line_address: int) -> int:
        return (line_address // self.line_bytes) % self.num_sets

    def contains(self, address: int) -> bool:
        """Functional presence check (used by tests)."""
        line = self._line_of(address)
        return line in self._sets[self._set_index(line)].policy

    def is_dirty(self, address: int) -> bool:
        """Dirty-bit check for a resident line."""
        line = self._line_of(address)
        return bool(self._sets[self._set_index(line)].dirty.get(line, False))

    # -- invalidation ----------------------------------------------------------

    def invalidate(self, line_address: int) -> None:
        """Drop a line (no timing; used for inclusive back-invalidation
        and for the HIVE/HIPE engines' uncached stores)."""
        line = self._line_of(line_address)
        cache_set = self._sets[self._set_index(line)]
        if line in cache_set.policy:
            cache_set.policy.remove(line)
            cache_set.dirty.pop(line, None)
            self._n_invalidations += 1

    # -- the access path ---------------------------------------------------------

    def access(self, cycle: int, address: int, acc_type: AccessType, pc: int = 0) -> int:
        """Access one line; returns the completion cycle.

        ``address`` may point anywhere inside the line.  Multi-line
        requests are the hierarchy's job to split.  The hit outcome is
        inlined — it is the overwhelmingly common result on a streaming
        scan's mask traffic, and every level pays this path per access.
        """
        line_bytes = self.line_bytes
        line = address - (address % line_bytes)
        cache_set = self._sets[(line // line_bytes) % self.num_sets]
        # Inlined SlottedResource.reserve on the port ring (the rare
        # whole-window reset drops to the method; pruning stays inline
        # so the fast path survives arbitrarily long runs).
        ports = self._ports
        horizon = ports._horizon
        granted = cycle if cycle > horizon else horizon
        if granted > horizon + ports._mask:
            granted = ports.reserve(cycle)
        else:
            mask = ports._mask
            counts = ports._counts
            index = (granted + ports._rot) & mask
            slots = ports.slots_per_cycle
            while counts[index] >= slots:
                granted += 1
                index = (index + 1) & mask
            counts[index] += 1
            if granted > ports._peak:
                ports._peak = granted
            window = ports._window
            if granted - horizon > 2 * window:
                ports._advance(granted - window)
        self._n_accesses += 1

        present = line in cache_set.tags
        if present:
            completion = granted + self.latency
            self._n_hits += 1
            touch = cache_set.touch
            if touch is not None:
                touch(line)
            if acc_type is AccessType.STORE or acc_type is AccessType.WRITEBACK:
                cache_set.dirty[line] = True
            elif acc_type is AccessType.PREFETCH:
                self._n_prefetch_hits += 1
        else:
            completion = self._miss(granted + self.latency, line, cache_set,
                                    acc_type, pc)

        # Train the prefetcher on demand traffic only.
        if acc_type is AccessType.LOAD or acc_type is AccessType.STORE:
            for pf_line in self.prefetcher.observe(pc, line, was_miss=not present):
                self._n_prefetches_issued += 1
                self.access(granted, pf_line, AccessType.PREFETCH, pc)
        return completion

    def _miss(
        self, cycle: int, line: int, cache_set: _Set, acc_type: AccessType, pc: int
    ) -> int:
        self._n_misses += 1
        self._n_miss_by_type[acc_type.index] += 1
        mshr = self.mshr

        if acc_type is AccessType.WRITEBACK:
            # Full-line install from above: no fetch needed.
            granted = mshr.allocate_write(cycle, cycle + 1)
            self._install(granted, line, cache_set, dirty=True)
            return granted

        # Inlined MshrFile.lookup_in_flight: ride an in-flight fill.
        if cycle > mshr._watermark:
            mshr._watermark = cycle
        in_flight = mshr._in_flight
        merged = in_flight.get(line)
        if merged is not None:
            if merged <= cycle:
                del in_flight[line]
            else:
                mshr.merges += 1
                if acc_type is AccessType.STORE:
                    cache_set.dirty[line] = True
                return merged

        if acc_type is AccessType.PREFETCH and mshr.requests.earliest_free(cycle) > cycle:
            # Prefetches never steal MSHRs from demand traffic: when the
            # pool is contended the prefetch is simply dropped.
            self._n_prefetches_dropped += 1
            return cycle

        # An MSHR entry is held from allocation until the fill returns.
        if acc_type is AccessType.STORE:
            pool = mshr.writes
        else:
            pool = mshr.requests
        granted = pool.earliest_free(cycle)
        if granted < cycle:
            granted = cycle
        fill = self._next_access(granted, line, AccessType.LOAD, pc)
        pool.acquire(granted, fill)
        mshr.allocations += 1
        # Inlined MshrFile.record_fill: publish + amortised pruning.
        if fill > (in_flight.get(line) or 0):
            in_flight[line] = fill
            mshr._fifo.append((fill, line))
        horizon = mshr._watermark - PRUNE_GRACE
        fifo = mshr._fifo
        while fifo and fifo[0][0] <= horizon:
            done, stale = fifo.popleft()
            if in_flight.get(stale) == done:
                del in_flight[stale]
        self._install(fill, line, cache_set, dirty=(acc_type is AccessType.STORE))
        return fill

    def _install(self, cycle: int, line: int, cache_set: _Set, dirty: bool) -> None:
        if len(cache_set.tags) >= self.ways:
            pop_oldest = cache_set.pop_oldest
            if pop_oldest is not None:
                victim, __ = pop_oldest(last=False)
            else:
                victim = cache_set.policy.evict()
            was_dirty = cache_set.dirty.pop(victim, False)
            self._n_evictions += 1
            if was_dirty:
                self._n_writebacks += 1
                wb_granted = self.mshr.allocate_eviction(cycle, cycle + 1)
                self.next_level.access(wb_granted, victim, AccessType.WRITEBACK)
            if self.config.inclusive:
                for invalidate in self._invalidate_upstream:
                    invalidate(victim)
        # Every policy flavour's insert is an append into its ordered
        # container (the line is never resident at install time), so the
        # container write goes direct.
        cache_set.tags[line] = None
        if dirty:
            cache_set.dirty[line] = True
