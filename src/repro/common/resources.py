"""Timing resources: the scheduling algebra every component is built on.

The simulator computes *when* things happen by reserving shared hardware
resources.  A resource answers one question: *given that a request wants
to use you at time ``t``, when does it actually get to, and until when is
the resource then busy?*  Components (caches, vault controllers, link
lanes, issue ports, MSHR pools, ...) are compositions of the four
primitives below:

* :class:`SlottedResource` — N grants per cycle (issue width, fetch width,
  cache ports).
* :class:`OccupancyResource` — N entries held over an interval (MSHRs,
  MOB entries, ROB, outstanding-request windows).
* :class:`BandwidthResource` — a pipe that serialises payloads
  (DRAM data bus, serial link lane).
* :class:`BusyResource` — a single server busy for a per-request duration
  (a DRAM bank, a functional unit instance).

All times are integer cycles of the reference (core) clock.  Requests may
arrive slightly out of order (an out-of-order core issues that way); each
primitive handles that by never granting earlier than its own visible
history requires.

Every dynamic uop performs a handful of reserve/acquire operations, so
the per-call constant of these primitives is the simulator's wall-clock
floor.  :class:`SlottedResource` keeps its per-cycle counters in a
**fixed-size circular array** (ring buffer) instead of a dict: a cell
holds one cycle's counter, pruning is O(1) amortised wraparound (cells
are zeroed exactly once per reuse), and the steady-state replay layer
can time-shift the whole ring by ``dt`` cycles in O(1) by rotating the
cycle->cell mapping instead of rewriting keys.
:class:`OccupancyResource` deliberately stays a binary heap — see its
docstring for the measured reasons a ring lost there — but exposes the
same ``sig_entries``/``shift_time`` replay interface, so the replay
layer no longer reaches into either class's internals.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple


def _ring_capacity(window: int) -> int:
    """Smallest power of two that can hold a full prune span.

    A :class:`SlottedResource` keeps counters for cycles in
    ``[horizon, horizon + 2 * window]`` between prunes (matching the
    historical dict implementation exactly), so the ring needs more than
    ``2 * window + 1`` cells — and more than ``3 * window``, so that a
    jump past the whole ring can reset it without discarding counters
    the historical pruning rule would have kept.
    """
    capacity = 1
    while capacity < 3 * window + 2:
        capacity *= 2
    return capacity


class SlottedResource:
    """A resource granting at most ``slots_per_cycle`` uses per cycle.

    Models superscalar widths: issue slots, commit slots, cache ports.
    Grants at the first cycle >= the requested cycle with a free slot.

    Per-cycle counters live in a circular array; cycle ``c`` maps to cell
    ``(c + rot) & mask``.  Requests older than the pruning horizon are
    clamped forward to it (they cannot observe freed slots that far in
    the past, which is the conservative choice), and the horizon advances
    exactly as the historical bounded-dict implementation did: whenever a
    grant lands more than ``2 * window`` past it, the horizon jumps to
    ``grant - window`` and the vacated cells are zeroed for reuse.
    """

    __slots__ = ("slots_per_cycle", "_window", "_counts", "_mask", "_rot",
                 "_horizon", "_peak")

    def __init__(self, slots_per_cycle: int, window: int = 4096) -> None:
        if slots_per_cycle < 1:
            raise ValueError("slots_per_cycle must be >= 1")
        self.slots_per_cycle = slots_per_cycle
        self._window = window
        capacity = _ring_capacity(window)
        self._counts = [0] * capacity
        self._mask = capacity - 1
        self._rot = 0  # cycle -> cell rotation (replay time-shifts adjust it)
        self._horizon = 0  # earliest cycle still tracked
        self._peak = 0  # highest cycle ever granted (bounds enumeration)

    def reserve(self, cycle: int) -> int:
        """Reserve one slot at or after ``cycle``; return the granted cycle."""
        horizon = self._horizon
        when = cycle if cycle > horizon else horizon
        counts = self._counts
        mask = self._mask
        rot = self._rot
        if when > horizon + mask:
            # The request is beyond every tracked cell: the whole window
            # is stale.  Reset it (grants there would all read as free).
            self._counts = counts = [0] * (mask + 1)
            self._horizon = horizon = when - self._window
            self._rot = rot = 0
        slots = self.slots_per_cycle
        index = (when + rot) & mask
        while counts[index] >= slots:
            when += 1
            index = (when + rot) & mask
        counts[index] += 1
        if when > self._peak:
            self._peak = when
        if when - horizon > 2 * self._window:
            self._advance(when - self._window)
        return when

    def _advance(self, new_horizon: int) -> None:
        """Prune: zero the vacated cells so wraparound reuse starts clean.

        The vacated cycles map to at most two contiguous index spans
        (the range may wrap), so zeroing is two slice stores, not a
        per-cell loop.
        """
        counts = self._counts
        mask = self._mask
        first = (self._horizon + self._rot) & mask
        count = new_horizon - self._horizon
        tail = mask + 1 - first
        if count <= tail:
            counts[first:first + count] = [0] * count
        else:
            counts[first:] = [0] * tail
            counts[:count - tail] = [0] * (count - tail)
        self._horizon = new_horizon

    def used_at(self, cycle: int) -> int:
        """How many slots are reserved at ``cycle`` (0 if outside window)."""
        if cycle < self._horizon or cycle > self._peak:
            return 0
        return self._counts[(cycle + self._rot) & self._mask]

    # -- replay-layer interface --------------------------------------------

    def sig_entries(self, now: int, grace: int) -> Tuple[Tuple[int, int], ...]:
        """Occupied cycles as ``(cycle - now, count)``, newest-window only.

        Ascending cycle order, restricted to ``cycle >= now - grace`` —
        the normalised form the replay signature compares.
        """
        counts = self._counts
        mask = self._mask
        rot = self._rot
        lo = now - grace
        if lo < self._horizon:
            lo = self._horizon
        return tuple(
            (c - now, counts[(c + rot) & mask])
            for c in range(lo, self._peak + 1)
            if counts[(c + rot) & mask]
        )

    def shift_time(self, dt: int) -> None:
        """Advance every tracked cycle by ``dt`` (O(1): rotate the map)."""
        self._horizon += dt
        self._peak += dt
        self._rot = (self._rot - dt) & self._mask


class OccupancyResource:
    """A pool of ``num_entries`` entries held from acquire until release.

    Models MSHR files, load/store queues and reorder-buffer occupancy.
    ``acquire(t, release)`` returns the time the entry was actually
    obtained: ``t`` if an entry is free then, otherwise the earliest
    release time of the currently held entries.

    Bookkeeping is a C-implemented binary min-heap of release times, not
    a per-cycle ring: occupancy releases are sparse, clustered within a
    DRAM round trip of "now", and arrive out of order, so a cycle-indexed
    circular array spends ~10 cells of Python-level scanning per call
    where the heap spends two O(log n) C operations on an n <= pool-size
    heap (measured ~2x end-to-end slower on the x86 Q6 exact path when
    this class was ring-backed).  The heap is still O(1)-shiftable for
    the replay layer — it holds at most ``num_entries`` small ints — via
    :meth:`shift_time`, and exposes the same normalised signature
    interface as :class:`SlottedResource`.
    """

    __slots__ = ("num_entries", "_releases")

    def __init__(self, num_entries: int) -> None:
        if num_entries < 1:
            raise ValueError("num_entries must be >= 1")
        self.num_entries = num_entries
        self._releases: List[int] = []  # min-heap of release times

    def acquire(self, cycle: int, release: int) -> int:
        """Acquire one entry at/after ``cycle``, held until ``release``."""
        releases = self._releases
        # Free entries whose holders have already released.
        while releases and releases[0] <= cycle:
            heapq.heappop(releases)
        if len(releases) < self.num_entries:
            granted = cycle
        else:
            granted = heapq.heappop(releases)
        heapq.heappush(releases, release if release > granted else granted)
        return granted

    def earliest_free(self, cycle: int) -> int:
        """When the next entry would be available for a request at ``cycle``."""
        releases = self._releases
        while releases and releases[0] <= cycle:
            heapq.heappop(releases)
        if len(releases) < self.num_entries:
            return int(cycle)
        return releases[0]

    @property
    def in_flight(self) -> int:
        """Entries currently tracked (an upper bound on live holders)."""
        return len(self._releases)

    # -- replay-layer interface --------------------------------------------

    def sig_entries(self, now: int, grace: int) -> Tuple[int, ...]:
        """Tracked releases as sorted ``release - now`` offsets.

        Restricted to ``release > now - grace`` — the normalised form
        the replay signature compares (multiplicity preserved).
        """
        return tuple(sorted(
            r - now for r in self._releases if r > now - grace
        ))

    def shift_time(self, dt: int) -> None:
        """Advance every tracked release by ``dt`` (heap order preserved)."""
        self._releases = [r + dt for r in self._releases]


class BandwidthResource:
    """A serialising pipe moving ``bytes_per_cycle`` bytes each cycle.

    ``transfer(t, nbytes)`` returns ``(start, end)``: the transfer begins
    at the later of ``t`` and the pipe draining, and occupies the pipe for
    ``ceil(nbytes / bytes_per_cycle)`` cycles.

    ``last_address`` records the address of the most recent transfer when
    the caller supplies one; the replay layer uses it to relabel
    address-routed pipes (a vault's data bus) when it fast-forwards.
    """

    __slots__ = ("bytes_per_cycle", "_next_free", "bytes_moved", "last_address")

    def __init__(self, bytes_per_cycle: float) -> None:
        if bytes_per_cycle <= 0:
            raise ValueError("bytes_per_cycle must be positive")
        self.bytes_per_cycle = float(bytes_per_cycle)
        self._next_free = 0
        self.bytes_moved = 0
        self.last_address = None

    def transfer(self, cycle: int, nbytes: int, address=None) -> tuple:
        """Serialise ``nbytes`` starting at/after ``cycle``; (start, end)."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        start = self._next_free
        if cycle > start:
            start = cycle
        duration = int(-(-nbytes // self.bytes_per_cycle))
        if duration < 1:
            duration = 1
        end = start + duration
        self._next_free = end
        self.bytes_moved += nbytes
        if address is not None:
            self.last_address = address
        return start, end

    @property
    def next_free(self) -> int:
        """First cycle at which a new transfer could begin."""
        return self._next_free


class MultiChannelBandwidth:
    """Several identical pipes under a deterministic round-robin scheduler.

    Models the HMC's four serial links: each request/response packet rides
    one lane, lanes operate in parallel.  Lane assignment is a pure
    rotation (packet ``k`` rides lane ``k mod n``), *not* earliest-free
    selection: greedy tie-breaking makes the lane phase a function of
    absolute cycle history, which keeps the machine state aperiodic and
    blocks steady-state replay.  A packet may therefore wait for its
    assigned lane while a neighbour idles — the bounded price of a
    schedule that repeats whenever the instruction stream does.
    """

    __slots__ = ("channels", "cursor", "_n")

    def __init__(self, channels: int, bytes_per_cycle: float) -> None:
        if channels < 1:
            raise ValueError("channels must be >= 1")
        self.channels = [BandwidthResource(bytes_per_cycle) for _ in range(channels)]
        self._n = channels
        self.cursor = 0  # total transfers so far; lane = cursor mod n

    def transfer(self, cycle: int, nbytes: int) -> tuple:
        """Move ``nbytes`` on the next lane in rotation."""
        channel = self.channels[self.cursor % self._n]
        self.cursor += 1
        return channel.transfer(cycle, nbytes)


class BusyResource:
    """A single server that is busy for a caller-supplied duration.

    Models a DRAM bank or one functional-unit instance.  ``occupy(t, d)``
    returns ``(start, end)`` with ``start = max(t, previous end)``.

    ``last_address`` records the most recent request's address when the
    caller supplies one (address-routed servers: DRAM banks, vault
    command slots); the replay layer relabels such servers by it.
    """

    __slots__ = ("_next_free", "last_address")

    def __init__(self) -> None:
        self._next_free = 0
        self.last_address = None

    def occupy(self, cycle: int, duration: int, address=None) -> tuple:
        """Hold the server for ``duration`` cycles at/after ``cycle``."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        start = self._next_free
        if cycle > start:
            start = cycle
        end = start + duration
        self._next_free = end
        if address is not None:
            self.last_address = address
        return start, end

    @property
    def next_free(self) -> int:
        """First cycle at which the server is idle."""
        return self._next_free

    def push_next_free(self, cycle: int) -> None:
        """Force the server busy until ``cycle`` (e.g. precharge tail).

        Clamped to never move ``next_free`` backwards: pushing a cycle
        already in the server's past (a precharge tail computed from a
        stale request, a replay dead-floor behind the current busy time)
        leaves the later commitment in force.
        """
        cycle = int(cycle)
        if cycle > self._next_free:
            self._next_free = cycle

    def clamp_next_free(self, ceiling: int) -> None:
        """Pull ``next_free`` down to ``ceiling`` if it is later.

        The replay layer uses this for vacated address-routed servers:
        a server whose busy time has aged past the liveness horizon is
        behaviourally dead, and clamping (never raising) its clock keeps
        it so after a time shift.
        """
        ceiling = int(ceiling)
        if self._next_free > ceiling:
            self._next_free = ceiling


class UnitPool:
    """A group of identical servers under a deterministic round-robin.

    Models ``k`` ALUs of one type.  Like
    :class:`MultiChannelBandwidth`, assignment is a pure rotation
    (request ``k`` takes unit ``k mod n``) rather than earliest-free
    selection, so the unit phase is a function of the instruction stream
    alone and steady-state replay can reason about it.
    Returns ``(start, end)`` like :class:`BusyResource`.
    """

    __slots__ = ("units", "cursor", "_n")

    def __init__(self, count: int) -> None:
        if count < 1:
            raise ValueError("count must be >= 1")
        self.units = [BusyResource() for _ in range(count)]
        self._n = count
        self.cursor = 0  # total grants so far; unit = cursor mod n

    def occupy(self, cycle: int, duration: int) -> tuple:
        """Use the next unit in rotation for ``duration`` cycles."""
        unit = self.units[self.cursor % self._n]
        self.cursor += 1
        return unit.occupy(cycle, duration)
