"""HMC serial links: the processor <-> cube interconnect.

Table I: 4 links @ 8 GHz.  Every transaction crossing the links is a
packet with a 16 B header/tail FLIT plus payload (write data on requests,
read data on responses).  Requests and responses travel on independent
directions, each modelled as four parallel serialising lanes.

The round trip across these links is exactly the "high latency iteration
between the processor and the smart memory" that HIPE removes for
data-dependent branches: the cost lives here.
"""

from __future__ import annotations

from ..common.config import HmcConfig
from ..common.resources import MultiChannelBandwidth
from ..common.units import CORE_CLOCK, ClockDomain, GIGA


class HmcLinks:
    """Four full-duplex serial links between the processor and the cube.

    :meth:`request` and :meth:`response` are the one link crossing of
    every transaction (cache fills and writebacks, HMC ISA updates,
    HIVE/HIPE instructions).  Each returns ``(start, accepted,
    arrival)``: when the packet began serialising, when the sender
    finished (a posted completion), and when its last bit reached the
    far side.
    """

    def __init__(self, config: HmcConfig) -> None:
        self.config = config
        link_clock = ClockDomain("link", config.link_frequency_ghz * GIGA)
        # Bytes a single link serialises per *core* cycle.
        bytes_per_core_cycle = (
            config.link_lane_bytes
            * link_clock.frequency_hz
            / CORE_CLOCK.frequency_hz
        )
        self._request_lanes = MultiChannelBandwidth(
            config.num_links, bytes_per_core_cycle
        )
        self._response_lanes = MultiChannelBandwidth(
            config.num_links, bytes_per_core_cycle
        )
        self.latency = config.link_latency_core_cycles
        self._header_bytes = config.request_header_bytes
        self.request_packets = 0
        self.response_packets = 0

    def request(self, cycle: int, payload_bytes: int = 0) -> tuple:
        """Processor -> cube packet: ``(start, accepted, arrival)``."""
        self.request_packets += 1
        return self._cross(self._request_lanes, cycle, payload_bytes)

    def response(self, cycle: int, payload_bytes: int = 0) -> tuple:
        """Cube -> processor packet: ``(start, accepted, arrival)``."""
        self.response_packets += 1
        return self._cross(self._response_lanes, cycle, payload_bytes)

    def _cross(self, lanes: MultiChannelBandwidth, cycle: int,
               payload_bytes: int) -> tuple:
        """One packet on the next lane: ``lanes.transfer`` inlined."""
        channel = lanes.channels[lanes.cursor % lanes._n]
        lanes.cursor += 1
        packet = self._header_bytes + payload_bytes
        start = channel._next_free
        if cycle > start:
            start = cycle
        duration = int(-(-packet // channel.bytes_per_cycle))
        if duration < 1:
            duration = 1
        end = start + duration
        channel._next_free = end
        channel.bytes_moved += packet
        return start, end, end + self.latency
