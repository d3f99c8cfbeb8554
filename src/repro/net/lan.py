"""A shared broadcast segment (an Ethernet-like LAN).

The paper's observations begin on one: "On this network each DECnet
router transmitted a routing message at 120-second intervals; within
hours after bringing up the routers on the network after a failure,
the routing messages from the various routers were completely
synchronized."  A LAN differs from the point-to-point links in two
ways that matter to the model: one transmission is heard by *every*
attached node (the paper's every-router-hears-every-router coupling),
and the medium serializes — only one frame is on the wire at a time.

Unicast data crossing a LAN carries a link-layer destination
(:attr:`repro.net.packet.Packet.link_dst`); other stations receive the
frame and discard it, as an Ethernet NIC would.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..des import Simulator
from .link import LinkStats
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from .node import Node

__all__ = ["Lan"]


class Lan:
    """A shared medium connecting any number of nodes.

    Parameters
    ----------
    sim:
        The simulation engine.
    name:
        Segment name (for diagnostics).
    bandwidth_bps:
        Medium bit rate (default 10 Mb/s — classic Ethernet).
    delay_s:
        Propagation delay from transmitter to every receiver.
    queue_packets:
        Total transmit backlog the segment will hold before tail-drop
        (an abstraction of the senders' interface queues).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        bandwidth_bps: float = 10e6,
        delay_s: float = 0.0001,
        queue_packets: int = 200,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if delay_s < 0:
            raise ValueError("delay must be non-negative")
        if queue_packets < 1:
            raise ValueError("queue must hold at least one packet")
        self.sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        self.queue_packets = queue_packets
        self.up = True
        self.stations: list["Node"] = []
        self.stats = LinkStats()
        self._backlog: list[tuple[Packet, "Node"]] = []
        self._transmitting = False

    # -- membership -----------------------------------------------------------

    def attach(self, node: "Node") -> None:
        """Connect a node to the segment."""
        if node in self.stations:
            raise ValueError(f"{node.name} is already attached to {self.name}")
        self.stations.append(node)
        node.attach_channel(self)

    def other_stations(self, node: "Node") -> list["Node"]:
        """Every attached node except ``node``."""
        if node not in self.stations:
            raise ValueError(f"{node.name} is not attached to {self.name}")
        return [station for station in self.stations if station is not node]

    # -- transmission -----------------------------------------------------------

    def send(self, packet: Packet, from_node: "Node") -> bool:
        """Queue a frame for the shared medium.

        Broadcast frames (``packet.link_dst is None``) are delivered to
        every other station; unicast frames reach every station too but
        are filtered by the receivers.  Returns False on tail-drop or
        when the segment is down.
        """
        if from_node not in self.stations:
            raise ValueError(f"{from_node.name} is not attached to {self.name}")
        if not self.up:
            return False
        if len(self._backlog) >= self.queue_packets:
            self.stats.packets_dropped += 1
            return False
        self._backlog.append((packet, from_node))
        if not self._transmitting:
            self._start_next()
        return True

    def _start_next(self) -> None:
        if not self._backlog:
            self._transmitting = False
            return
        self._transmitting = True
        packet, sender = self._backlog.pop(0)
        tx_time = 8.0 * packet.size_bytes / self.bandwidth_bps
        self.sim.schedule(tx_time, self._finish_transmit, packet, sender,
                          label=f"lan-tx-{self.name}")

    def _finish_transmit(self, packet: Packet, sender: "Node") -> None:
        self.stats.packets_sent += 1
        self.stats.bytes_sent += packet.size_bytes
        if self.up:
            for station in self.other_stations(sender):
                self.sim.schedule(self.delay_s, station.receive, packet, self,
                                  label=f"lan-rx-{self.name}")
        self._start_next()

    # -- administrative ------------------------------------------------------------

    def set_up(self, up: bool) -> None:
        """Raise or fail the whole segment."""
        if self.up == up:
            return
        self.up = up
        if not up:
            self._backlog.clear()
        for station in self.stations:
            station.on_channel_state(self, up)

    def __repr__(self) -> str:  # pragma: no cover
        state = "up" if self.up else "down"
        return f"<Lan {self.name} {len(self.stations)} stations {state}>"
