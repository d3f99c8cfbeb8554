"""Point-to-point links with FIFO drop-tail queues.

Each direction of a (full-duplex) link has its own transmit queue and
serializer: packets are sent one at a time at the link bandwidth, then
arrive at the far end after the propagation delay.  When the queue is
full new packets are dropped at the tail — the only loss mechanism in
the substrate besides routers deliberately discarding.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..des import Simulator
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from .node import Node

__all__ = ["Link", "LinkStats"]


class LinkStats:
    """Per-direction counters."""

    def __init__(self) -> None:
        self.packets_sent = 0
        self.packets_dropped = 0
        self.bytes_sent = 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"<LinkStats sent={self.packets_sent} dropped={self.packets_dropped}>"


class _Direction:
    """One direction of a link: queue + serializer + wire."""

    def __init__(
        self,
        sim: Simulator,
        owner: "Link",
        receiver: "Node",
        bandwidth_bps: float,
        delay_s: float,
        queue_packets: int,
    ) -> None:
        self.sim = sim
        self.owner = owner
        self.receiver = receiver
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        self.queue_packets = queue_packets
        self.queue: list[Packet] = []
        self.transmitting = False
        self.stats = LinkStats()

    def enqueue(self, packet: Packet) -> bool:
        """Queue a packet for transmission; False if it was dropped."""
        if len(self.queue) >= self.queue_packets:
            self.stats.packets_dropped += 1
            return False
        self.queue.append(packet)
        if not self.transmitting:
            self._start_next()
        return True

    def _start_next(self) -> None:
        if not self.queue:
            self.transmitting = False
            return
        self.transmitting = True
        packet = self.queue.pop(0)
        tx_time = 8.0 * packet.size_bytes / self.bandwidth_bps
        self.sim.schedule(tx_time, self._finish_transmit, packet, label="link-tx")

    def _finish_transmit(self, packet: Packet) -> None:
        self.stats.packets_sent += 1
        self.stats.bytes_sent += packet.size_bytes
        self.sim.schedule(self.delay_s, self.receiver.receive, packet, self.owner,
                          label="link-arrive")
        self._start_next()


class Link:
    """A full-duplex point-to-point link between two nodes.

    Parameters
    ----------
    sim:
        The simulation engine.
    a, b:
        Endpoint nodes; the link registers itself with both.
    bandwidth_bps:
        Bits per second (default 1.5 Mb/s — a T1).
    delay_s:
        One-way propagation delay.
    queue_packets:
        Per-direction queue capacity.
    """

    def __init__(
        self,
        sim: Simulator,
        a: "Node",
        b: "Node",
        bandwidth_bps: float = 1.5e6,
        delay_s: float = 0.005,
        queue_packets: int = 50,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if delay_s < 0:
            raise ValueError("delay must be non-negative")
        if queue_packets < 1:
            raise ValueError("queue must hold at least one packet")
        self.sim = sim
        self.a = a
        self.b = b
        self.up = True
        self._ab = _Direction(sim, self, b, bandwidth_bps, delay_s, queue_packets)
        self._ba = _Direction(sim, self, a, bandwidth_bps, delay_s, queue_packets)
        a.attach_link(self)
        b.attach_link(self)

    def other_end(self, node: "Node") -> "Node":
        """The endpoint opposite ``node``."""
        if node is self.a:
            return self.b
        if node is self.b:
            return self.a
        raise ValueError(f"{node!r} is not an endpoint of this link")

    def send(self, packet: Packet, from_node: "Node") -> bool:
        """Transmit toward the opposite end; False if dropped or link down."""
        if from_node is not self.a and from_node is not self.b:
            raise ValueError(f"{from_node!r} is not an endpoint of this link")
        if not self.up:
            return False
        direction = self._ab if from_node is self.a else self._ba
        return direction.enqueue(packet)

    def set_up(self, up: bool) -> None:
        """Administratively raise or fail the link.

        Packets queued at failure time are lost (their serializers
        drain into the void); endpoints observe the state change
        through their protocol agents (see Router.on_link_state).
        """
        if self.up == up:
            return
        self.up = up
        if not up:
            self._ab.queue.clear()
            self._ba.queue.clear()
        for node in (self.a, self.b):
            node.on_link_state(self, up)

    def stats_toward(self, node: "Node") -> LinkStats:
        """Counters for the direction whose receiver is ``node``."""
        if node is self.b:
            return self._ab.stats
        if node is self.a:
            return self._ba.stats
        raise ValueError(f"{node!r} is not an endpoint of this link")

    def __repr__(self) -> str:  # pragma: no cover
        state = "up" if self.up else "down"
        return f"<Link {self.a.name}<->{self.b.name} {state}>"
