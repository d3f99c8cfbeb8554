"""Packet-level network substrate: nodes, links, LANs, and topologies.

Links, LANs and routers count their own traffic and drops
(:class:`LinkStats`, :class:`RouterStats`).
"""

from .lan import Lan
from .link import Link, LinkStats
from .node import (
    BROADCAST,
    Host,
    Node,
    ProtocolAgent,
    Router,
    RouterStats,
    channel_neighbors,
)
from .packet import Packet, PacketKind
from .topology import Network

__all__ = [
    "Lan",
    "Link",
    "LinkStats",
    "BROADCAST",
    "Host",
    "Node",
    "ProtocolAgent",
    "Router",
    "RouterStats",
    "channel_neighbors",
    "Packet",
    "PacketKind",
    "Network",
]
