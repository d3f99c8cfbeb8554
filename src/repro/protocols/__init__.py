"""Periodic distance-vector routing protocols (RIP, IGRP, DECnet, EGP, Hello)."""

from .base import DistanceVectorAgent, ProtocolSpec, RouteEntry
from .presets import DECNET_DNA4, EGP, HELLO, IGRP, PRESETS, RIP

__all__ = [
    "DistanceVectorAgent",
    "ProtocolSpec",
    "RouteEntry",
    "DECNET_DNA4",
    "EGP",
    "HELLO",
    "IGRP",
    "PRESETS",
    "RIP",
]
