"""Protocol presets for the routing protocols the paper discusses.

Periods come straight from Section 3: RIP sends every 30 seconds,
IGRP every 90, DECnet DNA Phase IV every 120 (the authors' LAN), EGP
every ~180 ("every three minutes" between NSFNET and its regionals),
and Mills' Hello protocol used short sub-minute periods.  All default
to zero jitter — the deployed configurations that synchronized — so
experiments must opt in to randomization via ``with_jitter``.

The per-route processing cost of 1 ms matches the cisco measurement
reported from the Xerox PARC network [De93].
"""

from __future__ import annotations

from .base import ProtocolSpec

__all__ = [
    "RIP",
    "IGRP",
    "DECNET_DNA4",
    "EGP",
    "HELLO",
    "PRESETS",
]

#: RIP (RFC 1058): 30 s updates, infinity 16, split horizon, triggered
#: updates, routes time out after 180 s.
RIP = ProtocolSpec(
    name="rip",
    period=30.0,
    infinity=16,
    per_route_cost=0.001,
    timeout_periods=6.0,
)

#: IGRP: 90 s updates (the NEARnet configuration behind Figures 1-2).
IGRP = ProtocolSpec(
    name="igrp",
    period=90.0,
    infinity=100,
    per_route_cost=0.001,
    timeout_periods=3.0,
    holddown_periods=3.0,
)

#: DECnet DNA Phase IV: 120 s routing messages (the authors' Ethernet).
DECNET_DNA4 = ProtocolSpec(
    name="decnet-dna4",
    period=120.0,
    infinity=31,
    per_route_cost=0.001,
    timeout_periods=3.0,
)

#: EGP: three-minute update messages between the NSFNET backbone and
#: regional networks.
EGP = ProtocolSpec(
    name="egp",
    period=180.0,
    infinity=255,
    per_route_cost=0.001,
    triggered_updates=False,
    timeout_periods=4.0,
)

#: Hello (RFC 891, Mills' DCN): short-period delay-vector updates.
HELLO = ProtocolSpec(
    name="hello",
    period=15.0,
    infinity=30000,
    per_route_cost=0.0005,
    timeout_periods=4.0,
)

PRESETS: dict[str, ProtocolSpec] = {
    spec.name: spec for spec in (RIP, IGRP, DECNET_DNA4, EGP, HELLO)
}
