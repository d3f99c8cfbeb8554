"""Traffic generators: ping probes, CBR audio and VBR video."""

from .audio import AudioSession
from .ping import LOSS_RTT, PingClient, PingResponder
from .video import VBRVideoSession

__all__ = [
    "AudioSession",
    "LOSS_RTT",
    "PingClient",
    "PingResponder",
    "VBRVideoSession",
]
