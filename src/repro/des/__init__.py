"""Discrete-event simulation substrate.

Provides the :class:`Simulator` event loop (binary-heap backed) and
:class:`Event` scheduling with deterministic tie-breaking.
"""

from .engine import SimulationError, Simulator
from .events import Event, EventCancelled

__all__ = [
    "Simulator",
    "SimulationError",
    "Event",
    "EventCancelled",
]
