"""Discrete-event simulation substrate.

Provides the :class:`Simulator` event loop (binary-heap backed),
:class:`Event` scheduling with deterministic tie-breaking,
generator-based processes with signals, and statistics collectors.
"""

from .engine import SimulationError, Simulator
from .events import Event, EventCancelled
from .process import Process, Signal, all_of, spawn
from .stats import Counter, Histogram, Tally, TimeWeighted

__all__ = [
    "Process",
    "Signal",
    "all_of",
    "spawn",
    "Simulator",
    "SimulationError",
    "Event",
    "EventCancelled",
    "Counter",
    "Histogram",
    "Tally",
    "TimeWeighted",
]
