"""The discrete-event simulation engine.

A :class:`Simulator` owns the virtual clock and the pending-event
queue.  Model code schedules callbacks at absolute or relative times,
and :meth:`Simulator.run` drains the queue in deterministic
``(time, priority, sequence)`` order until a horizon, a stop request,
or queue exhaustion.

The engine is deliberately small and allocation-light: the Periodic
Messages experiments schedule millions of timer events, and the packet
substrate schedules one or more events per packet hop.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from .events import Event

__all__ = ["Simulator", "SimulationError"]


class SimulationError(Exception):
    """Raised for scheduling errors (e.g. scheduling in the past)."""


class Simulator:
    """Event loop with a virtual clock.

    Parameters
    ----------
    start_time:
        Initial value of the clock.

    Pending events live in a binary heap; cancelled events stay in it
    until they surface and are skipped.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._seq = 0
        self._events_processed = 0
        self._stopped = False
        self._trace_hooks: list[Callable[[Event], None]] = []
        self._heap: list[Event] = []

    # -- clock and counters ----------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of queue entries (cancelled entries included)."""
        return len(self._heap)

    # -- scheduling --------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: str | None = None,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative; zero-delay events run after any
        already-queued events at the current time with lower or equal
        priority (FIFO among equals).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} s in the past (now={self._now})")
        return self.schedule_at(self._now + delay, callback, *args, priority=priority, label=label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: str | None = None,
    ) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if time < self._now:
            raise SimulationError(f"cannot schedule at t={time} < now={self._now}")
        event = Event(time, priority, self._seq, callback, args, label)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def add_trace_hook(self, hook: Callable[[Event], None]) -> None:
        """Register a hook invoked (with the event) just before each firing."""
        self._trace_hooks.append(hook)

    # -- running -----------------------------------------------------------

    def stop(self) -> None:
        """Request that the run loop return after the current event."""
        self._stopped = True

    def step(self) -> bool:
        """Fire the single next event.  Returns False when the queue is empty."""
        event = self._next_live_event()
        if event is None:
            return False
        self._now = event.time
        for hook in self._trace_hooks:
            hook(event)
        event.fire()
        self._events_processed += 1
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Run until the horizon, an event budget, a stop, or exhaustion.

        Events scheduled exactly at ``until`` are processed.  Returns
        the clock value at exit; when a horizon was given and the queue
        outlived it, the clock is advanced to the horizon so that
        successive ``run`` calls compose.  A NaN horizon runs nothing
        (no event time is ``<= nan``), as in the cascade engines.
        """
        self._stopped = False
        fired = 0
        while not self._stopped:
            if max_events is not None and fired >= max_events:
                break
            event = self._next_live_event()
            if event is None:
                break
            if until is not None and not (event.time <= until):
                heapq.heappush(self._heap, event)
                self._now = max(self._now, until)
                break
            self._now = event.time
            for hook in self._trace_hooks:
                hook(event)
            event.fire()
            self._events_processed += 1
            fired += 1
        return self._now

    # -- internals ----------------------------------------------------------

    def _next_live_event(self) -> Event | None:
        while self._heap:
            event = heapq.heappop(self._heap)
            if not event.cancelled:
                return event
        return None
