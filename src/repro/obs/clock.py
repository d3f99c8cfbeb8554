"""The only module in the tree allowed to read real clocks directly.

The repository runs two kinds of time.  *Simulated* time lives in the
DES event heap and the cascade heap and must never leak a real clock —
that is the determinism guarantee every byte-identity test rests on.
*Observed* time is what this subsystem measures: span durations on the
monotonic clock (immune to NTP steps), and journal/event stamps on the
wall clock (meaningful across sessions).

Centralizing the raw ``time`` calls here does two jobs at once:

* every caller outside ``repro/obs`` that needs a real clock imports
  it from this module, so ``repro.tools.lint`` can forbid
  direct ``time.time()`` / ``datetime.now()`` everywhere else; and
* tests can monkeypatch one module to freeze observability time
  without ever touching simulation time.
"""

from __future__ import annotations

import time

__all__ = ["monotonic", "perf_counter", "wall_time"]


def monotonic() -> float:
    """Span-timing clock: seconds, monotonic, never steps backwards.

    On Linux this is ``CLOCK_MONOTONIC``, which shares its epoch
    across processes on the same boot — the property that lets worker
    spans and parent spans land on one coherent trace timeline.
    """
    return time.monotonic()


def perf_counter() -> float:
    """Highest-resolution interval clock, for benchmark deltas."""
    return time.perf_counter()


def wall_time() -> float:
    """Wall-clock seconds since the epoch, for durable stamps.

    Journal lines and exported events carry wall time because their
    readers live in later sessions (staleness reporting); everything
    measured *within* one process uses :func:`monotonic` instead.
    """
    return time.time()
