"""``repro.obs`` — observability for the whole pipeline.

Zero-dependency metrics, spans, cross-worker tracing, structured
events, and opt-in profiling, threaded through the
simulator, the parallel layer, and the CLI.  Two contracts hold
everywhere (and are enforced by ``tests/test_obs_inert.py``):

* **Inert**: instrumentation never touches an RNG stream, never
  changes control flow, and never alters a result — every experiment
  output is byte-identical with observability on or off.
* **Cheap when off**: the disabled path is a flag check plus shared
  null objects; the measured overhead of *on* vs *off* on the Fig-10
  ensemble benchmark is recorded in ``BENCH_obs.json`` (<5%).

The process-global runtime is a single :class:`Obs` bundle reached
through :func:`obs`; it starts disabled.  The CLI (``--trace``,
``--metrics``, ``--profile``) and tests turn it on via
:func:`configure` and restore the default via :func:`reset`::

    from repro import obs
    obs.configure(enabled=True)
    ...                        # run experiments as usual
    handle = obs.obs()
    handle.tracer.records      # spans, incl. ones shipped from workers
    handle.metrics.snapshot()  # counters / gauges / histograms

Pool workers do not share this global: the runner ships a flag with
each chunk, the worker collects spans (and profile rows) under a local
tracer, and the records return with the results — one coherent
multi-process trace, no shared state.
"""

from __future__ import annotations

import sys

from . import clock
from .events import DEBUG, ERROR, INFO, WARNING, ConsoleSink, Event, EventLog
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .spans import SpanRecord, Tracer

__all__ = [
    "DEBUG",
    "ERROR",
    "INFO",
    "WARNING",
    "ConsoleSink",
    "Counter",
    "Event",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Obs",
    "SpanRecord",
    "Tracer",
    "clock",
    "configure",
    "obs",
    "reset",
]


class Obs:
    """One process's observability runtime: metrics + tracer + events.

    ``enabled`` gates metrics and spans together (they are the
    measurement plane); the event log always exists because it doubles
    as the logging path, and ``profile`` is a separate opt-in because
    cProfile is the one collector with real overhead.
    """

    def __init__(self, enabled: bool = False, profile: bool = False) -> None:
        self.metrics = MetricsRegistry(enabled=enabled)
        self.tracer = Tracer(enabled=enabled)
        self.events = EventLog()
        self.profile = profile
        #: Aggregated cProfile rows (merged across workers by the
        #: runner); empty unless ``profile`` is on.
        self.profile_rows: list[dict] = []

    @property
    def enabled(self) -> bool:
        """Whether the measurement plane (metrics + spans) is on."""
        return self.tracer.enabled

    # Convenience pass-throughs used by instrumented code -------------------

    def span(self, name: str, **attrs):
        """Shorthand for ``self.tracer.span``."""
        return self.tracer.span(name, **attrs)

    def emit(self, name: str, message: str, level: int = INFO, **fields):
        """Shorthand for ``self.events.emit``."""
        return self.events.emit(name, message, level=level, **fields)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return (
            f"Obs({state}, spans={len(self.tracer)}, "
            f"metrics={len(self.metrics)}, events={len(self.events)})"
        )


#: The process-global runtime; starts disabled (production default).
_GLOBAL = Obs()


def obs() -> Obs:
    """The current process-global observability runtime.

    Callers must not cache the return value across :func:`configure`
    or :func:`reset` boundaries — fetch it where it is used.
    """
    return _GLOBAL


def configure(
    enabled: bool = True,
    profile: bool = False,
    console_level: int | None = None,
) -> Obs:
    """Replace the global runtime; returns the new one.

    ``console_level`` installs a :class:`ConsoleSink` at that level
    writing every event to ``stderr``, so stdout stays the program's
    own output (the CLI maps ``--quiet``/``--verbose`` onto it);
    ``None`` leaves the event log sinkless, where warning-level events
    fall back to ``warnings.warn``.
    """
    global _GLOBAL
    _GLOBAL = Obs(enabled=enabled, profile=profile)
    if console_level is not None:
        _GLOBAL.events.add_sink(ConsoleSink(level=console_level, out=sys.stderr))
    return _GLOBAL


def reset() -> Obs:
    """Restore the disabled default (tests call this in teardown)."""
    global _GLOBAL
    _GLOBAL = Obs()
    return _GLOBAL
