"""Campaign progress: done/total, per-shard rates, and a wall-clock ETA.

A million-job study runs for hours; the orchestrator reports where it
stands through :mod:`repro.obs` (gauges and throttled events) and an
optional console callback.  Two deliberate choices:

* **Monotonic clock only.**  Rates and ETAs are computed from
  :func:`repro.obs.clock.monotonic` — never the wall clock — so a
  suspend/resume or an NTP step can't produce a negative rate or a
  thousand-year ETA.  (The ``clocks`` rule of ``repro.tools.lint``
  enforces this mechanically.)
* **Decaying rate estimate.**  The instantaneous rate is folded into
  an exponential moving average whose smoothing follows the *elapsed
  time* between updates (``alpha = 1 - exp(-dt / tau)``), not the
  update count — so irregular batch sizes don't distort the estimate,
  early noise decays on a fixed ~``tau``-second memory, and the ETA
  tracks the *current* throughput (cache-hit bursts fade out of it in
  seconds rather than skewing the whole run's average).

Cache hits are counted as progress (they retire jobs) but reported
separately from executed jobs, so "how fast is the fleet simulating"
and "how much of the study is done" stay distinct questions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from ..obs import obs
from ..obs.clock import monotonic

__all__ = ["CampaignProgress", "format_eta"]

#: Memory of the decaying rate estimate, seconds.  Throughput swings
#: (a cache-hit burst, a slow grid corner) fade on this horizon.
RATE_TAU = 30.0

#: Minimum seconds between emitted progress events (gauges update on
#: every advance; the event stream is throttled to stay readable).
EVENT_INTERVAL = 5.0


def format_eta(seconds: float | None) -> str:
    """``1h04m``/``3m20s``/``12s`` — or ``?`` before a rate exists."""
    if seconds is None or not math.isfinite(seconds):
        return "?"
    seconds = max(0.0, seconds)
    if seconds >= 3600:
        return f"{int(seconds // 3600)}h{int(seconds % 3600 // 60):02d}m"
    if seconds >= 60:
        return f"{int(seconds // 60)}m{int(seconds % 60):02d}s"
    return f"{seconds:.0f}s"


@dataclass
class CampaignProgress:
    """Rolling progress accounting for one campaign shard.

    Parameters
    ----------
    total:
        Jobs in this shard (the denominator).
    label:
        Short identity for events and console lines, e.g.
        ``fig12-tr/3 shard 0/2``.
    tau:
        Rate-estimate memory, seconds.
    console:
        Optional sink for rendered one-line updates (the CLI passes a
        stderr writer; tests pass a list appender; ``None`` keeps the
        orchestrator silent apart from obs).
    clock:
        Injectable monotonic source (tests drive it by hand).
    """

    total: int
    label: str = "campaign"
    tau: float = RATE_TAU
    console: Callable[[str], None] | None = None
    clock: Callable[[], float] = monotonic
    done: int = field(default=0, init=False)
    executed: int = field(default=0, init=False)
    cached: int = field(default=0, init=False)
    rate: float | None = field(default=None, init=False)
    _started: float | None = field(default=None, init=False, repr=False)
    _last: float | None = field(default=None, init=False, repr=False)
    _last_event: float | None = field(default=None, init=False, repr=False)

    def start(self) -> None:
        now = self.clock()
        self._started = now
        self._last = now
        obs().metrics.gauge("campaign.jobs_total").set(self.total)
        obs().metrics.gauge("campaign.jobs_done").set(0)

    def advance(self, executed: int = 0, cached: int = 0) -> None:
        """Retire jobs: freshly executed and committed, or cache hits."""
        if self._started is None:
            self.start()
        retired = executed + cached
        if retired <= 0:
            return
        self.executed += executed
        self.cached += cached
        self.done += retired
        now = self.clock()
        dt = now - (self._last if self._last is not None else now)
        self._last = now
        if dt > 0:
            instantaneous = retired / dt
            if self.rate is None:
                self.rate = instantaneous
            else:
                alpha = 1.0 - math.exp(-dt / self.tau)
                self.rate = (1.0 - alpha) * self.rate + alpha * instantaneous
        metrics = obs().metrics
        metrics.gauge("campaign.jobs_done").set(self.done)
        if self.rate is not None:
            metrics.gauge("campaign.rate_jobs_per_s").set(self.rate)
        metrics.counter("campaign.jobs_executed").inc(executed)
        metrics.counter("campaign.jobs_cached").inc(cached)
        self._emit(now)

    @property
    def remaining(self) -> int:
        return max(0, self.total - self.done)

    @property
    def eta(self) -> float | None:
        """Seconds until done at the current decayed rate (None early)."""
        if self.rate is None or self.rate <= 0:
            return None if self.remaining else 0.0
        return self.remaining / self.rate

    @property
    def elapsed(self) -> float:
        if self._started is None or self._last is None:
            return 0.0
        return self._last - self._started

    def snapshot(self) -> dict:
        """The progress state as one plain dict (status output, tests)."""
        return {
            "label": self.label,
            "total": self.total,
            "done": self.done,
            "executed": self.executed,
            "cached": self.cached,
            "rate": self.rate,
            "eta": self.eta,
            "elapsed": self.elapsed,
        }

    def render(self) -> str:
        """One console line: ``label 123/456 (27%) 12.3 jobs/s eta 3m04s``."""
        pct = 100.0 * self.done / self.total if self.total else 100.0
        rate = f"{self.rate:.1f} jobs/s" if self.rate is not None else "- jobs/s"
        return (
            f"{self.label} {self.done}/{self.total} ({pct:.0f}%) "
            f"{rate} eta {format_eta(self.eta)}"
        )

    def _emit(self, now: float, force: bool = False) -> None:
        throttled = (
            self._last_event is not None
            and now - self._last_event < EVENT_INTERVAL
        )
        if throttled and not force:
            return
        self._last_event = now
        obs().emit(
            "campaign.progress",
            self.render(),
            label=self.label,
            done=self.done,
            total=self.total,
            executed=self.executed,
            cached=self.cached,
            rate=self.rate,
            eta=self.eta,
        )
        if self.console is not None:
            self.console(self.render())

    def finish(self) -> None:
        """Force a final event/console line (ignores the throttle)."""
        if self._started is None:
            self.start()
        self._emit(self.clock(), force=True)
