"""The Periodic Messages model (Sections 3 and 4 of the paper).

Each of N routers loops through the paper's four steps:

1. Prepare and send a routing message (``Tc`` seconds of work).
2. Incoming messages that arrive while the router is busy extend the
   busy period by ``Tc`` each.
3. When all work completes the router *resets its timer*, drawing the
   next interval from the timer policy (uniform ``[Tp-Tr, Tp+Tr]`` in
   the paper).
4. Incoming messages that arrive while idle are processed immediately
   (also ``Tc``) but do not touch the timer — unless they are
   *triggered updates*, which send the router back to step 1.

The weak coupling lives in step 3: a router whose timer expires while
it is busy processing a neighbour's message finishes both tasks and
resets its timer at the same instant as that neighbour, forming a
*cluster*.  The simulation follows the paper's simplifying assumption
that every node learns of a transmission at the sender's timer-expiry
instant (configurable via ``notification_delay`` for ablation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Sequence

from ..des import Event, Simulator
from ..rng import RandomSource
from .clusters import ClusterTracker
from .parameters import RouterTimingParameters
from .timers import TimerPolicy, UniformJitterTimer

__all__ = ["ModelConfig", "PeriodicMessagesModel", "RouterState", "InitialPhases"]

InitialPhases = Literal["unsynchronized", "synchronized"] | Sequence[float]


@dataclass
class ModelConfig:
    """Configuration of a Periodic Messages run.

    Attributes
    ----------
    n_nodes:
        Number of routers.
    tc:
        Seconds of processing per routing message (incoming or
        outgoing).
    timer:
        Policy drawing the interval between a timer reset and its next
        expiry.
    reset_mode:
        ``"after_busy"`` — the paper's model: the timer restarts only
        after the router finishes its own message and any incoming
        ones.  ``"on_expiry"`` — the RFC 1058 alternative: the next
        expiry is scheduled the moment the timer fires, decoupling the
        period from the service time (no synchronization mechanism,
        but also no break-up mechanism), and triggered updates do not
        reset the timer.
    notification_delay:
        Seconds between a sender's timer expiry and receivers learning
        of the message.  The paper assumes 0; the ablation benches set
        it positive.
    seed:
        Master seed; each router derives a private stream from it.
    record_transmissions:
        Keep every (time, node) transmission for offset plots
        (Figures 4/5).  Costs memory proportional to run length.
    record_journal:
        Keep a per-event journal of (time, kind, node) entries, where
        kind is ``"expire"`` (an "x" in the paper's Figure 5) or
        ``"reset"`` (an "o").  For short diagnostic runs only.
    keep_cluster_history:
        Retain closed cluster groups (Figure 6); disable for very long
        runs.
    """

    n_nodes: int
    tc: float
    timer: TimerPolicy
    reset_mode: Literal["after_busy", "on_expiry"] = "after_busy"
    notification_delay: float = 0.0
    seed: int = 1
    record_transmissions: bool = False
    record_journal: bool = False
    keep_cluster_history: bool = True

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be positive")
        if self.tc < 0:
            raise ValueError("Tc must be non-negative")
        if self.notification_delay < 0:
            raise ValueError("notification_delay must be non-negative")
        if self.reset_mode not in ("after_busy", "on_expiry"):
            raise ValueError(f"unknown reset_mode {self.reset_mode!r}")

    @classmethod
    def from_parameters(
        cls,
        params: RouterTimingParameters,
        seed: int = 1,
        **overrides,
    ) -> "ModelConfig":
        """Build a config from a paper-style (N, Tp, Tc, Tr) tuple."""
        return cls(
            n_nodes=params.n_nodes,
            tc=params.tc,
            timer=UniformJitterTimer(params.tp, params.tr),
            seed=seed,
            **overrides,
        )


@dataclass
class RouterState:
    """Per-router simulation state."""

    node_id: int
    rng: RandomSource
    busy_until: float = 0.0
    busy: bool = False
    pending_own: bool = False
    timer_event: Event | None = None
    busy_end_event: Event | None = None
    messages_sent: int = 0
    messages_processed: int = 0
    last_trigger_seen: int = -1
    extra: dict = field(default_factory=dict)


class PeriodicMessagesModel:
    """Discrete-event realization of the Periodic Messages model.

    Typical use::

        config = ModelConfig.from_parameters(RouterTimingParameters(tr=0.1))
        model = PeriodicMessagesModel(config)
        model.run(until=1e5, stop_on_full_sync=True)
        print(model.tracker.synchronization_time)
    """

    def __init__(
        self,
        config: ModelConfig,
        initial_phases: InitialPhases = "unsynchronized",
    ) -> None:
        self.config = config
        self.sim = Simulator()
        # With delayed notifications, clustered resets are spread over
        # roughly one delay per member instead of being simultaneous.
        tolerance = max(1e-7, 2.0 * config.n_nodes * config.notification_delay)
        self.tracker = ClusterTracker(
            config.n_nodes,
            keep_history=config.keep_cluster_history,
            tolerance=tolerance,
        )
        self.transmissions: list[tuple[float, int]] = []
        self.journal: list[tuple[float, str, int]] = []
        master = RandomSource(seed=config.seed)
        self.routers = [
            RouterState(node_id=i, rng=master.spawn(i)) for i in range(config.n_nodes)
        ]
        self._phase_rng = master.spawn(config.n_nodes + 1)
        self._trigger_counter = 0
        self._stop_on_full_sync = False
        self._stop_on_full_unsync = False
        self._stop_check_at: float | None = None
        self._schedule_initial_timers(initial_phases)

    # -- setup ---------------------------------------------------------------

    def _schedule_initial_timers(self, initial_phases: InitialPhases) -> None:
        mean = self.config.timer.mean_interval
        if initial_phases == "unsynchronized":
            # Paper: "the transit time for the first routing message is
            # chosen from the uniform distribution on [0, Tp] seconds".
            phases = [self._phase_rng.uniform(0.0, mean) for _ in self.routers]
        elif initial_phases == "synchronized":
            phases = [0.0] * len(self.routers)
        else:
            phases = [float(p) for p in initial_phases]
            if len(phases) != self.config.n_nodes:
                raise ValueError(
                    f"expected {self.config.n_nodes} initial phases, got {len(phases)}"
                )
            if any(p < 0 for p in phases):
                raise ValueError("initial phases must be non-negative")
        for router, phase in zip(self.routers, phases):
            router.timer_event = self.sim.schedule_at(
                phase, self._on_timer_expire, router, label=f"expire-{router.node_id}"
            )

    # -- model events ----------------------------------------------------------

    def _on_timer_expire(self, router: RouterState) -> None:
        """The router's own timer fired: go to step 1."""
        router.timer_event = None
        if self.config.reset_mode == "on_expiry":
            # RFC 1058 variant: schedule the next expiry immediately,
            # independent of how long the work takes.
            interval = self.config.timer.interval(router.rng, router.node_id)
            router.timer_event = self.sim.schedule(
                interval, self._on_timer_expire, router, label=f"expire-{router.node_id}"
            )
            if self.config.record_journal:
                self.journal.append((self.sim.now, "reset", router.node_id))
            self.tracker.record_reset(self.sim.now, router.node_id)
            self._check_stop()
        self._transmit(router)

    def _transmit(self, router: RouterState) -> None:
        """Step 1: prepare and send the routing message, notifying peers."""
        now = self.sim.now
        router.messages_sent += 1
        if self.config.record_transmissions:
            self.transmissions.append((now, router.node_id))
        if self.config.record_journal:
            self.journal.append((now, "expire", router.node_id))
        if self.config.reset_mode == "after_busy":
            router.pending_own = True
        self._extend_busy(router, now)
        delay = self.config.notification_delay
        for other in self.routers:
            if other is router:
                continue
            if delay == 0.0:
                self._on_message_arrival(other)
            else:
                self.sim.schedule(
                    delay, self._on_message_arrival, other,
                    label=f"arrive-{other.node_id}",
                )

    def _on_message_arrival(self, router: RouterState, triggered_id: int | None = None) -> None:
        """Steps 2/4: an incoming routing message reaches ``router``."""
        router.messages_processed += 1
        if (
            triggered_id is None
            and not router.pending_own
            and not router.busy
            and router.timer_event is not None
            and router.timer_event.time
            > self.sim.now + (2 * self.config.n_nodes + 2) * self.config.tc
        ):
            # Fast path: the router is merely processing a message it
            # overheard.  A busy period can be extended by at most 2N
            # messages (periodic plus trigger responses from every
            # peer, plus its own), so if the router's timer cannot
            # expire within that window the busy period is
            # observationally inert — no reset timing changes.  Skip
            # the busy bookkeeping entirely.
            return
        self._extend_busy(router, self.sim.now)
        if triggered_id is not None and triggered_id > router.last_trigger_seen:
            router.last_trigger_seen = triggered_id
            # Triggered update: respond with our own message at once
            # ("the router goes to step 1, without waiting for the
            # timer to expire").  In the paper's model the pending
            # expiry is abandoned and the timer restarts after the busy
            # period; in the RFC 1058 variant the timer is untouched.
            if self.config.reset_mode == "after_busy" and router.timer_event is not None:
                router.timer_event.cancel()
                router.timer_event = None
            self._transmit(router)

    def _extend_busy(self, router: RouterState, now: float) -> None:
        """Add Tc of work, starting a busy period if the router was idle."""
        if router.busy:
            router.busy_until += self.config.tc
        else:
            router.busy = True
            router.busy_until = now + self.config.tc
        # Lazy re-arm: if a busy-end event is already pending it will
        # notice the extension when it fires and reschedule itself,
        # avoiding a cancel+push per incoming message.
        if router.busy_end_event is None:
            router.busy_end_event = self.sim.schedule_at(
                router.busy_until, self._on_busy_end, router, priority=1,
                label=f"busy-end-{router.node_id}",
            )

    def _on_busy_end(self, router: RouterState) -> None:
        """Step 3: all work done; reset the timer if this period sent our message."""
        now = self.sim.now
        router.busy_end_event = None
        if router.busy_until > now + 1e-15:
            # The busy period was extended while this event was in
            # flight (the normal case for clustered routers); re-arm at
            # the current end.
            router.busy_end_event = self.sim.schedule_at(
                router.busy_until, self._on_busy_end, router, priority=1,
                label=f"busy-end-{router.node_id}",
            )
            return
        router.busy = False
        if router.pending_own:
            router.pending_own = False
            interval = self.config.timer.interval(router.rng, router.node_id)
            router.timer_event = self.sim.schedule(
                interval, self._on_timer_expire, router, label=f"expire-{router.node_id}"
            )
            if self.config.record_journal:
                self.journal.append((now, "reset", router.node_id))
            self.tracker.record_reset(now, router.node_id)
            self._schedule_stop_check(now)

    def _schedule_stop_check(self, now: float) -> None:
        """Arrange for the stop conditions to be checked once ``now`` settles.

        Same-instant co-resets arrive as separate events; checking after
        each one would observe a *transient* cluster state — e.g. a
        momentarily all-lone window one event before its co-reset lands
        and merges into a cluster.  A single lower-priority event at the
        same timestamp runs after every reset of the instant, so the
        decision is made on the settled state — exactly the state the
        cascade and batch engines see at the end of a cascade group.
        """
        if not (self._stop_on_full_sync or self._stop_on_full_unsync):
            return
        if self._stop_check_at == now:
            return
        self._stop_check_at = now
        self.sim.schedule_at(now, self._settled_stop_check, priority=2,
                             label="stop-check")

    def _settled_stop_check(self) -> None:
        self._stop_check_at = None
        self._check_stop()

    def _check_stop(self) -> bool:
        if self._stop_on_full_sync and self.tracker.is_fully_synchronized():
            self.sim.stop()
            return True
        if self._stop_on_full_unsync and self.tracker.is_fully_unsynchronized():
            self.sim.stop()
            return True
        return False

    # -- public API ---------------------------------------------------------------

    def inject_triggered_update(self, at_time: float, origin: int = 0) -> None:
        """Schedule a triggered update (a network change) from ``origin``.

        The origin immediately goes to step 1; its message carries a
        trigger identifier, so every receiver also goes to step 1 once
        — the paper's "wave of triggered updates", which leaves the
        whole network synchronized (in the ``after_busy`` model).
        """
        if not 0 <= origin < self.config.n_nodes:
            raise ValueError(f"origin must be a node id in [0, {self.config.n_nodes})")

        def fire() -> None:
            self._trigger_counter += 1
            trigger_id = self._trigger_counter
            router = self.routers[origin]
            router.last_trigger_seen = trigger_id
            if self.config.reset_mode == "after_busy" and router.timer_event is not None:
                router.timer_event.cancel()
                router.timer_event = None
            now = self.sim.now
            router.messages_sent += 1
            if self.config.record_transmissions:
                self.transmissions.append((now, router.node_id))
            if self.config.record_journal:
                self.journal.append((now, "expire", router.node_id))
            if self.config.reset_mode == "after_busy":
                router.pending_own = True
            self._extend_busy(router, now)
            # Deliver the trigger in two phases so every receiver has
            # abandoned its pending timer before the response wave of
            # ordinary messages starts arriving (otherwise a receiver
            # late in the wave would treat early responses as
            # overheard traffic).
            receivers = [other for other in self.routers if other is not router]
            for other in receivers:
                other.messages_processed += 1
                other.last_trigger_seen = trigger_id
                if self.config.reset_mode == "after_busy" and other.timer_event is not None:
                    other.timer_event.cancel()
                    other.timer_event = None
                self._extend_busy(other, now)  # processing the trigger
            for other in receivers:
                self._transmit(other)

        self.sim.schedule_at(at_time, fire, label=f"trigger-{origin}")

    def run(
        self,
        until: float,
        stop_on_full_sync: bool = False,
        stop_on_full_unsync: bool = False,
        max_events: int | None = None,
    ) -> float:
        """Run to the horizon (or an early-stop condition); returns end time."""
        self._stop_on_full_sync = stop_on_full_sync
        self._stop_on_full_unsync = stop_on_full_unsync
        end = self.sim.run(until=until, max_events=max_events)
        self.tracker.finish()
        return end

    @property
    def rounds_elapsed(self) -> float:
        """Approximate rounds completed (total resets / N)."""
        return self.tracker.total_resets / self.config.n_nodes

    def time_offsets(self) -> list[tuple[float, int, float]]:
        """(time, node, offset-within-round) for every recorded transmission.

        The offset is the transmission time mod ``Tp + Tc``, exactly
        the y-axis of the paper's Figure 4.  Requires
        ``record_transmissions=True``.
        """
        if not self.config.record_transmissions:
            raise RuntimeError("run was not configured with record_transmissions=True")
        period = self.config.timer.mean_interval + self.config.tc
        return [(t, node, t % period) for t, node in self.transmissions]
