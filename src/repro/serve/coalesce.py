"""Single-flight request coalescing keyed on content hashes.

N concurrent requests for the same content-addressed key fan in to
one computation: the first arrival (the *leader*) registers a future
and runs the work; everyone else (the *followers*) awaits the same
future and receives the **same bytes** object.  Combined with the
PR-1 result cache underneath, a thundering herd of identical
simulation requests costs exactly one simulation, once, ever.

The registry is safe without locks because claims happen on the
server's single event-loop thread: ``claim`` runs synchronously
between awaits, so a key can never be claimed twice in one tick.
Entries are removed when their future settles — a later request for
the same key after completion starts a fresh flight (which the cache
then answers without recomputation).
"""

from __future__ import annotations

import asyncio

__all__ = ["CoalesceCancelledError", "Coalescer"]


class CoalesceCancelledError(RuntimeError):
    """The in-flight computation a follower was awaiting got cancelled.

    Raised *instead of* a bare ``asyncio.CancelledError`` so a
    follower's handler keeps running and can answer its client with a
    retryable 503 + Retry-After — a cancelled leader must never
    silently drop the followers' connections.  The leader settles the
    shared future with this error on its way out (see
    ``SimulationServer._lead_async``), and ``_await_pieces`` answers
    it, like a directly-cancelled future, with the retryable 503.
    """


class Coalescer:
    """Single-flight registry of in-flight computations by key."""

    def __init__(self, metrics=None) -> None:
        self.metrics = metrics
        self._inflight: dict[str, asyncio.Future] = {}
        self.leaders = 0
        self.followers = 0

    def claim(self, key: str) -> tuple[asyncio.Future, bool]:
        """Return ``(future, is_leader)`` for one request.

        Must be called from the event-loop thread.  The leader is
        responsible for settling the future (result or exception);
        settling automatically retires the key.
        """
        future = self._inflight.get(key)
        if future is not None:
            self.followers += 1
            if self.metrics is not None:
                self.metrics.counter("serve.coalesce.followers").inc()
            return future, False
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        future.add_done_callback(lambda fut, key=key: self._retire(key, fut))
        self.leaders += 1
        if self.metrics is not None:
            self.metrics.counter("serve.coalesce.leaders").inc()
        return future, True

    def _retire(self, key: str, future: asyncio.Future) -> None:
        self._inflight.pop(key, None)
        if not future.cancelled():
            # Mark a failure as retrieved even if every awaiter gave
            # up first (deadline), so asyncio never logs a spurious
            # "exception was never retrieved".
            future.exception()

    def peek(self, key: str) -> asyncio.Future | None:
        """The in-flight future for ``key``, if any (no claim)."""
        return self._inflight.get(key)

    @property
    def inflight(self) -> int:
        """Number of keys currently being computed."""
        return len(self._inflight)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Coalescer(inflight={self.inflight}, leaders={self.leaders}, "
            f"followers={self.followers})"
        )
