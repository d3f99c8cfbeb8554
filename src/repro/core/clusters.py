"""Cluster bookkeeping for the Periodic Messages model.

A *cluster* is a set of routers that reset their routing timers at the
same instant — in the model, synchronized routers accumulate exactly
the same busy-period extensions, so their reset times are identical.
The :class:`ClusterTracker` groups timer-reset events into clusters
online, maintains the "largest cluster in the current round of N
routing messages" statistic the paper's cluster graphs plot (Figure
6), and records first-passage times to each cluster size (the
simulation curves of Figures 10 and 11).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

__all__ = ["ClusterGroup", "ClusterTracker"]

#: Two resets within this many seconds belong to the same cluster.  In
#: the model synchronized resets are *exactly* simultaneous; the
#: tolerance only guards against floating-point drift in long runs.
RESET_TIME_TOLERANCE = 1e-7


@dataclass(frozen=True)
class ClusterGroup:
    """One group of simultaneous timer resets."""

    time: float
    size: int


class ClusterTracker:
    """Online cluster detection over the stream of timer resets.

    Parameters
    ----------
    n_nodes:
        Number of routers N; a round is N consecutive routing messages,
        and a cluster of size N means full synchronization.
    keep_history:
        When True, every closed :class:`ClusterGroup` is retained in
        :attr:`groups` (needed to draw cluster graphs).  When False,
        only the online statistics are kept, so arbitrarily long runs
        use constant memory.
    tolerance:
        Resets within this many seconds of the group's first reset are
        counted as simultaneous.  The default suits the paper's
        immediate-notification model, where clustered resets are
        exactly simultaneous; runs with a positive notification delay
        pass a correspondingly larger value.
    """

    def __init__(
        self,
        n_nodes: int,
        keep_history: bool = True,
        tolerance: float = RESET_TIME_TOLERANCE,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("n_nodes must be positive")
        if tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        self.n_nodes = n_nodes
        self.keep_history = keep_history
        self.tolerance = tolerance
        self.groups: list[ClusterGroup] = []
        self.total_resets = 0
        # The currently-open group of simultaneous resets.
        self._open_time: float | None = None
        self._open_size = 0
        # Sliding window of the last N reset events' group sizes.  Each
        # entry is the (mutable running) size of the group that reset
        # belonged to; storing per-group (size, count-in-window) pairs.
        self._window: deque[list] = deque()  # entries: [group_size, resets_in_window]
        self._window_resets = 0
        # The largest entry size in the window, kept incrementally:
        # raised when the newest entry grows, rescanned only when an
        # evicted entry was as large as it (the C kernel's rule).
        self._window_max = 0
        # First-passage bookkeeping.
        self.first_time_at_least: dict[int, float] = {}
        self.first_time_at_most: dict[int, float] = {}
        # Non-overlapping per-round largest-cluster series (Figure 6).
        self.round_times: list[float] = []
        self.round_largest: list[int] = []
        self._round_fill = 0
        self._round_max = 0
        self._round_end_time = 0.0

    # -- event intake ------------------------------------------------------

    def record_reset(self, time: float, node_id: int) -> None:
        """Record that ``node_id`` reset its routing timer at ``time``.

        Resets must be fed in non-decreasing time order (the DES
        guarantees this).
        """
        open_time = self._open_time
        window = self._window
        n = self.n_nodes
        if open_time is not None and time < open_time - self.tolerance:
            raise ValueError(f"resets out of order: {time} after {open_time}")
        self.total_resets += 1
        if open_time is not None and abs(time - open_time) <= self.tolerance:
            size = self._open_size + 1
            window[-1][0] = size
        else:
            self._close_open_group()
            self._open_time = time
            size = 1
            window.append([1, 0])
        self._open_size = size
        if size > self._window_max:
            self._window_max = size
        # The newest reset joins the window.
        window[-1][1] += 1
        resets = self._window_resets + 1
        while resets > n:
            oldest = window[0]
            oldest[1] -= 1
            resets -= 1
            if oldest[1] == 0:
                window.popleft()
                # The newest entry holds this reset, so the window is
                # never empty here; sizes are >= 1, so a maximum of 1
                # cannot fall.
                if oldest[0] >= self._window_max > 1:
                    self._window_max = max(entry[0] for entry in window)
        self._window_resets = resets
        # First passages: a cluster of this size implies all smaller
        # sizes were reached, a window maximum of this size all bigger.
        at_least = self.first_time_at_least
        if size not in at_least:
            for smaller in range(size, 0, -1):
                if smaller in at_least:
                    break
                at_least[smaller] = time
        if resets >= n:
            largest = self._window_max
            at_most = self.first_time_at_most
            if largest not in at_most:
                for bigger in range(largest, n + 1):
                    if bigger in at_most:
                        break
                    at_most[bigger] = time
        # The non-overlapping per-round largest-cluster series.
        self._round_fill += 1
        if size > self._round_max:
            self._round_max = size
        if self._round_fill >= n:
            self.round_times.append(time)
            self.round_largest.append(self._round_max)
            self._round_fill = 0
            self._round_max = 0

    def _close_open_group(self) -> None:
        if self._open_time is None:
            return
        if self.keep_history:
            self.groups.append(ClusterGroup(self._open_time, self._open_size))
        self._open_time = None
        self._open_size = 0

    def finish(self) -> None:
        """Close the trailing open group (call once, at end of run)."""
        self._close_open_group()

    # -- derived statistics ---------------------------------------------------

    def largest_in_window(self) -> int:
        """Largest cluster among the last N routing messages.

        This is the paper's per-round state: the Markov chain is "in
        state i" when the largest cluster from a round of N routing
        messages has size i.
        """
        return self._window_max

    def is_fully_synchronized(self) -> bool:
        """True when the last N messages form a single simultaneous cluster."""
        return self._open_size >= self.n_nodes or (
            self._window_resets >= self.n_nodes and self.largest_in_window() >= self.n_nodes
        )

    def is_fully_unsynchronized(self) -> bool:
        """True when a full window of N messages contains only lone resets."""
        return self._window_resets >= self.n_nodes and self.largest_in_window() <= 1

    # -- reporting -----------------------------------------------------------

    def time_to_cluster_size(self, size: int) -> float | None:
        """First time a simultaneous cluster of at least ``size`` was seen."""
        if not 1 <= size <= self.n_nodes:
            raise ValueError(f"size must be in [1, {self.n_nodes}]")
        return self.first_time_at_least.get(size)

    def time_to_break_down_to(self, size: int) -> float | None:
        """First time the per-round largest cluster fell to ``size`` or less."""
        if not 1 <= size <= self.n_nodes:
            raise ValueError(f"size must be in [1, {self.n_nodes}]")
        return self.first_time_at_most.get(size)

    @property
    def synchronization_time(self) -> float | None:
        """First time a full cluster of N simultaneous resets formed."""
        return self.first_time_at_least.get(self.n_nodes)

    @property
    def breakup_time(self) -> float | None:
        """First time the system returned to all-lone-clusters."""
        return self.first_time_at_most.get(1)

    def cluster_size_histogram(self) -> dict[int, int]:
        """Counts of closed groups by size (requires ``keep_history``)."""
        if not self.keep_history:
            raise RuntimeError("history was not kept")
        histogram: dict[int, int] = {}
        for group in self.groups:
            histogram[group.size] = histogram.get(group.size, 0) + 1
        return histogram
