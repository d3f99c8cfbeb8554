"""Routing-timer policies.

The interval a router waits between resetting its timer and the timer
next expiring is the system's only source of randomness, and its
magnitude decides whether the network synchronizes.  Section 6 of the
paper surveys the candidate policies; each is available here as a
:class:`TimerPolicy` so the simulation experiments can compare them.
"""

from __future__ import annotations

from typing import Protocol, Sequence

from ..rng import RandomSource

__all__ = [
    "TimerPolicy",
    "UniformJitterTimer",
    "FixedTimer",
    "RecommendedJitterTimer",
    "DistinctPeriodTimer",
]


class TimerPolicy(Protocol):
    """Draws the next timer interval for a router."""

    def interval(self, rng: RandomSource, node_id: int) -> float:
        """Return the seconds until the timer next expires.

        Parameters
        ----------
        rng:
            The router's private random stream.
        node_id:
            Identity of the drawing router (used by per-router
            policies such as :class:`DistinctPeriodTimer`).
        """
        ...

    @property
    def mean_interval(self) -> float:
        """Expected interval, used for round-length bookkeeping."""
        ...


class UniformJitterTimer:
    """The paper's timer: uniform on ``[Tp - Tr, Tp + Tr]``.

    ``Tr = 0`` degenerates to a fixed timer; ``Tr = Tp/2`` is the
    paper's recommended strong randomization.
    """

    def __init__(self, tp: float, tr: float) -> None:
        if tp <= 0:
            raise ValueError("Tp must be positive")
        if not 0 <= tr <= tp:
            raise ValueError(f"Tr must be in [0, Tp], got Tr={tr}, Tp={tp}")
        self.tp = tp
        self.tr = tr

    def interval(self, rng: RandomSource, node_id: int) -> float:
        return rng.uniform(self.tp - self.tr, self.tp + self.tr)

    @property
    def mean_interval(self) -> float:
        return self.tp

    def __repr__(self) -> str:  # pragma: no cover
        return f"UniformJitterTimer(tp={self.tp}, tr={self.tr})"


class FixedTimer(UniformJitterTimer):
    """A deterministic timer (``Tr = 0``).

    With no noise at all, clusters can neither form from an
    unsynchronized start (offsets never move) nor break up from a
    synchronized one — the degenerate limit of the model.
    """

    def __init__(self, tp: float) -> None:
        super().__init__(tp, 0.0)


class RecommendedJitterTimer(UniformJitterTimer):
    """The paper's closing recommendation: uniform on ``[0.5 Tp, 1.5 Tp]``.

    "Setting the timer each round to a time from the uniform
    distribution on the interval [0.5 Tp, 1.5 Tp] seconds would be a
    simple way to avoid synchronized routing messages."
    """

    def __init__(self, tp: float) -> None:
        super().__init__(tp, 0.5 * tp)


class DistinctPeriodTimer:
    """Per-router fixed periods (an administrator-assigned alternative).

    Section 6 mentions setting "the routing update interval at each
    router to a different random value" for small networks.  Each
    router ``k`` uses the fixed period ``periods[k]``; there is no
    per-round randomness.
    """

    def __init__(self, periods: Sequence[float]) -> None:
        if not periods:
            raise ValueError("need at least one period")
        if any(p <= 0 for p in periods):
            raise ValueError("all periods must be positive")
        self.periods = tuple(float(p) for p in periods)

    @classmethod
    def evenly_spread(cls, tp: float, n_nodes: int, spread: float = 0.1) -> "DistinctPeriodTimer":
        """Periods spread evenly over ``[Tp(1-spread), Tp(1+spread)]``."""
        if n_nodes == 1:
            return cls([tp])
        step = 2 * spread * tp / (n_nodes - 1)
        return cls([tp * (1 - spread) + k * step for k in range(n_nodes)])

    def interval(self, rng: RandomSource, node_id: int) -> float:
        return self.periods[node_id % len(self.periods)]

    @property
    def mean_interval(self) -> float:
        return sum(self.periods) / len(self.periods)

    def __repr__(self) -> str:  # pragma: no cover
        return f"DistinctPeriodTimer(n={len(self.periods)})"
