"""Long-run synchronization behaviour (Section 5.3, Figures 12-15).

The paper estimates the fraction of time the system spends
unsynchronized as ``f(N) / (f(N) + g(1))`` and shows that, as either
the random component ``Tr`` or the node count ``N`` is varied, this
fraction switches abruptly between ~1 and ~0 — the phase transition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.parameters import RouterTimingParameters
from .hitting_times import synchronization_times

__all__ = [
    "RandomizationRegion",
    "classify_randomization",
    "fraction_unsynchronized_sweep",
    "fraction_unsynchronized_vs_nodes",
    "transition_sharpness",
]


@dataclass(frozen=True)
class RandomizationRegion:
    """Classification of a parameter point (Figure 12's three regions)."""

    region: str  # "low", "moderate", or "high"
    rounds_to_synchronize: float
    rounds_to_break_up: float


def classify_randomization(
    params: RouterTimingParameters,
    threshold_rounds: float = 1e5,
    f2: float | None = None,
) -> RandomizationRegion:
    """Label a parameter point low/moderate/high randomization.

    * low — the system synchronizes quickly (``f(N)`` below the
      threshold) and essentially never breaks up;
    * high — it breaks up quickly (``g(1)`` below the threshold) and
      essentially never synchronizes;
    * moderate — both passages take a long time.
    """
    times = synchronization_times(params, f2=f2)
    f_n = times.rounds_to_synchronize
    g_1 = times.rounds_to_break_up
    fast_sync = f_n <= threshold_rounds
    fast_break = g_1 <= threshold_rounds
    if fast_sync and not fast_break:
        region = "low"
    elif fast_break and not fast_sync:
        region = "high"
    elif fast_sync and fast_break:
        # Both fast: the side that is faster dominates.
        region = "low" if f_n < g_1 else "high"
    else:
        region = "moderate"
    return RandomizationRegion(region, f_n, g_1)


def fraction_unsynchronized_sweep(
    params: RouterTimingParameters,
    tr_values: Sequence[float],
    f2: float | None = None,
) -> list[tuple[float, float]]:
    """Figure 14: (Tr, fraction of time unsynchronized) pairs."""
    results = []
    for tr in tr_values:
        times = synchronization_times(params.with_tr(tr), f2=f2)
        results.append((tr, times.fraction_unsynchronized()))
    return results


def fraction_unsynchronized_vs_nodes(
    params: RouterTimingParameters,
    n_values: Sequence[int],
    f2: float | None = None,
) -> list[tuple[int, float]]:
    """Figure 15: (N, fraction of time unsynchronized) pairs."""
    results = []
    for n in n_values:
        times = synchronization_times(params.with_nodes(n), f2=f2)
        results.append((n, times.fraction_unsynchronized()))
    return results


def transition_sharpness(
    curve: Sequence[tuple[float, float]],
    low: float = 0.1,
    high: float = 0.9,
) -> float:
    """Width of the parameter interval where the curve crosses (low, high).

    For the phase-transition figures this quantifies "abrupt": the
    returned width is the distance between the last parameter with
    fraction <= low and the first with fraction >= high (or vice versa
    for decreasing curves).  Raises if the curve never spans the band.
    """
    if not 0.0 <= low < high <= 1.0:
        raise ValueError("need 0 <= low < high <= 1")
    xs = [x for x, _ in curve]
    ys = [y for _, y in curve]
    if len(xs) < 2:
        raise ValueError("need at least two points")
    increasing = ys[-1] >= ys[0]
    if not increasing:
        ys = [1.0 - y for y in ys]
        low, high = 1.0 - high, 1.0 - low
    below = [x for x, y in zip(xs, ys) if y <= low]
    above = [x for x, y in zip(xs, ys) if y >= high]
    if not below or not above:
        raise ValueError("curve does not span the requested band")
    return abs(min(above) - max(below))
