"""Estimating ``f(2)`` / ``p(1,2)``.

The paper leaves ``p(1,2)`` — the per-round probability that the first
cluster of size two forms out of N lone routers — "as a variable",
fitting ``f(2) = 19`` rounds for the Figure 10 parameters from
"simulations and an approximate analysis that is not given here".

:func:`estimate_f2_diffusion` is a documented approximate analysis:
the minimum gap among N uniform offsets on ``[0, Tp]`` has mean about
``Tp / N^2``; per round each adjacent gap diffuses with the step of a
difference of two uniforms on ``[-Tr, Tr]`` (standard deviation
``Tr * sqrt(2/3)``), and the first cluster forms when the closest pair
drifts to within ``Tc``.  Treating that as an unbiased random walk
gives ``f(2) ~ (max(0, Tp/N^2 - Tc) / step_std)^2 + 1``.  For the
paper's Figure 10 parameters this yields the right order of magnitude
(a handful to a few tens of rounds).
"""

from __future__ import annotations

import math

from ..core.parameters import RouterTimingParameters

__all__ = ["estimate_f2_diffusion"]


def estimate_f2_diffusion(params: RouterTimingParameters) -> float:
    """Diffusion approximation for ``f(2)`` in rounds (see module doc).

    Returns at least 1.0 (the formation takes at least a round) and
    ``math.inf`` when the timers carry no randomness at all (offsets
    never move, so no cluster can ever form).
    """
    n, tp, tc, tr = params.n_nodes, params.tp, params.tc, params.tr
    if n < 2:
        raise ValueError("need at least two routers to form a cluster")
    expected_min_gap = tp / (n * n)
    distance = max(0.0, expected_min_gap - tc)
    if distance == 0.0:
        return 1.0
    step_std = tr * math.sqrt(2.0 / 3.0)
    if step_std == 0.0:
        return math.inf
    return (distance / step_std) ** 2 + 1.0
