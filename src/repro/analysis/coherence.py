"""Phase-coherence measures of synchronization.

The paper quantifies synchronization through the size of the largest
cluster.  As an extension we also provide the Kuramoto order
parameter: mapping each router's time-offset within the round onto a
phase angle, the magnitude ``R`` of the mean unit phasor is ~0 for
uniformly spread offsets and 1 for perfect synchronization.  ``R``
responds smoothly where cluster size is quantized, which makes it a
useful secondary diagnostic for the phase transition.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

__all__ = ["order_parameter", "offsets_to_phases"]


def offsets_to_phases(offsets: Sequence[float], period: float) -> list[float]:
    """Map time-offsets within a round of length ``period`` to angles in radians."""
    if period <= 0:
        raise ValueError("period must be positive")
    return [2.0 * math.pi * ((value % period) / period) for value in offsets]


def order_parameter(phases: Sequence[float]) -> float:
    """Kuramoto order parameter ``R`` in [0, 1].

    ``R = |mean(exp(i * phase))|``: 1 means all phases equal, values
    near 0 mean the phases are spread around the circle.
    """
    if not phases:
        raise ValueError("order_parameter of empty phase list")
    total = sum(cmath.exp(1j * phase) for phase in phases)
    return abs(total) / len(phases)
