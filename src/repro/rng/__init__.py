"""Deterministic pseudo-random number generation.

Implements the Park--Miller "minimal standard" generator (including
Carta's division-free variant cited by the paper as [Ca90]) and a
:class:`RandomSource` facade providing the distributions the simulators
need, with reproducible stream splitting.
"""

from .distributions import RandomSource
from .lehmer import (
    MODULUS,
    MULTIPLIER,
    CartaGenerator,
    LehmerGenerator,
    SchrageGenerator,
    minimal_standard_check,
)

__all__ = [
    "MODULUS",
    "MULTIPLIER",
    "CartaGenerator",
    "LehmerGenerator",
    "SchrageGenerator",
    "minimal_standard_check",
    "RandomSource",
]
