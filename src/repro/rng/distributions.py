"""Random variates layered on the minimal-standard generator.

The simulator never touches :mod:`random` or :mod:`numpy.random`
directly; every stochastic draw flows through a :class:`RandomSource`
wrapping a Lehmer stream.  That keeps runs bit-for-bit reproducible
from a single integer seed and lets tests substitute scripted sources.
"""

from __future__ import annotations

import math
from typing import Protocol, Sequence

from .lehmer import CartaGenerator, LehmerGenerator

__all__ = ["RandomSource"]


class _UniformStream(Protocol):
    """Anything producing i.i.d. uniforms on (0, 1)."""

    def random(self) -> float: ...


class RandomSource:
    """Distribution helpers over a uniform stream.

    Parameters
    ----------
    seed:
        Seed for the underlying minimal-standard generator.  Ignored if
        ``generator`` is given.
    generator:
        An explicit uniform stream (any object with ``random()``),
        e.g. a :class:`~repro.rng.lehmer.LehmerGenerator`, or a
        scripted list of values in tests.
    """

    def __init__(self, seed: int = 1, generator: _UniformStream | None = None) -> None:
        self._gen: _UniformStream = generator if generator is not None else CartaGenerator(seed)
        self._gauss_spare: float | None = None

    @classmethod
    def scrambled(cls, seed: int) -> "RandomSource":
        """A source whose stream is decorrelated from nearby seeds.

        The raw Lehmer recurrence maps consecutive seeds to nearly
        identical first draws (``x1 = 16807*seed`` — seeds 60 and 61
        differ by 5e-4 in their first uniform), so entities seeded
        ``seed, seed+1, seed+2, ...`` would start life nearly in phase
        — a disastrous artifact in a synchronization study.  This
        constructor mixes the seed through a multiplicative hash
        first.
        """
        mixed = (int(seed) * 2654435761 + 0x9E3779B9) % (2**31 - 1)
        return cls(seed=mixed or 1)

    # -- primitives -----------------------------------------------------

    def random(self) -> float:
        """Uniform on the open interval (0, 1)."""
        return self._gen.random()

    def uniform(self, low: float, high: float) -> float:
        """Uniform on ``[low, high]``.

        ``low == high`` is permitted and returns that constant, which
        is how a zero random timer component (``Tr = 0``) is expressed.
        """
        if high < low:
            raise ValueError(f"uniform() requires low <= high, got [{low}, {high}]")
        return low + (high - low) * self.random()

    def exponential(self, mean: float) -> float:
        """Exponential variate with the given mean (``mean > 0``)."""
        if mean <= 0:
            raise ValueError(f"exponential() requires mean > 0, got {mean}")
        return -mean * math.log(self.random())

    def triangular_symmetric(self, half_width: float) -> float:
        """Symmetric triangular variate on ``[-half_width, +half_width]``.

        The per-round change of a lone router's time-offset is the
        difference of two independent uniforms on ``[-Tr, Tr]``, which
        is triangular on ``[-2 Tr, 2 Tr]``; this helper draws such a
        difference directly.
        """
        if half_width < 0:
            raise ValueError("half_width must be non-negative")
        return (self.random() - self.random()) * half_width

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        """Gaussian variate via Marsaglia's polar method."""
        if std < 0:
            raise ValueError("std must be non-negative")
        if self._gauss_spare is not None:
            z = self._gauss_spare
            self._gauss_spare = None
            return mean + std * z
        while True:
            u = 2.0 * self.random() - 1.0
            v = 2.0 * self.random() - 1.0
            s = u * u + v * v
            if 0.0 < s < 1.0:
                break
        factor = math.sqrt(-2.0 * math.log(s) / s)
        self._gauss_spare = v * factor
        return mean + std * u * factor

    # -- discrete helpers ------------------------------------------------

    def randint(self, low: int, high: int) -> int:
        """Uniform integer on the inclusive range ``[low, high]``."""
        if high < low:
            raise ValueError(f"randint() requires low <= high, got [{low}, {high}]")
        span = high - low + 1
        return low + min(span - 1, int(self.random() * span))

    def bernoulli(self, probability: float) -> bool:
        """True with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        return self.random() < probability

    def choice(self, items: Sequence):
        """Uniformly random element of a non-empty sequence."""
        if not items:
            raise ValueError("choice() on empty sequence")
        return items[self.randint(0, len(items) - 1)]

    def shuffle(self, items: list) -> None:
        """In-place Fisher--Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]

    # -- stream management -----------------------------------------------

    def spawn(self, stream_id: int) -> "RandomSource":
        """Derive an independent child source.

        Children are seeded by jumping the parent's generator and
        mixing in ``stream_id``, so ``spawn(0)`` and ``spawn(1)`` give
        uncorrelated streams and the sequence of spawns is itself
        reproducible.
        """
        base = self._gen.next_int() if isinstance(self._gen, LehmerGenerator) else int(self.random() * (2**31 - 2)) + 1
        mixed = (base * 2654435761 + (stream_id + 1) * 40503) % (2**31 - 1)
        return RandomSource(seed=mixed or 1)
