"""Expected times to synchronize and to break up (Section 5.2).

The paper defines ``f(i)`` as the expected number of rounds for the
chain to first reach state ``i`` starting from state 1 (so ``f(N)`` is
the expected time to synchronize) and ``g(i)`` as the expected rounds
to first reach state ``i`` starting from state N (``g(1)`` is the
expected time to break up).  It also defines the conditional one-step
quantities ``t(j, j+1)`` and ``t(j, j-1)``.

Both the paper's recursive formulation and the standard birth--death
first-passage recursion are implemented; they are algebraically
identical, which the test suite verifies (together with a dense linear
solve).  ``f`` depends on ``f(2) = 1/p(1,2)``, which the paper fits
externally; ``g`` does not depend on it at all.
"""

from __future__ import annotations

import math

from ..core.parameters import RouterTimingParameters
from .chain import BirthDeathChain
from .transitions import build_chain

__all__ = [
    "conditional_step_rounds_paper_printed",
    "f_values",
    "g_values",
    "f_values_paper_recursion",
    "g_values_paper_recursion",
    "conditional_step_rounds",
    "SynchronizationTimes",
    "synchronization_times",
]


def conditional_step_rounds(chain: BirthDeathChain, j: int) -> tuple[float, float]:
    """``(t(j, j-1), t(j, j+1))``: expected rounds in state ``j`` before
    it is left, given the exit direction.

    For a lazy chain the holding time is geometric with success
    probability ``p + q`` independent of the exit direction, so both
    conditional expectations equal ``1 / (p_j + q_j)``.
    """
    p, q = chain.p(j), chain.q(j)
    if p + q == 0.0:
        return math.inf, math.inf
    hold = 1.0 / (p + q)
    return hold, hold


def conditional_step_rounds_paper_printed(
    chain: BirthDeathChain, j: int
) -> tuple[float, float]:
    """The ``t(j, j±1)`` expressions exactly as printed in the paper.

    The publication prints ``t(j,j+1) = p / (p+q)^2`` (the expected
    value of ``X * 1{exit upward}``, i.e. the *unconditional* joint
    expectation) where its prose defines the *conditional* expectation
    "given that the next state is j+1", which is ``1/(p+q)``.  The two
    differ by the factor ``P(up) = p/(p+q)``; only the conditional
    form makes the paper's f/g recursions reproduce the exact
    birth--death hitting times, so :func:`conditional_step_rounds` is
    what the rest of this package uses.  This variant is retained for
    fidelity comparisons (see docs/MODEL.md §3).
    """
    p, q = chain.p(j), chain.q(j)
    if p + q == 0.0:
        return math.inf, math.inf
    denominator = (p + q) ** 2
    t_down = q / denominator if q > 0 else math.inf
    t_up = p / denominator if p > 0 else math.inf
    return t_down, t_up


def f_values(chain: BirthDeathChain, f2: float | None = None) -> list[float]:
    """``f(1..N)``: expected rounds from state 1 to first reach each state.

    Parameters
    ----------
    chain:
        The birth--death chain.
    f2:
        Optional override for ``f(2)``; when given, it replaces the
        value ``1/p(1,2)`` implied by the chain, exactly as the paper
        substitutes its fitted 19 rounds (or 0 for the dotted line of
        Figure 12).
    """
    h = chain.expected_steps_up()
    if f2 is not None:
        if f2 < 0:
            raise ValueError("f(2) must be non-negative")
        h[0] = f2
    values = [0.0]
    total = 0.0
    for step in h:
        total = total + step
        values.append(total)
    return values


def g_values(chain: BirthDeathChain) -> list[float]:
    """``g(1..N)``: expected rounds from state N to first reach each state."""
    d = chain.expected_steps_down()  # d[i-2] = steps from i to i-1
    values = [0.0] * chain.n
    total = 0.0
    for i in range(chain.n - 1, 0, -1):
        total = total + d[i - 1]
        values[i - 1] = total
    return values


def f_values_paper_recursion(chain: BirthDeathChain, f2: float) -> list[float]:
    """``f`` via the paper's Section 5.2 recursion.

    ``f(i) = f(i-1) + [q/(q+p)] (t(i-1,i-2) + f(i) - f(i-2))
              + [p/(q+p)] t(i-1,i)``

    solved for ``f(i)``, where ``p = p(i-1,i)`` and ``q = p(i-1,i-2)``
    and the ``t`` terms are the conditional holding times.  Provided
    for fidelity with the publication; equals :func:`f_values`.
    """
    if f2 < 0:
        raise ValueError("f(2) must be non-negative")
    values = [0.0, f2]
    for i in range(3, chain.n + 1):
        p = chain.p(i - 1)
        q = chain.q(i - 1)
        if p == 0.0:
            values.append(math.inf)
            continue
        t_down, t_up = conditional_step_rounds(chain, i - 1)
        weight_down = q / (p + q)
        weight_up = p / (p + q)
        f_prev, f_prev2 = values[i - 2], values[i - 3]
        # f_i (1 - w_down) = f_prev + w_down (t_down - f_prev2) + w_up t_up
        numerator = f_prev + weight_down * (t_down - f_prev2) + weight_up * t_up
        values.append(numerator / (1.0 - weight_down))
    return values


def g_values_paper_recursion(chain: BirthDeathChain) -> list[float]:
    """``g`` via the paper's recursion (mirror image of ``f``)."""
    values_rev = [0.0]  # g(N)
    # Build g(N-1), ..., g(1).
    g_next = 0.0  # g(i+1)
    g_next2 = 0.0  # g(i+2)
    for i in range(chain.n - 1, 0, -1):
        p = chain.p(i + 1)
        q = chain.q(i + 1)
        if q == 0.0:
            values_rev.append(math.inf)
            g_next, g_next2 = math.inf, g_next
            continue
        t_down, t_up = conditional_step_rounds(chain, i + 1)
        weight_up = p / (p + q)
        weight_down = q / (p + q)
        numerator = g_next + weight_up * (t_up - g_next2) + weight_down * t_down
        g_i = numerator / (1.0 - weight_up) if weight_up < 1.0 else math.inf
        values_rev.append(g_i)
        g_next, g_next2 = g_i, g_next
    return list(reversed(values_rev))


class SynchronizationTimes:
    """Bundle of the quantities Figures 10-15 are drawn from.

    Attributes
    ----------
    params:
        The timing parameters.
    chain:
        The underlying birth--death chain.
    f:
        ``f(1..N)`` in rounds.
    g:
        ``g(1..N)`` in rounds.
    """

    def __init__(
        self,
        params: RouterTimingParameters,
        chain: BirthDeathChain,
        f: list[float],
        g: list[float],
    ) -> None:
        self.params = params
        self.chain = chain
        self.f = f
        self.g = g

    @property
    def rounds_to_synchronize(self) -> float:
        """``f(N)`` in rounds."""
        return self.f[-1]

    @property
    def rounds_to_break_up(self) -> float:
        """``g(1)`` in rounds."""
        return self.g[0]

    @property
    def seconds_per_round(self) -> float:
        """The paper converts rounds to seconds with ``Tp + Tc``."""
        return self.params.round_length

    @property
    def seconds_to_synchronize(self) -> float:
        """``f(N) * (Tp + Tc)``."""
        return self.rounds_to_synchronize * self.seconds_per_round

    @property
    def seconds_to_break_up(self) -> float:
        """``g(1) * (Tp + Tc)``."""
        return self.rounds_to_break_up * self.seconds_per_round

    def fraction_unsynchronized(self) -> float:
        """The paper's estimator ``f(N) / (f(N) + g(1))``.

        1.0 when the system can never synchronize, 0.0 when it can
        never break up.
        """
        f_n, g_1 = self.rounds_to_synchronize, self.rounds_to_break_up
        if math.isinf(f_n) and math.isinf(g_1):
            return 0.5  # neither passage possible; convention
        if math.isinf(f_n):
            return 1.0
        if math.isinf(g_1):
            return 0.0
        return f_n / (f_n + g_1)


def synchronization_times(
    params: RouterTimingParameters,
    p12: float | None = None,
    f2: float | None = None,
) -> SynchronizationTimes:
    """Build the chain and compute ``f`` and ``g`` for the parameters.

    Exactly one of ``p12`` or ``f2`` may be given (they are reciprocal);
    if neither is supplied the diffusion estimate from
    :func:`repro.markov.calibration.estimate_f2_diffusion` is used.
    """
    if p12 is not None and f2 is not None:
        raise ValueError("give p12 or f2, not both")
    if p12 is None:
        if f2 is None:
            from .calibration import estimate_f2_diffusion

            f2 = estimate_f2_diffusion(params)
        p12 = 1.0 / f2 if f2 > 0 else 1.0
        p12 = min(p12, 1.0)
    chain = build_chain(params, p12=p12)
    f = f_values(chain, f2=f2)
    g = g_values(chain)
    return SynchronizationTimes(params, chain, f, g)
