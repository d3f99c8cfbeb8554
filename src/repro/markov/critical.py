"""Locating the phase boundary.

Figures 14 and 15 show the fraction of time unsynchronized switching
abruptly as ``Tr`` or ``N`` crosses a threshold.  These helpers find
that threshold numerically: the value where the estimator
``f(N)/(f(N)+g(1))`` crosses one half.  Deployment guidance ("how much
jitter does this network need", "how many routers until this network
locks up") falls straight out.
"""

from __future__ import annotations

from ..core.parameters import RouterTimingParameters
from .hitting_times import synchronization_times

__all__ = ["fraction_unsynchronized_at", "critical_tr"]


def fraction_unsynchronized_at(params: RouterTimingParameters, f2: float | None = None) -> float:
    """The equilibrium estimator at one parameter point."""
    return synchronization_times(params, f2=f2).fraction_unsynchronized()


def critical_tr(
    params: RouterTimingParameters,
    tr_low: float | None = None,
    tr_high: float | None = None,
    tolerance: float = 1e-3,
    f2: float | None = None,
) -> float:
    """The Tr at which the network switches to staying unsynchronized.

    Bisects the fraction-unsynchronized estimator (monotone
    non-decreasing in Tr) for its 0.5 crossing.  Defaults bracket with
    ``[Tc/2, min(8 Tc, Tp)]``; raises if the bracket does not span the
    transition.
    """
    tc = params.tc
    if tc <= 0:
        raise ValueError("critical_tr needs a positive Tc")
    lo = tr_low if tr_low is not None else 0.51 * tc
    hi = tr_high if tr_high is not None else min(8.0 * tc, params.tp)
    if not 0 <= lo < hi:
        raise ValueError(f"invalid bracket [{lo}, {hi}]")
    f_lo = fraction_unsynchronized_at(params.with_tr(lo), f2=f2)
    f_hi = fraction_unsynchronized_at(params.with_tr(hi), f2=f2)
    if f_lo >= 0.5 or f_hi <= 0.5:
        raise ValueError(
            f"bracket does not span the transition: "
            f"fraction({lo:.4g})={f_lo:.3g}, fraction({hi:.4g})={f_hi:.3g}"
        )
    while hi - lo > tolerance * tc:
        mid = 0.5 * (lo + hi)
        if fraction_unsynchronized_at(params.with_tr(mid), f2=f2) < 0.5:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
