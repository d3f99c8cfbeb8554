"""Figure 8: time to break up versus the random component Tr.

Three simulations start fully synchronized (the state a wave of
triggered updates leaves behind) with Tr = 2.3 Tc, 2.5 Tc, and 2.8 Tc.
As Tr grows, break-up accelerates: the paper's runs stay synchronized
at 2.3 Tc, break after 4,791 rounds (7 days) at 2.5 Tc, and after 300
rounds (10 hours) at 2.8 Tc.
"""

from __future__ import annotations

from ..core import RouterTimingParameters, sweep_tr
from .result import FigureResult

__all__ = ["run", "PAPER_PARAMS"]

PAPER_PARAMS = RouterTimingParameters(n_nodes=20, tp=121.0, tc=0.11, tr=0.1)


def run(
    tr_multiples: tuple[float, ...] = (2.3, 2.5, 2.8),
    horizon: float = 1e7,
    seeds: tuple[int, ...] = (1,),
    jobs: int = 1,
    cache=None,
    checkpoint: bool = False,
    engine: str = "cascade",
) -> FigureResult:
    """Reproduce Figure 8 (pass a smaller horizon for a fast run).

    The (Tr, seed) grid runs through the parallel layer; ``jobs``,
    ``cache``, and ``engine`` change wall-clock only.
    """
    tc = PAPER_PARAMS.tc
    result = FigureResult(
        figure_id="fig08",
        title="Simulations starting with synchronized updates, varying Tr",
    )
    runs = sweep_tr(
        PAPER_PARAMS, [m * tc for m in tr_multiples], horizon,
        direction="break_up", seeds=seeds, engine=engine, jobs=jobs,
        cache=cache, checkpoint=checkpoint,
    )
    points = []
    for multiple in tr_multiples:
        params = PAPER_PARAMS.with_tr(multiple * tc)
        finished = [
            r.time for r in runs if r.parameter == multiple * tc and r.occurred
        ]
        mean = sum(finished) / len(finished) if finished else None
        points.append((multiple, mean))
        result.metrics[f"breakup_time_tr_{multiple}tc"] = (
            mean if mean is not None else f"not within {horizon:g}s"
        )
        if mean is not None:
            result.metrics[f"breakup_rounds_tr_{multiple}tc"] = round(
                mean / params.round_length
            )
    result.add_series("mean_breakup_time_by_tr_over_tc", points)
    result.notes.append(
        "paper anchor: synchronization not broken at 2.3 Tc, broken after "
        "4,791 rounds at 2.5 Tc and 300 rounds at 2.8 Tc — break-up time "
        "falls steeply with Tr"
    )
    return result
