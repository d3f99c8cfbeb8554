"""Figure 7: time to synchronize versus the random component Tr.

Three simulations start unsynchronized with Tr = 0.6 Tc, 1.0 Tc, and
1.4 Tc; as Tr grows, synchronization takes longer and longer (the
paper's runs synchronize after 498 rounds, 7,796 rounds, and later
still within a 10^7-second horizon).

The driver reports the time-to-full-synchronization per Tr (None when
the horizon was not enough — itself the Figure 7 message at large Tr).
"""

from __future__ import annotations

from ..core import RouterTimingParameters, sweep_tr
from .result import FigureResult

__all__ = ["run", "PAPER_PARAMS"]

PAPER_PARAMS = RouterTimingParameters(n_nodes=20, tp=121.0, tc=0.11, tr=0.1)


def run(
    tr_multiples: tuple[float, ...] = (0.6, 1.0, 1.4),
    horizon: float = 1e7,
    seeds: tuple[int, ...] = (1,),
    jobs: int = 1,
    cache=None,
    checkpoint: bool = False,
    engine: str = "cascade",
) -> FigureResult:
    """Reproduce Figure 7 (pass a smaller horizon for a fast run).

    The (Tr, seed) grid runs through the parallel layer; ``jobs``,
    ``cache``, ``checkpoint`` (resume support), and ``engine``
    (``cascade``/``batch``/``des``, all bit-identical) change
    wall-clock only.
    """
    tc = PAPER_PARAMS.tc
    result = FigureResult(
        figure_id="fig07",
        title="Simulations starting with unsynchronized updates, varying Tr",
    )
    runs = sweep_tr(
        PAPER_PARAMS, [m * tc for m in tr_multiples], horizon,
        direction="synchronize", seeds=seeds, engine=engine, jobs=jobs,
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
        result.metrics[f"sync_time_tr_{multiple}tc"] = (
            mean if mean is not None else f"not within {horizon:g}s"
        )
        if mean is not None:
            result.metrics[f"sync_rounds_tr_{multiple}tc"] = round(
                mean / params.round_length
            )
    result.add_series("mean_sync_time_by_tr_over_tc", points)
    result.notes.append(
        "paper anchor: time to synchronize grows rapidly with Tr "
        "(498 rounds at 0.6 Tc, 7,796 at 1.0 Tc); runs that report None "
        "did not synchronize within the horizon, the expected behaviour at "
        "larger Tr"
    )
    return result
