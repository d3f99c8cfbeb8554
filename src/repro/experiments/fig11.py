"""Figure 11: expected time to reach cluster size i, from size N.

The mirror of Figure 10: simulations start fully synchronized with
Tr = 0.3 s, and we record the first time the per-round largest cluster
falls to each size i; the solid line is ``(Tp + Tc) * g(i)``.
"""

from __future__ import annotations

from ..core import FirstPassageEnsemble, RouterTimingParameters
from ..markov import synchronization_times
from .result import FigureResult

__all__ = ["run"]

PAPER_PARAMS = RouterTimingParameters(n_nodes=20, tp=121.0, tc=0.11, tr=0.3)


def run(
    horizon: float = 7e5,
    seeds: tuple[int, ...] = tuple(range(1, 21)),
    jobs: int = 1,
    cache=None,
    checkpoint: bool = False,
    engine: str = "cascade",
    topology: str = "clique",
) -> FigureResult:
    """Reproduce Figure 11 (paper scale: 20 seeds, ~300,000 s axis).

    ``jobs``/``cache``/``checkpoint``/``engine`` parallelize, memoize,
    make resumable, and re-backend the seed runs without changing the
    numbers (see :mod:`repro.parallel`).  ``topology`` swaps in a
    non-clique coupling graph (an off-paper what-if, CLI
    ``--topology``); the analysis series still assumes the clique.
    """
    analysis = synchronization_times(PAPER_PARAMS, f2=19.0)
    round_seconds = analysis.seconds_per_round
    result = FigureResult(
        figure_id="fig11",
        title="Expected time to reach cluster size i, from size N (Tr = 0.3 s)",
    )
    result.add_series(
        "analysis_seconds_by_size",
        [(i + 1, g * round_seconds) for i, g in enumerate(analysis.g)],
    )
    ensemble = FirstPassageEnsemble(
        params=PAPER_PARAMS, horizon=horizon, seeds=seeds, direction="down",
        engine=engine, jobs=jobs, cache=cache, checkpoint=checkpoint,
        topology=topology,
    ).run()
    if topology != "clique":
        result.notes.append(
            f"simulation coupled over topology={topology!r}; the analysis "
            "curve still assumes the paper's fully-coupled model"
        )
    mean_points = [
        (size, aggregate.mean)
        for size, aggregate in ensemble.curve()
        if aggregate.times
    ]
    result.add_series("simulation_mean_seconds_by_size", mean_points)
    result.metrics["analysis_g_1_seconds"] = analysis.seconds_to_break_up
    terminal = ensemble.terminal_result()
    result.metrics["seeds"] = len(seeds)
    result.metrics["runs_broken_up"] = len(terminal.times)
    if terminal.times:
        result.metrics["simulation_mean_breakup_seconds"] = terminal.mean
        result.metrics["analysis_over_simulation_ratio"] = (
            analysis.seconds_to_break_up / terminal.mean
        )
    result.notes.append(
        "paper anchor: the Markov-chain prediction is 2-3x the simulation "
        "average; g does not depend on the fitted f(2)"
    )
    return result
