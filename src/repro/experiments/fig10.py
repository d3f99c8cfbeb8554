"""Figure 10: expected time to reach cluster size i, from size 1.

The solid line is the Markov-chain prediction ``(Tp + Tc) * f(i)``
with the paper's fitted ``f(2) = 19`` rounds; the dashed lines are
simulations (first time the system exhibits a cluster of size >= i).
The paper notes its analysis runs 2-3x above the simulation average —
the comparison here checks that same shape and gap.
"""

from __future__ import annotations

from ..core import FirstPassageEnsemble, RouterTimingParameters
from ..markov import synchronization_times
from .result import FigureResult

__all__ = ["run"]

PAPER_PARAMS = RouterTimingParameters(n_nodes=20, tp=121.0, tc=0.11, tr=0.1)


def run(
    horizon: float = 7e5,
    seeds: tuple[int, ...] = tuple(range(1, 21)),
    f2: float = 19.0,
    jobs: int = 1,
    cache=None,
    checkpoint=None,
    engine: str = "cascade",
    topology: str = "clique",
) -> FigureResult:
    """Reproduce Figure 10 (paper scale: 20 seeds, ~600,000 s axis).

    ``jobs`` fans the seeds out over worker processes; ``cache`` (a
    :class:`~repro.parallel.ResultCache`) makes repeated runs free;
    ``checkpoint`` journals completed seeds so an interrupted run
    resumes (CLI ``--resume``); ``engine`` picks the simulation
    backend (``cascade``/``batch``/``des``).  None of them changes
    the numbers.  ``topology`` (CLI ``--topology``) replaces the
    paper's fully-coupled graph with an arbitrary coupling — an
    off-paper what-if; the Markov analysis series assumes the clique.
    """
    from ..obs import obs

    with obs().span("figure.run", figure="fig10", seeds=len(seeds), jobs=jobs):
        return _run(horizon, seeds, f2, jobs, cache, checkpoint, engine, topology)


def _run(
    horizon, seeds, f2, jobs, cache, checkpoint, engine, topology
) -> FigureResult:
    analysis = synchronization_times(PAPER_PARAMS, f2=f2)
    round_seconds = analysis.seconds_per_round
    result = FigureResult(
        figure_id="fig10",
        title="Expected time to reach cluster size i, from size 1 (Tr = 0.1 s)",
    )
    result.add_series(
        "analysis_seconds_by_size",
        [(i + 1, f * round_seconds) for i, f in enumerate(analysis.f)],
    )
    ensemble = FirstPassageEnsemble(
        params=PAPER_PARAMS, horizon=horizon, seeds=seeds, direction="up",
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
    result.metrics["analysis_f_n_seconds"] = analysis.seconds_to_synchronize
    result.metrics["seeds"] = len(seeds)
    terminal = ensemble.terminal_result()
    result.metrics["runs_synchronized"] = len(terminal.times)
    if terminal.times:
        result.metrics["simulation_mean_sync_seconds"] = terminal.mean
        result.metrics["analysis_over_simulation_ratio"] = (
            analysis.seconds_to_synchronize / terminal.mean
        )
    result.notes.append(
        "paper anchor: analysis exceeds the simulation average by 2-3x but "
        "the curves have the same shape"
    )
    return result
