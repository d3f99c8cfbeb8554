"""Figure 12: f(N) and g(1) as a function of the random component Tr.

For Tr from 0 to 4.5 Tc the chain predicts the expected seconds to
synchronize (f(N), growing roughly exponentially with Tr) and to break
up (g(1), falling steeply).  The crossing region between "moves
easily to state N" and "moves easily to state 1" is the paper's
moderate-randomization band; simulation spot checks ('x' = break-up
runs, '+' = synchronization runs) ride along the analytic curves.
"""

from __future__ import annotations

import math

from ..core import RouterTimingParameters, sweep_tr
from ..markov import synchronization_times
from .result import FigureResult

__all__ = ["run", "PAPER_PARAMS"]

PAPER_PARAMS = RouterTimingParameters(n_nodes=20, tp=121.0, tc=0.11, tr=0.1)


def run(
    tr_over_tc_max: float = 4.5,
    steps: int = 45,
    f2: float = 19.0,
    sim_checks: bool = True,
    sim_horizon: float = 2e6,
    seeds: tuple[int, ...] = (1, 2),
    jobs: int = 1,
    cache=None,
    checkpoint: bool = False,
    engine: str = "cascade",
) -> FigureResult:
    """Reproduce Figure 12.

    The simulation spot checks run through the parallel layer:
    ``jobs``/``cache``/``engine`` speed them up without changing the
    marks.
    """
    from ..obs import obs

    with obs().span(
        "figure.run", figure="fig12", steps=steps, sim_checks=sim_checks, jobs=jobs
    ):
        return _run(
            tr_over_tc_max, steps, f2, sim_checks, sim_horizon, seeds,
            jobs, cache, checkpoint, engine,
        )


def _run(
    tr_over_tc_max, steps, f2, sim_checks, sim_horizon, seeds, jobs,
    cache, checkpoint, engine,
) -> FigureResult:
    tc = PAPER_PARAMS.tc
    f_curve = []
    g_curve = []
    for step in range(1, steps + 1):
        multiple = tr_over_tc_max * step / steps
        times = synchronization_times(PAPER_PARAMS.with_tr(multiple * tc), f2=f2)
        f_curve.append((multiple, times.seconds_to_synchronize))
        g_curve.append((multiple, times.seconds_to_break_up))
    result = FigureResult(
        figure_id="fig12",
        title="Expected time to move between cluster size 1 and N, vs Tr",
    )
    result.add_series("f_n_seconds_by_tr_over_tc", f_curve)
    result.add_series("g_1_seconds_by_tr_over_tc", g_curve)

    finite_f = [(m, v) for m, v in f_curve if math.isfinite(v)]
    finite_g = [(m, v) for m, v in g_curve if math.isfinite(v)]
    crossing = [
        m for (m, fv), (_, gv) in zip(f_curve, g_curve)
        if math.isfinite(fv) and math.isfinite(gv) and fv >= gv
    ]
    if crossing:
        result.metrics["crossover_tr_over_tc"] = min(crossing)
    if len(finite_f) >= 2:
        low_m, low_v = finite_f[0]
        hi_m, hi_v = finite_f[-1]
        if low_v > 0 and hi_v > low_v:
            result.metrics["f_growth_orders_of_magnitude"] = math.log10(hi_v / low_v)
    result.metrics["g_range_seconds"] = (
        f"{finite_g[-1][1]:.3g} .. {finite_g[0][1]:.3g}" if finite_g else "empty"
    )
    if sim_checks:
        sync_runs = sweep_tr(
            PAPER_PARAMS, [0.9 * tc], sim_horizon, direction="synchronize",
            seeds=seeds, engine=engine, jobs=jobs, cache=cache,
            checkpoint=checkpoint,
        )
        sync_mark = [r.time for r in sync_runs if r.occurred]
        break_runs = sweep_tr(
            PAPER_PARAMS, [3.0 * tc], sim_horizon, direction="break_up",
            seeds=seeds, engine=engine, jobs=jobs, cache=cache,
            checkpoint=checkpoint,
        )
        break_mark = [r.time for r in break_runs if r.occurred]
        if sync_mark:
            result.add_series(
                "simulation_sync_marks",
                [(0.9, sum(sync_mark) / len(sync_mark))],
            )
        if break_mark:
            result.add_series(
                "simulation_break_marks",
                [(3.0, sum(break_mark) / len(break_mark))],
            )
    result.notes.append(
        "paper anchor: y-axis spans <1e4 s to >1e12 s; f(N) grows "
        "exponentially through the low and moderate regions; low/"
        "moderate/high randomization regions are separated by the curve "
        "crossing"
    )
    return result
