"""Quantified error bounds and the validity region.

A surrogate answer without an error bar is a guess.  This module owns
both halves of the tier's honesty story:

**Validity region.**  The Malyshev-Manita phase-transition picture
(and the paper's own Figures 14/15) says the chain is only a model of
the *dominant* passage: expected time to synchronize is meaningful on
the synchronized side of the transition, expected time to break up on
the unsynchronized side.  A cell is in-region when the equilibrium
estimator ``f(N)/(f(N)+g(1))`` sits on the matching side of one half
(:func:`in_phase` — the same 0.5 crossing ``markov.critical`` bisects
for), the chain's prediction is finite, and *no* calibration seed was
censored at the horizon.  Everything else is served by the simulation
fallback, never the table.

**Per-cell bound.**  Each cell's relative bound is measured against
simulation seeds the calibration never saw::

    bound = |pred - holdout_mean| / holdout_mean      (observed bias)
          + 4 * (spread / sqrt(m)) / holdout_mean     (seed noise, 4 SEM)
          + 0.10                                      (floor)

with ``spread`` the sample standard deviation of the holdout seeds
(falling back to the calibration seeds when only one seed is held
out).  The floor keeps single-digit-seed tables from reporting bounds
tighter than their evidence; 4 standard errors keeps a *fresh* seed
set inside the bound with comfortable margin — which is exactly what
:func:`verify_table` measures, and what ``bench --predict`` and the
CI smoke assert.
"""

from __future__ import annotations

import math
from statistics import fmean, stdev

from ..parallel import ParallelRunner, ResultCache
from ..parallel.job import SimulationJob
from .surrogate import OK, SurrogateEvaluator

__all__ = [
    "BOUND_FLOOR",
    "BOUND_SEM_MULTIPLIER",
    "cell_bound",
    "in_phase",
    "verify_table",
]

#: Standard errors of the holdout mean folded into every bound.
BOUND_SEM_MULTIPLIER = 4.0

#: Additive relative-error floor: no cell claims to be tighter than
#: this, however well its few seeds happened to agree.
BOUND_FLOOR = 0.10


def in_phase(fraction: float, direction: str = "up") -> bool:
    """Whether ``direction``'s passage is the dominant one at a point
    whose equilibrium estimator ``f(N)/(f(N)+g(1))`` is ``fraction``.

    ``"up"`` (time to synchronize) is trustworthy on the synchronized
    side of the transition (fraction below one half); ``"down"`` (time
    to break up) on the unsynchronized side.
    """
    return fraction < 0.5 if direction == "up" else fraction > 0.5


def cell_bound(
    pred_seconds: float,
    holdout_seconds: list[float],
    fit_seconds: list[float] = (),
) -> float | None:
    """The relative error bound of one cell, or None when unmeasurable.

    ``holdout_seconds``/``fit_seconds`` are the *observed* (uncensored)
    terminal times of the holdout and calibration seed families.
    """
    if not holdout_seconds or pred_seconds <= 0.0:
        return None
    mean = fmean(holdout_seconds)
    if mean <= 0.0:
        return None
    if len(holdout_seconds) >= 2:
        spread = stdev(holdout_seconds)
    elif len(fit_seconds) >= 2:
        spread = stdev(fit_seconds)
    else:
        spread = 0.0
    sem = spread / math.sqrt(len(holdout_seconds))
    return (
        abs(pred_seconds - mean) / mean
        + BOUND_SEM_MULTIPLIER * sem / mean
        + BOUND_FLOOR
    )


def verify_table(
    table: dict,
    cache: ResultCache | None = None,
    *,
    seed_count: int = 4,
    seed_start: int | None = None,
    jobs: int | None = None,
) -> dict:
    """Check every valid cell against a fresh seed set.

    Runs ``seed_count`` seeds the table has never seen (by default the
    range directly above the build spec's) at each valid cell's exact
    grid point, and asserts the surrogate's answer falls within its
    own reported bound of the fresh mean.  Returns the audit:
    per-cell rows plus ``all_in_bound`` — the acceptance gate
    ``bench --predict`` and the CI smoke both key on.
    """
    from .tables import spec_from_table

    spec = spec_from_table(table)
    if seed_count < 1:
        raise ValueError("seed_count must be >= 1")
    start = (
        seed_start
        if seed_start is not None
        else spec.seed_start + spec.seed_count
    )
    evaluator = SurrogateEvaluator(table)
    checked = [cell for cell in table["cells"] if cell["valid"]]
    specs: list[SimulationJob] = []
    for cell in checked:
        for seed in range(start, start + seed_count):
            specs.append(
                SimulationJob(
                    n_nodes=cell["n_nodes"],
                    tp=cell["tp"],
                    tc=cell["tc"],
                    tr=cell["tr"],
                    seed=seed,
                    horizon=spec.horizon,
                    direction=spec.direction,
                    engine=spec.engine,
                )
            )
    runner = ParallelRunner(jobs=jobs or 1, cache=cache)
    results = runner.run(specs)
    rows = []
    for index, cell in enumerate(checked):
        family = specs[index * seed_count : (index + 1) * seed_count]
        outcomes = results[index * seed_count : (index + 1) * seed_count]
        observed = [
            t
            for job, result in zip(family, outcomes)
            if (t := result.terminal_time(job)) is not None
        ]
        code, seconds, _rounds, bound = evaluator.evaluate(
            cell["n_nodes"], cell["tp"], cell["tc"], cell["tr"]
        )
        row = {
            "n_nodes": cell["n_nodes"],
            "tp": cell["tp"],
            "tc": cell["tc"],
            "tr": cell["tr"],
            "pred_seconds": seconds,
            "bound_rel": bound,
            "fresh_observed": len(observed),
            "fresh_censored": seed_count - len(observed),
            "fresh_mean": fmean(observed) if observed else None,
        }
        if code != OK or not observed:
            # A valid cell must answer OK at its own grid point and a
            # fresh seed set must reach the terminal event there;
            # either failure is a real violation, not a skip.
            row["rel_error"] = None
            row["in_bound"] = False
        else:
            rel_error = abs(seconds - row["fresh_mean"]) / row["fresh_mean"]
            row["rel_error"] = rel_error
            row["in_bound"] = rel_error <= bound
        rows.append(row)
    return {
        "table_id": table["table_id"],
        "seed_start": start,
        "seed_count": seed_count,
        "cells_checked": len(rows),
        "cells_skipped": len(table["cells"]) - len(rows),
        "rows": rows,
        "all_in_bound": all(row["in_bound"] for row in rows),
    }
