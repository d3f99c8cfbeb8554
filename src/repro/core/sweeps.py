"""Parameter sweeps on the simulation.

These helpers run families of Periodic Messages simulations — over the
random component ``Tr``, over the node count ``N``, or over seeds —
and extract the quantities the paper's evaluation reports: time to
synchronize and time to break up.

All sweep helpers execute through the parallel layer
(:mod:`repro.parallel`): pass ``jobs=4`` to fan the grid out over four
worker processes, and/or a :class:`~repro.parallel.ResultCache` so
repeated sweeps never recompute a completed simulation.  Results are independent of ``jobs`` — each (params, seed)
point derives its own RNG streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .engines import resolve_engine
from .fastsim import CascadeModel
from .model import ModelConfig, PeriodicMessagesModel
from .parameters import RouterTimingParameters

__all__ = [
    "SweepResult",
    "time_to_synchronize",
    "time_to_break_up",
    "sweep_tr",
    "sweep_nodes",
]


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one simulation in a sweep.

    ``time`` is the first-passage time in simulated seconds, or None
    if the event did not occur within the horizon.  ``rounds`` is the
    same expressed in rounds of ``Tp + Tc`` seconds.
    """

    parameter: float
    seed: int
    time: float | None
    horizon: float

    @property
    def occurred(self) -> bool:
        """Whether the target event happened within the horizon."""
        return self.time is not None

    def rounds(self, round_length: float) -> float | None:
        """First-passage time in rounds, or None."""
        return None if self.time is None else self.time / round_length


def time_to_synchronize(
    params: RouterTimingParameters,
    horizon: float,
    seed: int = 1,
    engine: str = "cascade",
    **config_overrides,
) -> float | None:
    """Seconds until an unsynchronized start first reaches a full cluster.

    ``engine`` selects the implementation: ``"cascade"`` (default,
    ~8x faster), ``"batch"`` (the ensemble kernel, a batch of one
    here), or ``"des"``; all three produce identical trajectories
    for the pure periodic model (see
    tests/test_engine_differential.py).  Config overrides (e.g. a
    notification delay) force the DES.
    """
    return _terminal_time(params, horizon, seed, engine, "up", config_overrides)


def time_to_break_up(
    params: RouterTimingParameters,
    horizon: float,
    seed: int = 1,
    engine: str = "cascade",
    **config_overrides,
) -> float | None:
    """Seconds until a synchronized start first returns to all-lone clusters.

    See :func:`time_to_synchronize` for the ``engine`` parameter.
    """
    return _terminal_time(params, horizon, seed, engine, "down", config_overrides)


def _terminal_time(
    params: RouterTimingParameters,
    horizon: float,
    seed: int,
    engine: str,
    direction: str,
    config_overrides: dict,
) -> float | None:
    """One first-passage run: a :class:`~repro.parallel.SimulationJob`
    through :func:`~repro.parallel.run_job`, whatever the engine.

    Config overrides need the DES itself.  A horizon a job spec
    refuses (non-finite or not positive) is still accepted here, as
    it always was, and runs on the engine's own model: the DES, or
    ``CascadeModel`` for ``cascade`` and ``batch``.  All three agree
    on every horizon; a NaN horizon advances none of them, so the run
    returns None.
    """
    resolve_engine(engine)
    if not config_overrides and math.isfinite(horizon) and horizon > 0:
        from ..parallel.job import SimulationJob, run_job

        job = SimulationJob.from_params(
            params, seed=seed, horizon=horizon, direction=direction,
            engine=engine,
        )
        return run_job(job).terminal_time(job)
    up = direction == "up"
    phases = "unsynchronized" if up else "synchronized"
    if config_overrides or engine == "des":
        config = ModelConfig.from_parameters(
            params, seed=seed, keep_cluster_history=False, **config_overrides
        )
        model = PeriodicMessagesModel(config, initial_phases=phases)
    else:
        model = CascadeModel(params, seed=seed, initial_phases=phases)
    model.run(until=horizon, stop_on_full_sync=up, stop_on_full_unsync=not up)
    tracker = model.tracker
    return tracker.synchronization_time if up else tracker.breakup_time


def _run_sweep(
    points: list[tuple[float, RouterTimingParameters]],
    horizon: float,
    direction: str,
    seeds: Sequence[int],
    engine: str,
    jobs: int,
    cache,
    checkpoint: bool = False,
    topology: str = "clique",
) -> list[SweepResult]:
    """Execute a (parameter, seed) grid through one
    :class:`~repro.parallel.ParallelRunner` call (which owns the
    ``checkpoint`` journal's lifecycle).

    ``topology`` (parse grammar of :func:`repro.topo.parse_topology`)
    applies to every point; the default clique reproduces the paper's
    fully-coupled model and the historical cache keys.
    """
    from ..obs import obs
    from ..parallel import ParallelRunner, SimulationJob

    if direction not in ("synchronize", "break_up"):
        raise ValueError(f"unknown direction {direction!r}")
    resolve_engine(engine)
    job_direction = "up" if direction == "synchronize" else "down"
    grid = [
        (value, seed, params)
        for value, params in points
        for seed in seeds
    ]
    specs = [
        SimulationJob.from_params(
            params, seed=seed, horizon=horizon,
            direction=job_direction, engine=engine, topology=topology,
        )
        for _value, seed, params in grid
    ]
    with obs().span(
        "sweep.run",
        direction=direction,
        points=len(points),
        seeds=len(list(seeds)),
        grid=len(specs),
        engine=engine,
        jobs=jobs,
    ):
        results = ParallelRunner(
            jobs=jobs, cache=cache, checkpoint=checkpoint
        ).run(specs)
    return [
        SweepResult(
            parameter=value,
            seed=seed,
            time=result.terminal_time(spec),
            horizon=horizon,
        )
        for (value, seed, _params), spec, result in zip(grid, specs, results)
    ]


def sweep_tr(
    base: RouterTimingParameters,
    tr_values: Sequence[float],
    horizon: float,
    direction: str = "synchronize",
    seeds: Sequence[int] = (1,),
    engine: str = "cascade",
    jobs: int = 1,
    cache=None,
    checkpoint: bool = False,
    topology: str = "clique",
) -> list[SweepResult]:
    """First-passage times across a range of random components.

    ``direction`` is ``"synchronize"`` (unsynchronized start, Figure 7
    / the '+' marks of Figure 12) or ``"break_up"`` (synchronized
    start, Figure 8 / the 'x' marks).

    ``checkpoint=True`` journals completed grid points under
    ``results/checkpoints/`` so an interrupted sweep resumes without
    re-simulating.
    """
    points = [(tr, base.with_tr(tr)) for tr in tr_values]
    return _run_sweep(
        points, horizon, direction, seeds, engine, jobs, cache,
        checkpoint=checkpoint, topology=topology,
    )


def sweep_nodes(
    base: RouterTimingParameters,
    n_values: Sequence[int],
    horizon: float,
    direction: str = "synchronize",
    seeds: Sequence[int] = (1,),
    engine: str = "cascade",
    jobs: int = 1,
    cache=None,
    checkpoint: bool = False,
    topology: str = "clique",
) -> list[SweepResult]:
    """First-passage times across a range of network sizes (Figure 15's axis).

    See :func:`sweep_tr` for ``checkpoint``; ``topology`` applies the
    same coupling graph at every size.
    """
    points = [(float(n), base.with_nodes(n)) for n in n_values]
    return _run_sweep(
        points, horizon, direction, seeds, engine, jobs, cache,
        checkpoint=checkpoint, topology=topology,
    )
