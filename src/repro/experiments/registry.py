"""Registry mapping figure ids to their drivers.

Every driver is a callable returning a
:class:`~repro.experiments.result.FigureResult`.  ``fast_kwargs``
holds per-figure argument overrides that shrink horizons/seed counts
to bench-friendly sizes while preserving the paper's shape claims.
"""

from __future__ import annotations

from typing import Callable

from . import (
    fig01,
    fig02,
    fig03,
    fig04,
    fig05,
    fig06,
    fig07,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    fig17,
    fig18,
)
from .result import FigureResult

__all__ = [
    "FIGURES",
    "FAST_KWARGS",
    "PARALLEL_FIGURES",
    "TOPOLOGY_FIGURES",
    "run_figure",
    "figure_ids",
]

FIGURES: dict[str, Callable[..., FigureResult]] = {
    "fig01": fig01.run,
    "fig02": fig02.run,
    "fig03": fig03.run,
    "fig04": fig04.run,
    "fig05": fig05.run,
    "fig06": fig06.run,
    "fig07": fig07.run,
    "fig08": fig08.run,
    "fig09": fig09.run,
    "fig10": fig10.run,
    "fig11": fig11.run,
    "fig12": fig12.run,
    "fig13": fig13.run,
    "fig14": fig14.run,
    "fig15": fig15.run,
    "fig16": fig16.run,
    "fig17": fig17.run,
    "fig18": fig18.run,
}

#: Reduced-scale arguments for quick runs (benchmarks, smoke tests).
#: EXPERIMENTS.md records how each reduction preserves the figure's
#: qualitative claim.
FAST_KWARGS: dict[str, dict] = {
    "fig01": {"count": 400},
    "fig02": {"count": 400, "max_lag": 150},
    "fig03": {"duration": 180.0},
    "fig04": {"horizon": 6e4},
    "fig05": {"rounds": 30},
    "fig06": {"horizon": 6e4},
    "fig07": {"tr_multiples": (0.6, 1.0, 1.4), "horizon": 1e7, "seeds": (1,)},
    "fig08": {"tr_multiples": (2.3, 2.5, 2.8), "horizon": 2e6, "seeds": (1,)},
    "fig09": {},
    "fig10": {"horizon": 4e5, "seeds": (1, 4, 5)},
    "fig11": {"horizon": 4e5, "seeds": (1, 2, 3)},
    "fig12": {"sim_checks": False},
    "fig13": {"steps": 16},
    "fig14": {},
    "fig15": {},
    "fig16": {"n_values": (4, 6, 8), "seeds": (1, 2), "horizon": 2e4},
    "fig17": {
        "p_values": (0.15, 0.45, 1.0),
        "n_nodes": 8,
        "seeds": (1, 2),
        "graph_seeds": (1, 2),
        "horizon": 4e4,
    },
    "fig18": {"n_values": (5, 10), "seeds": (1, 2), "horizon": 1.5e4},
}


#: Figures whose drivers run simulations through the parallel layer
#: and therefore accept ``jobs=``/``cache=`` (see repro.parallel); the
#: rest are analytic or single-trajectory and ignore those settings.
PARALLEL_FIGURES = frozenset(
    {"fig07", "fig08", "fig10", "fig11", "fig12", "fig16", "fig17", "fig18"}
)

#: Figures accepting a single ``topology=`` coupling override (CLI
#: ``--topology``).  fig16-fig18 sweep their own topology grids and
#: are deliberately absent.
TOPOLOGY_FIGURES = frozenset({"fig10", "fig11"})


def figure_ids() -> list[str]:
    """All registered figure ids, in paper order."""
    return sorted(FIGURES)


def run_figure(
    figure_id: str,
    fast: bool = False,
    jobs: int | None = None,
    cache=None,
    checkpoint: bool = False,
    engine: str | None = None,
    topology: str | None = None,
    **overrides,
) -> FigureResult:
    """Run one figure's reproduction.

    Parameters
    ----------
    figure_id:
        "fig01" .. "fig18" (fig16-fig18 are the topology extension,
        not figures of the paper).
    fast:
        Apply the registry's reduced-scale arguments.
    jobs:
        Worker processes for drivers in :data:`PARALLEL_FIGURES`
        (silently ignored elsewhere — the CLI passes it for every
        target).
    cache:
        Optional :class:`~repro.parallel.ResultCache`, same scoping.
    checkpoint:
        Resume support for :data:`PARALLEL_FIGURES`: ``True`` has
        each runner batch journal under ``results/checkpoints/``
        (see :class:`repro.parallel.ParallelRunner`), so an
        interrupted figure run picks up where it stopped.  Same
        scoping as ``jobs``/``cache``.
    engine:
        Simulation engine for :data:`PARALLEL_FIGURES`
        (``des``/``cascade``/``batch``; validated by
        :func:`repro.core.engines.resolve_engine`).  Same scoping as
        ``jobs``/``cache``: analytic figures ignore it.
    topology:
        Coupling-graph override for :data:`TOPOLOGY_FIGURES`
        (validated by :func:`repro.topo.parse_topology`; CLI
        ``--topology``).  Figures with their own topology grids
        (fig16-fig18) and analytic figures ignore it.
    overrides:
        Explicit keyword arguments for the driver (take precedence
        over the fast defaults).
    """
    if figure_id not in FIGURES:
        raise ValueError(f"unknown figure {figure_id!r}; known: {figure_ids()}")
    if engine is not None:
        from ..core.engines import resolve_engine

        resolve_engine(engine)
    if topology is not None:
        from ..topo import ensure_spec

        topology = ensure_spec(topology).canonical()
    kwargs = dict(FAST_KWARGS.get(figure_id, {})) if fast else {}
    if figure_id in PARALLEL_FIGURES:
        if jobs is not None:
            kwargs["jobs"] = jobs
        if cache is not None:
            kwargs["cache"] = cache
        if checkpoint:
            kwargs["checkpoint"] = True
        if engine is not None:
            kwargs["engine"] = engine
    if topology is not None and figure_id in TOPOLOGY_FIGURES:
        kwargs["topology"] = topology
    kwargs.update(overrides)
    result = FIGURES[figure_id](**kwargs)
    if fast:
        result.notes.append("reduced-scale (fast) run; see EXPERIMENTS.md for full scale")
    return result
