"""Figure 17: synchronization onset versus mean degree on random graphs.

Erdős–Rényi coupling graphs sweep the whole range between the
disconnected limit (no global cascade can form, so the network never
fully synchronizes) and the clique (the paper's model).  Sweeping the
edge probability ``p`` at fixed n traces the onset: the fraction of
runs that synchronize within the horizon rises from 0 to 1 as the
mean degree crosses the connectivity threshold, and the time to
synchronize falls toward the clique value as the graph densifies.

Every (p, graph seed, run seed) simulation is a cache-keyed
:class:`~repro.parallel.job.SimulationJob` executed through the
parallel layer.
"""

from __future__ import annotations

from ..core import RouterTimingParameters
from ..core.sweeps import sweep_nodes
from ..topo import adjacency, components, ensure_spec, mean_degree
from .result import FigureResult

__all__ = ["run", "BASE_PARAMS"]

#: Same reduced-scale timing point as fig16, at a fixed network size.
BASE_PARAMS = RouterTimingParameters(n_nodes=10, tp=20.0, tc=2.0, tr=1.0)


def run(
    p_values: tuple[float, ...] = (0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 1.0),
    n_nodes: int = 10,
    horizon: float = 1e5,
    seeds: tuple[int, ...] = (1, 2, 3),
    graph_seeds: tuple[int, ...] = (1, 2, 3),
    jobs: int = 1,
    cache=None,
    checkpoint: bool = False,
    engine: str = "cascade",
) -> FigureResult:
    """Synchronization onset vs mean degree on Erdős–Rényi graphs.

    For each edge probability ``p`` and each ``graph_seeds`` entry a
    distinct deterministic graph is generated; ``seeds`` are the
    simulation seeds run on every graph.  The runner knobs
    (``jobs``/``cache``/``checkpoint``/``engine``) never change the
    numbers.
    """
    from ..obs import obs

    with obs().span(
        "figure.run", figure="fig17", points=len(p_values),
        graphs=len(graph_seeds), seeds=len(seeds), jobs=jobs,
    ):
        return _run(
            p_values, n_nodes, horizon, seeds, graph_seeds,
            jobs, cache, checkpoint, engine,
        )


def _run(
    p_values, n_nodes, horizon, seeds, graph_seeds, jobs, cache, checkpoint, engine
) -> FigureResult:
    result = FigureResult(
        figure_id="fig17",
        title="Synchronization onset vs mean degree (Erdos-Renyi coupling)",
    )
    base = BASE_PARAMS.with_nodes(n_nodes)
    round_seconds = base.tp + base.tc
    onset_points = []
    time_points = []
    connected_points = []
    for p in p_values:
        synced = 0
        runs = 0
        times: list[float] = []
        degrees: list[float] = []
        connected = 0
        for graph_seed in graph_seeds:
            spec = ensure_spec(f"erdos_renyi(p={float(p)},seed={graph_seed})")
            adj = adjacency(spec, n_nodes)
            degrees.append(mean_degree(adj))
            if len(components(adj)) == 1:
                connected += 1
            outcomes = sweep_nodes(
                base,
                [n_nodes],
                horizon=horizon,
                direction="synchronize",
                seeds=seeds,
                engine=engine,
                jobs=jobs,
                cache=cache,
                checkpoint=checkpoint,
                topology=spec.canonical(),
            )
            for outcome in outcomes:
                runs += 1
                if outcome.time is not None:
                    synced += 1
                    times.append(outcome.time)
        degree = sum(degrees) / len(degrees)
        onset_points.append((degree, synced / runs))
        connected_points.append((degree, connected / len(graph_seeds)))
        if times:
            time_points.append((degree, sum(times) / len(times) / round_seconds))
    result.add_series("synced_fraction_by_mean_degree", onset_points)
    result.add_series("sync_rounds_by_mean_degree", time_points)
    result.add_series("connected_fraction_by_mean_degree", connected_points)
    result.metrics["runs_per_point"] = len(seeds) * len(graph_seeds)
    result.metrics["n_nodes"] = n_nodes
    fractions = [f for _d, f in onset_points]
    result.metrics["onset_fraction_low_p"] = fractions[0]
    result.metrics["onset_fraction_high_p"] = fractions[-1]
    # Mean degree where the synced fraction first reaches 1/2 — the
    # onset location this figure is named for.
    result.metrics["onset_mean_degree"] = next(
        (d for d, f in onset_points if f >= 0.5), None
    )
    result.notes.append(
        "topology extension (not in the paper): full synchronization "
        "requires a connected coupling graph, and the onset tracks the "
        "Erdos-Renyi connectivity threshold as mean degree grows"
    )
    return result
