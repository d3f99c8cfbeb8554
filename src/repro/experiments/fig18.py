"""Figure 18: live distance-vector traffic versus the abstract model.

The paper abstracts a routing process to three numbers (Tp, Tc, Tr).
This figure closes the loop: it runs a *real* RIP-style
distance-vector protocol — full periodic table broadcasts on a shared
LAN, per-route processing cost, busy-coupled timer resets — and
checks that the time to synchronize matches the abstract cascade
model at the same (n, Tc/Tp, Tr/Tp) point.

The mapping: n routers on one LAN each hold an n-entry table (self
plus n-1 neighbours), so ``per_route_cost = Tc / n`` makes every
update cost ~Tc of busy time to its sender and to each receiver —
exactly the abstract model's per-message cost.  Timer resets are
extracted from the agents' ``timer_reset_times`` and clustered with a
tolerance of Tc (busy-period ends of a synchronizing group differ by
fractions of one message cost, not the exact-zero of the abstract
model).

A churn variant re-runs one point with triggered updates enabled and
a point-to-point link flapping every few periods, confirming the
synchronization survives real protocol dynamics the abstract model
leaves out.
"""

from __future__ import annotations

from ..core import RouterTimingParameters
from ..core.clusters import ClusterTracker
from ..core.sweeps import sweep_nodes
from ..net import Network
from ..protocols import DistanceVectorAgent, ProtocolSpec
from .result import FigureResult

__all__ = ["run", "dv_lan_sync_time", "BASE_PARAMS"]

#: The fig16/fig17 reduced-scale timing point.
BASE_PARAMS = RouterTimingParameters(n_nodes=10, tp=20.0, tc=2.0, tr=1.0)


def dv_lan_sync_time(
    n: int,
    tp: float,
    tc: float,
    tr: float,
    horizon: float,
    seed_base: int = 100,
    churn: bool = False,
    churn_period: float | None = None,
) -> float | None:
    """Synchronization time of n live DV routers on one shared LAN.

    Builds the network, runs the protocol to ``horizon``, merges the
    agents' timer-reset streams, and returns the first time all n
    routers reset within one Tc of each other (None if censored).

    With ``churn`` a spur router hangs off the LAN's first router on a
    point-to-point link that flaps every ``churn_period`` seconds
    (default 3.5 Tp), and triggered updates are enabled — the LAN
    routers then synchronize amid genuine topology-change traffic.
    The spur is excluded from the cluster statistic.
    """
    net = Network()
    routers = [net.add_router(f"r{i:02d}") for i in range(n)]
    net.add_lan("lan0", stations=routers)
    spec = ProtocolSpec(
        name="rip-fig18",
        period=tp,
        jitter=tr,
        per_route_cost=tc / n,
        triggered_updates=churn,
    )
    agents = [
        DistanceVectorAgent(router, spec, seed=seed_base + i)
        for i, router in enumerate(routers)
    ]
    if churn:
        spur = net.add_router("spur")
        link = net.connect(routers[0], spur, delay_s=0.001)
        DistanceVectorAgent(spur, spec, seed=seed_base + n)
        period = churn_period if churn_period is not None else 3.5 * tp
        flap_at = period
        state = [False]
        while flap_at < horizon:
            def flap(when=flap_at) -> None:
                state[0] = not state[0]
                link.set_up(state[0])

            net.sim.schedule_at(flap_at, flap, label="fig18-churn")
            flap_at += period
    net.run(until=horizon)
    tracker = ClusterTracker(n, keep_history=False, tolerance=tc)
    events = sorted(
        (time, i)
        for i, agent in enumerate(agents)
        for time in agent.timer_reset_times
    )
    for time, i in events:
        tracker.record_reset(time, i)
    tracker.finish()
    return tracker.synchronization_time


def run(
    n_values: tuple[int, ...] = (5, 10, 15, 20),
    horizon: float = 3e4,
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5),
    jobs: int = 1,
    cache=None,
    checkpoint: bool = False,
    engine: str = "cascade",
) -> FigureResult:
    """Live-protocol round trip against the abstract model.

    The abstract side runs ``seeds`` per n through the parallel layer
    (cacheable jobs); the DV side is one deterministic live-protocol
    run per n.  ``jobs``/``cache``/``checkpoint``/``engine`` apply to
    the abstract side only.
    """
    from ..obs import obs

    with obs().span(
        "figure.run", figure="fig18", points=len(n_values),
        seeds=len(seeds), jobs=jobs,
    ):
        return _run(n_values, horizon, seeds, jobs, cache, checkpoint, engine)


def _run(n_values, horizon, seeds, jobs, cache, checkpoint, engine) -> FigureResult:
    result = FigureResult(
        figure_id="fig18",
        title="Live DV protocol vs abstract model: time to synchronize",
    )
    params = BASE_PARAMS
    round_seconds = params.tp + params.tc
    outcomes = sweep_nodes(
        params,
        list(n_values),
        horizon=horizon,
        direction="synchronize",
        seeds=seeds,
        engine=engine,
        jobs=jobs,
        cache=cache,
        checkpoint=checkpoint,
    )
    abstract: dict[int, list[float]] = {n: [] for n in n_values}
    for outcome in outcomes:
        if outcome.time is not None:
            abstract[int(outcome.parameter)].append(outcome.time)
    dv_points = []
    abstract_points = []
    agree = 0
    compared = 0
    for n in n_values:
        dv_time = dv_lan_sync_time(n, params.tp, params.tc, params.tr, horizon)
        times = abstract[n]
        if dv_time is not None:
            dv_points.append((n, dv_time / round_seconds))
        if times:
            abstract_points.append(
                (n, sum(times) / len(times) / round_seconds)
            )
        if dv_time is not None and times:
            compared += 1
            # Agreement: the live run lands within the abstract seed
            # spread, widened by one round for the protocol's extra
            # mechanics (convergence traffic before the steady state).
            low = min(times) - round_seconds
            high = max(times) + round_seconds
            result.metrics[f"dv_over_abstract_mean[n={n}]"] = dv_time * len(
                times
            ) / sum(times)
            if low <= dv_time <= high:
                agree += 1
    result.add_series("dv_sync_rounds_by_n", dv_points)
    result.add_series("abstract_mean_sync_rounds_by_n", abstract_points)
    result.metrics["points_compared"] = compared
    result.metrics["points_in_abstract_spread"] = agree
    churn_n = n_values[len(n_values) // 2]
    churn_time = dv_lan_sync_time(
        churn_n, params.tp, params.tc, params.tr, horizon, churn=True
    )
    result.metrics["churn_n"] = churn_n
    result.metrics["churn_sync_rounds"] = (
        None if churn_time is None else churn_time / round_seconds
    )
    result.notes.append(
        "topology extension (not in the paper): a live RIP-style protocol "
        "on one LAN synchronizes on the abstract model's schedule once "
        "per_route_cost x routes ~= Tc, and still synchronizes under "
        "periodic link churn with triggered updates enabled"
    )
    return result
