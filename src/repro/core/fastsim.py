"""A second, independent implementation of the Periodic Messages model.

The discrete-event implementation in :mod:`repro.core.model` schedules
timer expiries, message arrivals, and busy-period ends as individual
events.  But for the pure periodic model (no triggered updates, zero
notification delay) the dynamics collapse to a single rule: sort the
pending timer expiries; the earliest one opens a *cascade* whose busy
window starts at ``e1 + Tc`` and grows by ``Tc`` for every further
expiry that falls inside it; everyone in the cascade resets together
when the window closes.

:class:`CascadeModel` simulates exactly that rule with a heap of
pending expiries — no event queue, no per-message bookkeeping.  The
loop itself is :func:`advance_dense`, which the batch engine's scalar
path (:mod:`repro.core.batch`) runs per member as well.  Run
with the same seed, it consumes each router's random stream in the
same per-router order as the DES and therefore reproduces the DES
trajectory *bit for bit* (verified in
``tests/test_core_fastsim.py``), making it both a fast engine for
large ensembles and an executable proof that the DES implements the
model it claims to.
"""

from __future__ import annotations

import heapq
from typing import Literal, Sequence

from ..rng import RandomSource
from .clusters import ClusterTracker
from .parameters import RouterTimingParameters

__all__ = ["CascadeModel", "advance_dense"]

InitialPhases = Literal["unsynchronized", "synchronized"] | Sequence[float]


def advance_dense(
    heap: list,
    tracker: ClusterTracker,
    draw,
    tc: float,
    until: float,
    stop_on_full_sync: bool = False,
    stop_on_full_unsync: bool = False,
    probe=None,
) -> tuple[float | None, int, bool]:
    """Advance fully-coupled cascades until the horizon or a stop.

    The complete-graph special case of
    :func:`repro.topo.advance_coupled`, with the same arguments and the
    same return triple: every router hears every reset, so at most one
    cascade is open at a time.  ``heap`` holds the pending
    ``(expiry_time, node)`` pairs and is mutated in place; ``tracker``
    receives every reset and is ``finish()``-ed before return;
    ``draw(node)`` consumes one interval draw from the node's stream,
    in pop order.

    Returns ``(stop_time, cascades_closed, stopped)``: ``stop_time`` is
    the time of the last close when a stop condition fired (None when
    the run reached the horizon).
    """
    closed = 0
    while heap and heap[0][0] <= until:
        popped = [heapq.heappop(heap)]
        window = popped[0][0] + tc
        while heap and heap[0][0] <= window:
            popped.append(heapq.heappop(heap))
            window += tc
        if window > until:
            # The cascade's busy period outlives the horizon: the DES
            # would not process these resets either.  Restore the
            # pending expiries and stop (a later call with a larger
            # horizon picks up exactly here).
            for entry in popped:
                heapq.heappush(heap, entry)
            break
        closed += 1
        if probe is not None:
            probe.on_cascade(window, popped)
        for _expiry, node in popped:
            tracker.record_reset(window, node)
        for _expiry, node in popped:
            heapq.heappush(heap, (window + draw(node), node))
        if (stop_on_full_sync and tracker.is_fully_synchronized()) or (
            stop_on_full_unsync and tracker.is_fully_unsynchronized()
        ):
            tracker.finish()
            return window, closed, True
    tracker.finish()
    return None, closed, False


class CascadeModel:
    """Cascade-rule simulation of the Periodic Messages model.

    Parameters
    ----------
    params:
        The (N, Tp, Tc, Tr) tuple.
    seed:
        Master seed; the per-router stream derivation matches
        :class:`~repro.core.model.PeriodicMessagesModel` exactly.
    initial_phases:
        As in the DES model: "unsynchronized" (uniform on [0, Tp]),
        "synchronized" (all zero), or explicit phases.
    keep_cluster_history:
        Forwarded to the tracker.
    probe:
        Optional :class:`~repro.obs.probes.SimulationProbe`.  Gets the
        tracker's reset/group stream plus ``on_cascade`` with the
        exact expiry times of every cascade (the source of per-node
        busy time).  Observational only: the probe never touches the
        RNG streams or the heap, so probed and unprobed runs are
        byte-identical.
    topology:
        Optional :class:`~repro.topo.TopologySpec` (or its canonical
        string form) restricting which routers hear which resets.
        ``None`` and any coupling whose generated graph is complete
        (``"clique"``, a 3-ring, ``erdos_renyi`` with p=1, ...) run
        the fully-coupled loop (:func:`advance_dense`); everything
        else runs the generalized multi-cascade kernel
        (:func:`repro.topo.advance_coupled`).  Stream derivation and
        phase draws are identical either way.
    """

    def __init__(
        self,
        params: RouterTimingParameters,
        seed: int = 1,
        initial_phases: InitialPhases = "unsynchronized",
        keep_cluster_history: bool = False,
        probe=None,
        topology=None,
    ) -> None:
        self.params = params
        self.probe = probe
        n = params.n_nodes
        self.topology = None
        self._coupling = None
        if topology is not None:
            from ..topo import Coupling, ensure_spec

            self.topology = ensure_spec(topology)
            coupling = Coupling(self.topology, n)
            if not coupling.is_complete:
                self._coupling = coupling
        self.tracker = ClusterTracker(n, keep_history=keep_cluster_history, probe=probe)
        master = RandomSource(seed=seed)
        self._rngs = [master.spawn(i) for i in range(n)]
        phase_rng = master.spawn(n + 1)
        if initial_phases == "unsynchronized":
            phases = [phase_rng.uniform(0.0, params.tp) for _ in range(n)]
        elif initial_phases == "synchronized":
            phases = [0.0] * n
        else:
            phases = [float(p) for p in initial_phases]
            if len(phases) != n:
                raise ValueError(f"expected {n} phases, got {len(phases)}")
            if any(p < 0 for p in phases):
                raise ValueError("initial phases must be non-negative")
        # Heap of (expiry_time, node). Ties break on node id, which
        # matches the DES's FIFO tie-break for the initial schedule.
        self._heap: list[tuple[float, int]] = sorted(
            (phase, node) for node, phase in enumerate(phases)
        )
        heapq.heapify(self._heap)
        self.now = 0.0
        self.total_cascades = 0

    def run(
        self,
        until: float,
        stop_on_full_sync: bool = False,
        stop_on_full_unsync: bool = False,
    ) -> float:
        """Advance cascades until the horizon or a stop condition."""
        params = self.params
        low = params.tp - params.tr
        high = params.tp + params.tr
        rngs = self._rngs

        def draw(node: int) -> float:
            return rngs[node].uniform(low, high)

        if self._coupling is None:
            stop_time, closed, stopped = advance_dense(
                self._heap,
                self.tracker,
                draw,
                params.tc,
                until,
                stop_on_full_sync=stop_on_full_sync,
                stop_on_full_unsync=stop_on_full_unsync,
                probe=self.probe,
            )
        else:
            from ..topo import advance_coupled

            stop_time, closed, stopped = advance_coupled(
                self._heap,
                self._coupling,
                self.tracker,
                draw,
                params.tc,
                until,
                stop_on_full_sync=stop_on_full_sync,
                stop_on_full_unsync=stop_on_full_unsync,
                probe=self.probe,
            )
        self.total_cascades += closed
        self.now = stop_time if stopped else max(self.now, until)
        return self.now

    @property
    def synchronization_time(self) -> float | None:
        """First time all N routers reset together."""
        return self.tracker.synchronization_time

    @property
    def breakup_time(self) -> float | None:
        """First time a full window of lone resets occurred."""
        return self.tracker.breakup_time
