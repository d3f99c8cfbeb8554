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
loop itself is :func:`repro.topo.advance_coupled`, the graph-coupled
rule, run with no coupling (every router hears every reset); the
batch engine's python backend (:mod:`repro.core.batch`) runs it per
member as well.  Run with the same seed, it consumes each router's
random stream in the same per-router order as the DES and therefore reproduces the DES
trajectory *bit for bit* (verified in
``tests/test_engine_differential.py``), making it both a fast engine for
large ensembles and an executable proof that the DES implements the
model it claims to.
"""

from __future__ import annotations

import heapq
from typing import Literal, Sequence

from ..rng import MODULUS, MULTIPLIER, RandomSource
from .clusters import ClusterTracker
from .parameters import RouterTimingParameters

__all__ = ["CascadeModel"]

InitialPhases = Literal["unsynchronized", "synchronized"] | Sequence[float]


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
    topology:
        Optional :class:`~repro.topo.TopologySpec` (or its canonical
        string form) restricting which routers hear which resets.
        ``None`` and any coupling whose generated graph is complete
        (``"clique"``, a 3-ring, ``erdos_renyi`` with p=1, ...) run
        :func:`repro.topo.advance_coupled` with no coupling, which
        skips the adjacency test.  Stream derivation and phase draws
        are identical either way.
    """

    def __init__(
        self,
        params: RouterTimingParameters,
        seed: int = 1,
        initial_phases: InitialPhases = "unsynchronized",
        keep_cluster_history: bool = False,
        topology=None,
    ) -> None:
        self.params = params
        n = params.n_nodes
        self.topology = None
        self._coupling = None
        if topology is not None:
            from ..topo import Coupling, ensure_spec

            self.topology = ensure_spec(topology)
            coupling = Coupling(self.topology, n)
            if not coupling.is_complete:
                self._coupling = coupling
        self.tracker = ClusterTracker(n, keep_history=keep_cluster_history)
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
        span = (params.tp + params.tr) - low
        gens = [rng._gen for rng in self._rngs]

        def draw(node: int) -> float:
            # RandomSource.uniform(low, high) with the Lehmer step
            # inline: the same state update and the same float
            # operands in the same order.
            gen = gens[node]
            state = (MULTIPLIER * gen._state) % MODULUS
            gen._state = state
            return low + span * (state / MODULUS)

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
