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
pending expiries — no event queue, no per-message bookkeeping.  It is
a one-member view over a ``backend="python"``
:class:`~repro.core.batch.BatchCascade`, which holds the one copy of
the per-seed set-up (stream derivation, phase draws, heap seeding)
and runs the loop :func:`repro.topo.advance_coupled`; it never runs
the C kernel, so it stays the oracle the C kernel is checked against.
Run with the same seed, it consumes each router's random stream in
the same order as the DES and reproduces the DES trajectory *bit for
bit* (``tests/test_engine_differential.py``).
"""

from __future__ import annotations

from typing import Literal, Sequence

from .batch import BatchCascade
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
        self._batch = BatchCascade(
            params,
            [seed],
            initial_phases=initial_phases,
            keep_cluster_history=keep_cluster_history,
            backend="python",
            topology=topology,
        )
        self._member = self._batch.members[0]
        self.params = params
        self.topology = self._batch.topology
        self.tracker = self._batch._trackers[0]

    @property
    def _coupling(self):
        """The coupling the loop tests adjacency on (None: complete)."""
        return self._batch._coupling

    @_coupling.setter
    def _coupling(self, coupling) -> None:
        self._batch._coupling = coupling

    @property
    def now(self) -> float:
        """Simulated time reached so far."""
        return self._member.now

    @property
    def total_cascades(self) -> int:
        """Cascades closed so far."""
        return self._member.total_cascades

    def run(
        self,
        until: float,
        stop_on_full_sync: bool = False,
        stop_on_full_unsync: bool = False,
    ) -> float:
        """Advance cascades until the horizon or a stop condition."""
        self._batch._run_scalar(
            float(until), stop_on_full_sync, stop_on_full_unsync
        )
        return self._member.now

    @property
    def synchronization_time(self) -> float | None:
        """First time all N routers reset together."""
        return self.tracker.synchronization_time

    @property
    def breakup_time(self) -> float | None:
        """First time a full window of lone resets occurred."""
        return self.tracker.breakup_time
