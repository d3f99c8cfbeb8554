"""The generalized multi-cascade kernel for graph-coupled resets.

The paper's cascade rule assumes full coupling: the earliest pending
expiry opens *the* busy window, every later expiry inside it joins,
and everyone resets together when the window closes.  On an arbitrary
graph several cascades can be in flight at once, and an expiry may
only join a cascade it is *adjacent* to.  This module implements that
generalization in Python.  :class:`~repro.core.fastsim.CascadeModel`
and the ``python`` backend of :class:`~repro.core.batch.BatchCascade`
run it; the ``compiled`` backend runs its C port
(``repro/core/_batch_kernel.c``), and
``tests/test_engine_differential.py`` differences the port against this
function byte for byte, consumed-RNG positions included.

Semantics (the deterministic rule set, documented in DESIGN.md §13):

* Pending expiries are processed in ``(time, node)`` heap order.
* An expiry at ``t`` joins the earliest-created active cascade whose
  window satisfies ``t <= window`` and that contains at least one
  member adjacent to the node *at time t*; joining grows that
  cascade's window by ``Tc``.  Cascades never merge.
* An expiry adjacent to no joinable cascade opens a new one with
  window ``t + Tc``.
* A cascade closes at its window: all members reset simultaneously at
  the window time and redraw their intervals, both in join order.
  Same-window closes resolve in creation order; a same-time pending
  expiry is processed *before* the close (it may still join, since
  the join test is ``<=`` — exactly the fully-coupled engine's rule).
* A cascade whose window outlives the horizon never closes in this
  call: its members' original expiries are restored to the heap, so a
  later call with a larger horizon resumes exactly here.

On a complete graph at most one cascade is ever active and every
pending expiry ``<= window`` joins it, so the rule collapses to the
paper's single-cascade rule — same resets, same redraw order, same
consumed-RNG positions (proven against the fully-coupled engines in
``tests/test_topo_properties.py``).  The engines dispatch complete
couplings to :func:`repro.core.fastsim.advance_dense` (or the C batch
kernel with no adjacency); this kernel is the non-clique path and the
reference for the C kernel's sparse case.
"""

from __future__ import annotations

import heapq

__all__ = ["advance_coupled"]

_INF = float("inf")


def advance_coupled(
    heap: list,
    coupling,
    tracker,
    draw,
    tc: float,
    until: float,
    stop_on_full_sync: bool = False,
    stop_on_full_unsync: bool = False,
    probe=None,
) -> tuple[float | None, int, bool]:
    """Advance graph-coupled cascades until the horizon or a stop.

    Parameters
    ----------
    heap:
        Mutable heap of ``(expiry_time, node)`` pairs — the caller's
        persistent pending-expiry state.  Mutated in place; on return
        it holds exactly the expiries still pending (including the
        restored members of cascades that outlived the horizon).
    coupling:
        A :class:`~repro.topo.coupling.Coupling` (or anything with an
        ``adjacent(u, v, t)`` method).
    tracker:
        A :class:`~repro.core.clusters.ClusterTracker`; receives every
        reset in close order and is ``finish()``-ed before return.
    draw:
        ``draw(node) -> float`` — consumes one interval draw from the
        node's stream.  Streams are consumed in join order at each
        close, mirroring the fully-coupled engines' pop order.
    tc:
        Per-message processing cost (the window increment).
    until:
        Horizon in seconds.
    stop_on_full_sync / stop_on_full_unsync:
        Checked after each cascade close, as in ``CascadeModel.run``.
    probe:
        Optional simulation probe; gets ``on_cascade(window, members)``
        with the members' original ``(expiry_time, node)`` pairs.

    Returns ``(stop_time, cascades_closed, stopped)``: ``stop_time``
    is the time of the last close when a stop condition fired (None
    when the run reached the horizon), ``cascades_closed`` counts
    closes, and ``stopped`` says whether a stop condition ended the
    run early.
    """
    cascades: list[list] = []  # [window, [(expiry_time, node), ...]] in creation order
    closed = 0

    def _restore_active() -> None:
        for cascade in cascades:
            for entry in cascade[1]:
                heapq.heappush(heap, entry)

    while True:
        exp_t = heap[0][0] if heap else _INF
        close_i = -1
        close_t = _INF
        for index, cascade in enumerate(cascades):
            if cascade[0] < close_t:
                close_t = cascade[0]
                close_i = index
        if exp_t <= close_t and exp_t <= until:
            t, node = heapq.heappop(heap)
            joined = None
            for cascade in cascades:
                if t <= cascade[0] and any(
                    coupling.adjacent(member, node, t)
                    for _e, member in cascade[1]
                ):
                    joined = cascade
                    break
            if joined is not None:
                joined[1].append((t, node))
                joined[0] += tc
            else:
                cascades.append([t + tc, [(t, node)]])
        elif close_t <= until:
            window, members = cascades.pop(close_i)
            closed += 1
            if probe is not None:
                probe.on_cascade(window, list(members))
            for _e, node in members:
                tracker.record_reset(window, node)
            for _e, node in members:
                heapq.heappush(heap, (window + draw(node), node))
            if stop_on_full_sync and tracker.is_fully_synchronized():
                _restore_active()
                tracker.finish()
                return window, closed, True
            if stop_on_full_unsync and tracker.is_fully_unsynchronized():
                _restore_active()
                tracker.finish()
                return window, closed, True
        else:
            break
    _restore_active()
    tracker.finish()
    return None, closed, False
