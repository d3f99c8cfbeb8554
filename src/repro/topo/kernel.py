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
  the join test is ``<=`` — exactly the paper's single-cascade rule).
* A cascade whose window outlives the horizon never closes in this
  call: its members' original expiries are restored to the heap, so a
  later call with a larger horizon resumes exactly here.

On a complete graph at most one cascade is ever active and every
pending expiry ``<= window`` joins it, so the rule collapses to the
paper's single-cascade rule.  ``coupling=None`` is that case: the join
test skips the adjacency check, as the C kernel does with no
adjacency.  :class:`~repro.core.fastsim.CascadeModel` and the batch
``python`` backend pass None for every complete coupling;
``tests/test_engine_differential.py`` checks that case against the
DES, and ``tests/test_topo_properties.py`` checks that a real complete
:class:`~repro.topo.coupling.Coupling` gives the same bytes.
"""

from __future__ import annotations

import heapq
from operator import itemgetter

__all__ = ["advance_coupled"]

_window = itemgetter(0)


def advance_coupled(
    heap: list,
    coupling,
    tracker,
    draw,
    tc: float,
    until: float,
    stop_on_full_sync: bool = False,
    stop_on_full_unsync: bool = False,
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
        ``adjacent(u, v, t)`` method), or None for a complete graph.
    tracker:
        A :class:`~repro.core.clusters.ClusterTracker`; receives every
        reset in close order and is ``finish()``-ed before return.
    draw:
        ``draw(node) -> float`` — consumes one interval draw from the
        node's stream.  Streams are consumed in join order at each
        close.
    tc:
        Per-message processing cost (the window increment).
    until:
        Horizon in seconds.
    stop_on_full_sync / stop_on_full_unsync:
        Checked after each cascade close, as in ``CascadeModel.run``.

    Returns ``(stop_time, cascades_closed, stopped)``: ``stop_time``
    is the time of the last close when a stop condition fired (None
    when the run reached the horizon), ``cascades_closed`` counts
    closes, and ``stopped`` says whether a stop condition ended the
    run early.
    """
    adjacent = None if coupling is None else coupling.adjacent
    heappop = heapq.heappop
    heappush = heapq.heappush
    record = tracker.record_reset
    # Open cascades in creation order: [window, [(expiry_time, node), ...]]
    # with members in join order.  ``close`` is the earliest close, the
    # first minimum window in creation order, and ``bound`` the drain
    # limit, min(close window, until); both change only when the close
    # is joined, undercut by a new cascade, or closed.
    cascades: list[list] = []
    close = None
    bound = until
    closed = 0
    stop_time = None
    while True:
        # An expiry at the close time is processed first and may join.
        while heap and heap[0][0] <= bound:
            entry = heappop(heap)
            t = entry[0]
            for cascade in cascades:
                if t <= cascade[0] and (
                    adjacent is None
                    or any(adjacent(member, entry[1], t) for _e, member in cascade[1])
                ):
                    cascade[1].append(entry)
                    cascade[0] += tc
                    if cascade is close:
                        if len(cascades) > 1:
                            close = min(cascades, key=_window)
                        bound = close[0] if close[0] <= until else until
                    break
            else:
                cascade = [t + tc, [entry]]
                cascades.append(cascade)
                if close is None or cascade[0] < close[0]:
                    close = cascade
                    if cascade[0] < bound:
                        bound = cascade[0]
        if close is None or not close[0] <= until:
            break
        window, members = close
        cascades.remove(close)  # members are disjoint: only ``close`` matches
        closed += 1
        for _e, node in members:
            record(window, node)
        for _e, node in members:
            heappush(heap, (window + draw(node), node))
        if (stop_on_full_sync and tracker.is_fully_synchronized()) or (
            stop_on_full_unsync and tracker.is_fully_unsynchronized()
        ):
            stop_time = window
            break
        close = min(cascades, key=_window) if cascades else None
        bound = close[0] if close is not None and close[0] <= until else until
    for cascade in cascades:
        for entry in cascade[1]:
            heappush(heap, entry)
    tracker.finish()
    return stop_time, closed, stop_time is not None
