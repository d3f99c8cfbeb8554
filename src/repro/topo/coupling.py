"""Adjacency-masked reset propagation: the coupling graph at runtime.

A :class:`Coupling` is a :class:`~repro.topo.spec.TopologySpec`
instantiated on a concrete node count.  It answers the one question
the generalized cascade kernel asks — "may node ``v``'s expiry at time
``t`` join a cascade containing node ``u``?" — and reports whether the
graph is *complete at all times*.  A complete coupling is exactly the
paper's fully-coupled model, so :class:`~repro.core.fastsim.CascadeModel`
and :class:`~repro.core.batch.BatchCascade` run it with no coupling
(:func:`~repro.topo.advance_coupled` with ``coupling=None``, the C
kernel with no adjacency), which skips the adjacency test: results,
cache keys and consumed-RNG positions are those of the paper's rule.
:attr:`Coupling.phases` and :attr:`Coupling.period` expose the
per-phase neighbour sets the compiled batch kernel packs into CSR.
"""

from __future__ import annotations

from .spec import TopologySpec, adjacency, ensure_spec

__all__ = ["Coupling"]


class Coupling:
    """One topology spec bound to a node count.

    Parameters
    ----------
    spec:
        A :class:`TopologySpec` or its canonical string form.
    n:
        Number of routers; the graph is generated deterministically
        from ``(spec, n)``.
    """

    __slots__ = ("spec", "n", "is_complete", "_static", "_phase_adj", "_period")

    def __init__(self, spec: "TopologySpec | str", n: int) -> None:
        spec = ensure_spec(spec)
        if n < 1:
            raise ValueError("n must be >= 1")
        self.spec = spec
        self.n = n
        if spec.time_varying:
            self._static = None
            self._phase_adj = tuple(
                adjacency(phase, n) for phase in spec.phases
            )
            self._period = spec.period
            self.is_complete = all(
                self._complete(adj) for adj in self._phase_adj
            )
        else:
            self._static = adjacency(spec, n)
            self._phase_adj = None
            self._period = None
            self.is_complete = self._complete(self._static)

    @staticmethod
    def _complete(adj) -> bool:
        n = len(adj)
        return all(len(nbrs) == n - 1 for nbrs in adj)

    @property
    def phases(self) -> tuple:
        """Neighbour sets per schedule phase, in schedule order.

        One phase for a static graph.  The phase in force at time
        ``t`` is ``phases[int(t / period) % len(phases)]``.
        """
        if self._static is not None:
            return (self._static,)
        return self._phase_adj

    @property
    def period(self) -> float | None:
        """The switching dwell time; None for a static graph."""
        return self._period

    def adjacency_at(self, t: float):
        """The neighbor sets in force at simulated time ``t``."""
        if self._static is not None:
            return self._static
        index = int(t / self._period) % len(self._phase_adj)
        return self._phase_adj[index]

    def adjacent(self, u: int, v: int, t: float) -> bool:
        """Whether ``u`` and ``v`` are coupled at time ``t``.

        For time-varying specs the edge set is evaluated at the
        *join* time — the instant ``v``'s routing message would land
        on ``u`` — which is the documented membership rule of the
        generalized cascade (see DESIGN.md §13).
        """
        if self._static is not None:
            return v in self._static[u]
        return v in self.adjacency_at(t)[u]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Coupling({self.spec.canonical()!r}, n={self.n})"
