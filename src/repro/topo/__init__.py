"""Topology-aware coupling: synchronization on graphs, not just a clique.

``repro.topo`` generalizes the paper's fully-coupled model to coupling
over an arbitrary graph: :class:`TopologySpec` names a graph family
(clique, ring, star, b-ary tree, Erdős–Rényi, time-varying switching
schedules) with deterministic seed-keyed generation;
:class:`Coupling` binds a spec to a node count; and
:func:`advance_coupled` is the generalized multi-cascade rule in
Python, the one cascade loop the cascade engine and the batch
``python`` backend run, and the reference for the batch ``compiled``
backend's C port.  A complete coupling (``"clique"``, or any spec
whose generated graph is complete) runs it with ``coupling=None``,
which skips the adjacency test and is the paper's rule byte for byte.
"""

from .coupling import Coupling
from .kernel import advance_coupled
from .spec import (
    KINDS,
    TopologySpec,
    adjacency,
    components,
    diameter,
    ensure_spec,
    mean_degree,
    parse_topology,
)

__all__ = [
    "KINDS",
    "Coupling",
    "TopologySpec",
    "adjacency",
    "advance_coupled",
    "components",
    "diameter",
    "ensure_spec",
    "mean_degree",
    "parse_topology",
]
