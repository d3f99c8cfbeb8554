"""Topology specs: which routers hear which timer resets.

The paper's model is fully coupled — every router processes every
routing message, so one timer expiry extends *everyone's* busy period.
The natural generalization (pulse-coupled oscillators on trees [Lyu],
synchronization in dynamic networks [Charron-Bost & Moran]) couples
routers over an arbitrary graph: a reset cascade can only capture a
router adjacent to one of the cascade's current members.

A :class:`TopologySpec` names one such coupling graph *family* — the
graph itself is generated deterministically once the node count N is
known.  Specs are tiny frozen values with a canonical string form
(``"clique"``, ``"ring"``, ``"tree(b=2)"``,
``"erdos_renyi(p=0.25,seed=7)"``, ``"switching(ring|star,period=60.0)"``)
so they travel inside :class:`~repro.parallel.job.SimulationJob`
specs, cache keys, campaign files, and HTTP bodies as plain strings.

Determinism contract: graph generation uses the repo's own Lehmer
generator (never ``np.random`` — the ``determinism`` rule of
``repro.tools.lint`` covers this package), keyed on ``(spec.seed, n)``, so every host
expanding the same spec builds the same adjacency forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..rng.lehmer import MODULUS, MULTIPLIER, LehmerGenerator

__all__ = [
    "KINDS",
    "TopologySpec",
    "adjacency",
    "components",
    "diameter",
    "ensure_spec",
    "mean_degree",
    "parse_topology",
    "tree_size",
]

#: The topology families a spec can name.  ``switching`` is the
#: time-varying family: it cycles through its sub-specs' graphs with a
#: fixed dwell period (the link-schedule model of Charron-Bost &
#: Moran, specialized to periodic schedules).
KINDS = ("clique", "ring", "star", "tree", "erdos_renyi", "switching")

#: Number formatting for canonical strings: ``repr`` round-trips
#: float64 exactly, so equal specs canonicalize to equal strings.


def _fmt(value: float) -> str:
    return repr(float(value))


@dataclass(frozen=True)
class TopologySpec:
    """One coupling-graph family, sized later by the job's ``n_nodes``.

    Attributes
    ----------
    kind:
        One of :data:`KINDS`.
    b:
        Branching factor for ``tree`` (node ``i``'s parent is
        ``(i - 1) // b``; ``b=1`` is a path).
    p:
        Edge probability for ``erdos_renyi`` (G(n, p)).
    seed:
        Generation seed for ``erdos_renyi``; folded with ``n`` so the
        same spec yields the same graph on every host.
    period:
        Dwell time in seconds for ``switching`` — the active sub-graph
        at time ``t`` is ``phases[int(t / period) % len(phases)]``.
    phases:
        The ``switching`` sub-specs, in schedule order (one level of
        nesting only).
    """

    kind: str
    b: int | None = None
    p: float | None = None
    seed: int = 1
    period: float | None = None
    phases: tuple["TopologySpec", ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown topology kind {self.kind!r}; known: {', '.join(KINDS)}"
            )
        if self.kind == "tree":
            if self.b is None or int(self.b) < 1:
                raise ValueError("tree topology needs a branching factor b >= 1")
            object.__setattr__(self, "b", int(self.b))
        elif self.b is not None:
            raise ValueError(f"topology {self.kind!r} takes no branching factor")
        if self.kind == "erdos_renyi":
            if self.p is None or not 0.0 <= float(self.p) <= 1.0:
                raise ValueError("erdos_renyi needs an edge probability p in [0, 1]")
            object.__setattr__(self, "p", float(self.p))
            object.__setattr__(self, "seed", int(self.seed))
        elif self.p is not None:
            raise ValueError(f"topology {self.kind!r} takes no edge probability")
        if self.kind == "switching":
            if not self.phases:
                raise ValueError("switching topology needs at least one phase")
            # ``not > 0`` so that a NaN period is refused too.
            if self.period is None or not float(self.period) > 0:
                raise ValueError("switching topology needs a positive period")
            object.__setattr__(self, "period", float(self.period))
            object.__setattr__(self, "phases", tuple(self.phases))
            for phase in self.phases:
                if phase.kind == "switching":
                    raise ValueError("switching phases cannot nest further switching")
        else:
            if self.period is not None:
                raise ValueError(f"topology {self.kind!r} takes no period")
            if self.phases:
                raise ValueError(f"topology {self.kind!r} takes no phases")

    def canonical(self) -> str:
        """The spec's canonical string form (parses back to ``self``)."""
        if self.kind == "tree":
            return f"tree(b={self.b})"
        if self.kind == "erdos_renyi":
            return f"erdos_renyi(p={_fmt(self.p)},seed={self.seed})"
        if self.kind == "switching":
            inner = "|".join(phase.canonical() for phase in self.phases)
            return f"switching({inner},period={_fmt(self.period)})"
        return self.kind

    @property
    def time_varying(self) -> bool:
        """Whether the coupling graph changes over simulated time."""
        return self.kind == "switching"

    def graph_at(self, t: float) -> "TopologySpec":
        """The static spec active at time ``t`` (self when static)."""
        if self.kind != "switching":
            return self
        index = int(t / self.period) % len(self.phases)
        return self.phases[index]


def ensure_spec(topology: "TopologySpec | str") -> TopologySpec:
    """Coerce a spec-or-string to a :class:`TopologySpec`."""
    if isinstance(topology, TopologySpec):
        return topology
    return parse_topology(topology)


def _split_top_level(text: str, sep: str) -> list[str]:
    """Split on ``sep`` outside parentheses."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in topology {text!r}")
        if ch == sep and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in topology {text!r}")
    parts.append("".join(current))
    return parts


def parse_topology(text: str) -> TopologySpec:
    """Parse a topology string (``"ring"``, ``"tree(b=2)"``, ...).

    The accepted grammar is ``kind`` or ``kind(key=value,...)``;
    ``switching`` takes its sub-specs as a ``|``-separated first
    argument: ``switching(ring|star,period=60)``.  Bare ``tree`` and
    ``erdos_renyi`` use the defaults ``b=2`` and ``p=0.5``.
    Whitespace is ignored.  Raises :class:`ValueError` on anything
    else.
    """
    if not isinstance(text, str):
        raise ValueError(f"topology must be a string, got {type(text).__name__}")
    compact = "".join(text.split())
    if not compact:
        raise ValueError("topology must be non-empty")
    if "(" not in compact:
        name, args = compact, ""
    else:
        name, _, rest = compact.partition("(")
        if not rest.endswith(")"):
            raise ValueError(f"unbalanced parentheses in topology {text!r}")
        args = rest[:-1]
    if name not in KINDS:
        raise ValueError(
            f"unknown topology kind {name!r}; known: {', '.join(KINDS)}"
        )
    positional: list[str] = []
    keywords: dict[str, str] = {}
    if args:
        for part in _split_top_level(args, ","):
            if not part:
                raise ValueError(f"empty argument in topology {text!r}")
            if "=" in part and "(" not in part.split("=", 1)[0]:
                key, _, value = part.partition("=")
                if key in keywords:
                    raise ValueError(f"duplicate argument {key!r} in topology {text!r}")
                keywords[key] = value
            else:
                positional.append(part)

    def _want(allowed: set[str]) -> None:
        unknown = sorted(set(keywords) - allowed)
        if unknown:
            raise ValueError(
                f"topology {name!r} got unknown argument(s): {', '.join(unknown)}"
            )

    try:
        if name == "tree":
            _want({"b"})
            if positional:
                raise ValueError("tree takes exactly one argument: b=<int>")
            return TopologySpec(kind="tree", b=int(keywords.get("b", 2)))
        if name == "erdos_renyi":
            _want({"p", "seed"})
            if positional:
                raise ValueError("erdos_renyi takes p=<float> and optional seed=<int>")
            return TopologySpec(
                kind="erdos_renyi",
                p=float(keywords.get("p", 0.5)),
                seed=int(keywords.get("seed", 1)),
            )
        if name == "switching":
            _want({"period"})
            if len(positional) != 1 or "period" not in keywords:
                raise ValueError(
                    "switching takes a |-separated phase list and period=<seconds>"
                )
            phases = tuple(
                parse_topology(part) for part in _split_top_level(positional[0], "|")
            )
            return TopologySpec(
                kind="switching", period=float(keywords["period"]), phases=phases
            )
    except ValueError:
        raise
    except (TypeError, OverflowError) as error:
        raise ValueError(f"bad argument in topology {text!r}: {error}")
    if positional or keywords:
        raise ValueError(f"topology {name!r} takes no arguments")
    return TopologySpec(kind=name)


# -- deterministic graph generation ---------------------------------------


def _er_generator(seed: int, n: int) -> LehmerGenerator:
    """The Lehmer stream for one (seed, n) Erdős–Rényi instance.

    The mix mirrors the engines' stream derivation style (Knuth
    multiplicative hash + an index offset) so distinct (seed, n) pairs
    land on well-separated states.
    """
    mixed = (int(seed) * 2654435761 + n * 40503 + 11) % MODULUS
    return LehmerGenerator(mixed or 1)


def adjacency(spec: "TopologySpec | str", n: int) -> tuple[frozenset[int], ...]:
    """Neighbor sets of the spec's graph on ``n`` nodes.

    Self-loops never occur; the graph is undirected.  For
    ``switching`` specs this is the *union* graph (a pair is adjacent
    here iff adjacent in some phase) — per-phase graphs come from
    ``adjacency(spec.graph_at(t), n)``.
    """
    spec = ensure_spec(spec)
    if n < 1:
        raise ValueError("n must be >= 1")
    neighbors: list[set[int]] = [set() for _ in range(n)]

    def connect(u: int, v: int) -> None:
        neighbors[u].add(v)
        neighbors[v].add(u)

    if spec.kind == "clique":
        for u in range(n):
            for v in range(u + 1, n):
                connect(u, v)
    elif spec.kind == "ring":
        if n == 2:
            connect(0, 1)
        elif n > 2:
            for u in range(n):
                connect(u, (u + 1) % n)
    elif spec.kind == "star":
        for v in range(1, n):
            connect(0, v)
    elif spec.kind == "tree":
        for v in range(1, n):
            connect(v, (v - 1) // spec.b)
    elif spec.kind == "erdos_renyi":
        # One LehmerGenerator.random() draw per pair, inlined (a method
        # call per pair is most of the cost at n ~ 100).  Fixed
        # lexicographic pair order makes the draw sequence (and
        # therefore the graph) a pure function of (seed, n).
        state = _er_generator(spec.seed, n).state
        a, m, p = MULTIPLIER, MODULUS, spec.p
        for u in range(n):
            for v in range(u + 1, n):
                state = a * state % m
                if state / m < p:
                    connect(u, v)
    elif spec.kind == "switching":
        for phase in spec.phases:
            for u, nbrs in enumerate(adjacency(phase, n)):
                neighbors[u].update(nbrs)
    else:  # pragma: no cover - __post_init__ rejects unknown kinds
        raise ValueError(f"unknown topology kind {spec.kind!r}")
    return tuple(frozenset(nbrs) for nbrs in neighbors)


def tree_size(b: int, d: int) -> int:
    """Node count of the complete ``b``-ary tree of depth ``d``.

    Depth 0 is the root alone.  Used by fig16 to pick ``n`` values
    whose tree diameters grow one level at a time.
    """
    if b < 1 or d < 0:
        raise ValueError("need b >= 1 and d >= 0")
    if b == 1:
        return d + 1
    return (b ** (d + 1) - 1) // (b - 1)


# -- graph measures (exact, for the fig16/fig17 axes) ----------------------


def components(adj: Sequence[frozenset[int]]) -> list[list[int]]:
    """Connected components, each sorted, in order of smallest member."""
    n = len(adj)
    seen = [False] * n
    out: list[list[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in sorted(adj[u]):
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        out.append(sorted(comp))
    return out


def diameter(adj: Sequence[frozenset[int]]) -> int | None:
    """Longest shortest path (hops), or None when disconnected."""
    n = len(adj)
    if n == 0:
        return None
    best = 0
    for source in range(n):
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        if len(dist) < n:
            return None
        best = max(best, max(dist.values()))
    return best


def mean_degree(adj: Sequence[frozenset[int]]) -> float:
    """Average neighbor count (the fig17 x-axis)."""
    if not adj:
        return 0.0
    return sum(len(nbrs) for nbrs in adj) / len(adj)
