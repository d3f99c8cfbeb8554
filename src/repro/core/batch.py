"""Batched backend for the cascade rule, and the cascade rule's set-up.

:class:`BatchCascade` advances a whole ensemble of seeds: it derives
every member's router streams and initial phases in one pass, then
runs each member through the bundled C kernel or, where that cannot
build, through the Python loop :func:`repro.topo.advance_coupled`.
It holds the only copy of the per-seed set-up:
:class:`~repro.core.fastsim.CascadeModel`, the ``cascade`` engine, is
a one-member view over a ``backend="python"`` batch.

Bit-for-bit identity
--------------------
Each member's trajectory is identical to the DES
(:class:`~repro.core.model.PeriodicMessagesModel`) with ``seed=s`` —
not statistically, *byte for byte* — because both backends replay
the exact same arithmetic in the exact same order:

* Stream derivation repeats :meth:`repro.rng.RandomSource.spawn`
  verbatim: the same seed folding, one master Lehmer advance per
  router, the same multiplicative mix, the same ``n + 1`` stream id
  for the phase stream.
* Each router's interval draws are ``low + (high - low) * (state /
  m)`` with the same operand order, so every float rounds the same
  way.
* The C kernel reproduces the heap's ``(time, node)`` tie-break by
  keeping the pending expiries in a ring sorted by ``(time, node)``
  (a join pops its head, a redraw walks back from its tail), grows
  each busy window by sequential ``window += tc`` additions (no
  closed form), closes open cascades earliest window first (ties in
  creation order), and keeps an algebraic rewrite of
  :class:`~repro.core.clusters.ClusterTracker` (incremental window
  maximum, contiguous first-passage frontiers) with the same window,
  eviction order and backfills.

All of it is verified against the DES by
``tests/test_engine_differential.py``, including consumed-RNG
positions.

Backends
--------
``compiled``
    The graph-coupled cascade rule as a small C module with one entry
    point, built on demand with the system compiler and loaded through
    :mod:`ctypes` (see :mod:`repro.core._batch_kernel`).  A complete
    coupling runs it with no adjacency; a sparse one with a CSR
    adjacency per coupling phase.  Needs NumPy for its packed state.
``python``
    No third-party dependencies; always available.  Each member runs
    a heap + :class:`~repro.core.clusters.ClusterTracker` through
    :func:`repro.topo.advance_coupled` (with no coupling when the
    graph is complete); both are built at construction.

:func:`default_backend` picks ``compiled`` whenever the C kernel
resolves on this platform and ``python`` otherwise.  The choice is
made on first use and cached for the process, so importing this
module never runs a compiler.  Either backend can be forced with
``backend=...``; both produce byte-identical results, on complete
and sparse couplings alike.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .clusters import RESET_TIME_TOLERANCE, ClusterGroup, ClusterTracker
from .parameters import RouterTimingParameters

__all__ = [
    "BACKENDS",
    "BatchCascade",
    "BatchMember",
    "compiled_backend_available",
    "default_backend",
]

#: Every backend name :class:`BatchCascade` accepts.
BACKENDS = ("python", "compiled")

_MOD = 2**31 - 1  # == repro.rng.lehmer.MODULUS
_MUL = 16807  # == repro.rng.lehmer.MULTIPLIER

#: Most round-buffer slots a compiled member starts with (64 KiB of
#: series per member).
ROUNDS_CAP_MAX = 4096

#: Couplings kept built, by (canonical spec, n), with their packed CSR
#: adjacency: a campaign builds a batch per kernel group, and the fig16
#: study's seven graphs all fit.
COUPLING_CACHE_SIZE = 8


@lru_cache(maxsize=COUPLING_CACHE_SIZE)
def _sparse_coupling(topology: str, n: int):
    """``topology`` bound to ``n`` routers, or None when the graph is
    complete (the paper's rule, run with no coupling)."""
    from ..topo import Coupling

    coupling = Coupling(topology, n)
    return None if coupling.is_complete else coupling


@lru_cache(maxsize=COUPLING_CACHE_SIZE)
def _packed_adjacency(coupling):
    """The C kernel's read-only CSR arrays for one coupling."""
    from . import _batch_kernel

    return _batch_kernel.pack_adjacency(coupling.phases, coupling.n)


def default_backend() -> str:
    """The backend new instances use when none is forced.

    ``"compiled"`` when the C kernel resolves (NumPy importable and the
    kernel builds or loads from its cache), else ``"python"``.  The
    platform decides, not an option; the first call resolves the
    kernel and the answer is cached for the process.
    """
    return "compiled" if compiled_backend_available() else "python"


def compiled_backend_available() -> bool:
    """Whether ``backend="compiled"`` would work in this environment.

    True when NumPy imports and the bundled C kernel can be (or
    already has been) built with the system compiler.
    """
    from . import _batch_kernel

    return _batch_kernel.resolve_compiled() is not None


class BatchMember:
    """One ensemble member's trajectory state and statistics.

    Exposes the same outputs as a :class:`ClusterTracker`:
    :attr:`first_time_at_least` / :attr:`first_time_at_most` (the
    first-passage dicts), :attr:`round_times` / :attr:`round_largest`
    (the per-round largest-cluster series), :attr:`groups` (closed
    reset groups, when history is kept), :attr:`total_resets`,
    :attr:`total_cascades`, :attr:`now`, and the
    :attr:`synchronization_time` / :attr:`breakup_time` properties.
    """

    __slots__ = (
        "seed",
        "n_nodes",
        "now",
        "total_cascades",
        "total_resets",
        "groups",
        "first_time_at_least",
        "first_time_at_most",
        "round_times",
        "round_largest",
    )

    def __init__(self, seed: int, n_nodes: int) -> None:
        self.seed = seed
        self.n_nodes = n_nodes
        self.now = 0.0
        self.total_cascades = 0
        self.total_resets = 0
        self.groups: list[ClusterGroup] = []
        self.first_time_at_least: dict[int, float] = {}
        self.first_time_at_most: dict[int, float] = {}
        self.round_times: list[float] = []
        self.round_largest: list[int] = []

    @property
    def synchronization_time(self) -> float | None:
        """First time all N routers reset together."""
        return self.first_time_at_least.get(self.n_nodes)

    @property
    def breakup_time(self) -> float | None:
        """First time a full window of lone resets occurred."""
        return self.first_time_at_most.get(1)


class BatchCascade:
    """Cascade-rule simulation of many seeds through one kernel.

    Parameters
    ----------
    params:
        The (N, Tp, Tc, Tr) tuple, shared by every member.
    seeds:
        One master seed per ensemble member; member ``k`` reproduces
        the DES with ``seed=seeds[k]`` bit for bit.
    initial_phases:
        As in the DES: "unsynchronized" (uniform on [0, Tp]
        from each member's own phase stream), "synchronized" (all
        zero), or explicit phases applied to every member.
    keep_cluster_history:
        When True, each member retains its closed reset groups.
    backend:
        One of :data:`BACKENDS`, or None for :func:`default_backend`.
        Both backends produce identical bytes; "compiled" raises if
        the C kernel is unavailable (no NumPy or no working C
        toolchain).
    topology:
        Optional :class:`~repro.topo.TopologySpec` (or canonical
        string).  Every coupling runs the graph-coupled rule: on
        ``python`` through :func:`repro.topo.advance_coupled` with
        per-member :class:`ClusterTracker` state, on ``compiled``
        through the C kernel
        over per-phase CSR adjacency.  ``None`` and complete couplings
        run with no coupling (no adjacency in C), which skips the
        adjacency test.
    """

    def __init__(
        self,
        params: RouterTimingParameters,
        seeds: Sequence[int],
        initial_phases="unsynchronized",
        keep_cluster_history: bool = False,
        backend: str | None = None,
        topology=None,
    ) -> None:
        if backend is None:
            backend = default_backend()
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown batch backend {backend!r}; known backends: "
                f"{', '.join(BACKENDS)}"
            )
        if backend == "compiled" and not compiled_backend_available():
            raise RuntimeError(
                "compiled backend requested but the C kernel is "
                "unavailable (it needs numpy and a working C toolchain)"
            )
        seeds = [int(s) for s in seeds]
        if not seeds:
            raise ValueError("seeds must be non-empty")
        self.params = params
        self.backend = backend
        self._keep_history = keep_cluster_history
        n = params.n_nodes
        self.topology = None
        self._coupling = None
        if topology is not None:
            from ..topo import ensure_spec

            self.topology = ensure_spec(topology)
            self._coupling = _sparse_coupling(self.topology.canonical(), n)
        self._n = n
        self._m = len(seeds)
        self._tc = params.tc
        # The interval draw's operands, fixed once: the DES passes
        # (tp - tr, tp + tr) into uniform(), which multiplies by
        # (high - low).  Same floats, same order, here.
        self._low = params.tp - params.tr
        self._high = params.tp + params.tr
        self._span = self._high - self._low

        explicit = None
        if not isinstance(initial_phases, str):
            explicit = [float(p) for p in initial_phases]
            if len(explicit) != n:
                raise ValueError(f"expected {n} phases, got {len(explicit)}")
            if any(p < 0 for p in explicit):
                raise ValueError("initial phases must be non-negative")

        # -- per-member stream derivation (exact spawn() replay) -------
        # Flat state: initial expiries and router RNG states are single
        # lists of length m*n; member k's router i sits at k*n + i.
        expiry: list[float] = []
        states: list[int] = []
        phase_states: list[int] = []
        members: list[BatchMember] = []
        tp = params.tp
        for seed in seeds:
            s = int(seed) % _MOD or 1  # _validate_seed
            for i in range(n):
                s = (_MUL * s) % _MOD  # master.next_int() inside spawn(i)
                mixed = (s * 2654435761 + (i + 1) * 40503) % _MOD
                states.append(mixed or 1)
            s = (_MUL * s) % _MOD  # the spawn(n + 1) master advance
            mixed = (s * 2654435761 + (n + 2) * 40503) % _MOD
            ps = mixed or 1
            if explicit is not None:
                expiry.extend(explicit)
            elif initial_phases == "synchronized":
                expiry.extend([0.0] * n)
            else:
                # phase_rng.uniform(0.0, tp): 0.0 + (tp - 0.0) * u.
                q = ps
                for _ in range(n):
                    q = (_MUL * q) % _MOD
                    expiry.append(0.0 + (tp - 0.0) * (q / _MOD))
                ps = q
            phase_states.append(ps)
            members.append(BatchMember(seed, n))
        self._expiry = expiry
        self._rng_state = states
        self._phase_states = phase_states
        self._members = members
        # python backend: per-member pending-expiry heaps and real
        # trackers, live from construction (CascadeModel exposes
        # member 0's tracker as its own).
        self._heaps: list = []
        self._trackers: list = []
        if backend == "python":
            self._build_scalar()

        # Lazily-built packed per-member state (compiled backend).
        self._cstate: list | None = None
        self._crun = None
        self._cimpl = None
        #: Per-phase kernel seconds.  Neither backend splits its
        #: time into phases, so every key stays at 0.0; the mapping is
        #: kept for the benchmark tracer, which reads it.
        self.phase_seconds = {
            "rng_refill": 0.0,
            "boundary_scan": 0.0,
            "cascade_resolution": 0.0,
        }

    # -- public views ----------------------------------------------------

    @property
    def members(self) -> tuple[BatchMember, ...]:
        """Per-member trajectory views, in seed order."""
        return tuple(self._members)

    def rng_states(self, k: int) -> list[int]:
        """Member ``k``'s current per-router Lehmer states.

        Equal to ``[r.rng._gen.state for r in des.routers]`` of the
        equivalent DES at the same point — the witness that both
        engines consumed each stream to the same position.
        """
        if self._cstate is not None:
            return [int(v) for v in self._cstate[k].rng]
        base = k * self._n
        return self._rng_state[base : base + self._n]

    def phase_rng_state(self, k: int) -> int:
        """Member ``k``'s phase-stream state after initialization."""
        return self._phase_states[k]

    # -- the kernel ------------------------------------------------------

    def run(
        self,
        until: float,
        stop_on_full_sync: bool = False,
        stop_on_full_unsync: bool = False,
    ) -> list[float]:
        """Advance every member to the horizon or its stop condition.

        Each member advances independently (``CascadeModel.run`` is
        this with one member); returns the per-member ``now`` values.
        Resumable: a later call with a larger horizon picks each member
        up exactly where it stopped (members that met a stop condition
        continue, as the serial engine would).
        """
        until = float(until)
        if self.backend == "compiled":
            self._run_compiled(until, stop_on_full_sync, stop_on_full_unsync)
        else:
            self._run_scalar(until, stop_on_full_sync, stop_on_full_unsync)
        return [member.now for member in self._members]

    # -- scalar path (python backend) ------------------------------------

    def _build_scalar(self) -> None:
        """Seed each member's heap and tracker from the derived state.

        The heap is the sorted ``(expiry, node)`` list (ties break on
        node id, the DES's FIFO order for the initial schedule), and
        the tracker's containers *are* the member's views: further
        mutation on either side is shared.
        """
        n = self._n
        for k, member in enumerate(self._members):
            base = k * n
            heap = sorted((self._expiry[base + i], i) for i in range(n))
            tracker = ClusterTracker(n, keep_history=self._keep_history)
            member.first_time_at_least = tracker.first_time_at_least
            member.first_time_at_most = tracker.first_time_at_most
            member.round_times = tracker.round_times
            member.round_largest = tracker.round_largest
            member.groups = tracker.groups
            self._heaps.append(heap)
            self._trackers.append(tracker)

    def _run_scalar(
        self, until: float, stop_sync: bool, stop_unsync: bool
    ) -> None:
        """Advance every member through :func:`repro.topo.advance_coupled`.

        No coupling when the graph is complete.  ``draw`` maps member
        ``k``'s local node ``i`` to flat stream ``k*n + i``, and each
        member's real :class:`ClusterTracker` has output containers
        that *are* the member's views.  ``CascadeModel.run`` calls
        this directly, so a traced run of the ``cascade`` engine does
        not count as a batch run.
        """
        n = self._n
        from ..topo import advance_coupled

        rng = self._rng_state
        low, span = self._low, self._span
        stops = {
            "stop_on_full_sync": stop_sync,
            "stop_on_full_unsync": stop_unsync,
        }
        for k, member in enumerate(self._members):
            heap = self._heaps[k]
            tracker = self._trackers[k]

            def draw(node: int, _base: int = k * n) -> float:
                # RandomSource.uniform(low, high) on flat stream base+node.
                idx = _base + node
                s = (_MUL * rng[idx]) % _MOD
                rng[idx] = s
                return low + span * (s / _MOD)

            stop_time, closed, stopped = advance_coupled(
                heap, self._coupling, tracker, draw, self._tc, until, **stops
            )
            member.total_cascades += closed
            member.total_resets = tracker.total_resets
            member.now = stop_time if stopped else max(member.now, until)

    # -- compiled kernel (C) ---------------------------------------------

    def _rounds_cap(self, until: float) -> int:
        """Round-buffer slots for a run to ``until``.

        A router resets at most once per ``low + tc`` seconds (its
        redraw, then at least one ``tc`` of window), so a round takes
        at least that long and ``until / (low + tc)`` rounds fit, give
        or take the rounds in progress at either end.  Capped at
        :data:`ROUNDS_CAP_MAX`, since horizons arrive from request
        bodies; a longer or resumed run regrows the buffer.
        """
        shortest = self._low + self._tc
        if not (until > 0.0 and shortest > 0.0):
            return 64
        return int(min(until / shortest + 2.0, ROUNDS_CAP_MAX))

    def _ensure_compiled(self, until: float) -> None:
        if self._cstate is not None:
            return
        from . import _batch_kernel

        resolved = _batch_kernel.resolve_compiled()
        assert resolved is not None  # guaranteed by __init__
        self._cimpl = resolved[1]
        n = self._n
        coupling = self._coupling
        self._crun = _batch_kernel.RunState(
            n,
            self._tc,
            self._low,
            self._span,
            RESET_TIME_TOLERANCE,
            self._keep_history,
            adjacency=None if coupling is None else _packed_adjacency(coupling),
            period=None if coupling is None else coupling.period,
        )
        rounds_cap = self._rounds_cap(until)
        self._cstate = [
            _batch_kernel.MemberState(
                self._expiry[k * n : (k + 1) * n],
                self._rng_state[k * n : (k + 1) * n],
                n,
                self._keep_history,
                rounds_cap,
            )
            for k in range(self._m)
        ]

    def _run_compiled(
        self, until: float, stop_sync: bool, stop_unsync: bool
    ) -> None:
        from ._batch_kernel import advance

        self._ensure_compiled(until)
        kernel = self._cimpl
        run = self._crun
        run.set_call(until, stop_sync, stop_unsync)
        for member, st in zip(self._members, self._cstate):
            advance(kernel, st, run)
            st.sync_member(member)
