"""Batched struct-of-arrays backend for the cascade rule.

One :class:`~repro.core.fastsim.CascadeModel` per seed pays for a
heap, a :class:`~repro.core.clusters.ClusterTracker`, and an object
per pending expiry — at ensemble scale that bookkeeping, not the
model, is the dominant cost.  :class:`BatchCascade` advances a whole
ensemble of seeds through one kernel instead: every member's pending
timer expiries live in one SoA slab (member ``k``'s routers occupy
row ``k``), the cascade rule is applied per member, and the cluster
statistics are maintained by a fused tracker that keeps an
incremental window maximum instead of rescanning the window on every
reset.

Bit-for-bit identity
--------------------
Each member's trajectory is identical to ``CascadeModel(params,
seed=s)`` — not statistically, *byte for byte* — because every
backend replays the exact same arithmetic in the exact same order:

* Stream derivation repeats :meth:`repro.rng.RandomSource.spawn`
  verbatim: one master Lehmer advance per router, the same
  multiplicative mix, the same ``n + 1`` stream id for the phase
  stream.
* Each router's interval draws are ``low + (high - low) * (state /
  m)`` with the same operand order, so every float rounds the same
  way.
* The heap's ``(time, node)`` tie-break is reproduced by taking the
  *first* minimum in node order within the member's slice.
* The busy window grows by sequential ``window += tc`` additions (no
  closed form), accumulating the identical rounding.
* The fused tracker is an algebraic rewrite of
  :class:`~repro.core.clusters.ClusterTracker` — same window deque,
  same eviction order, same first-passage backfills.  All of it is
  verified against the DES by ``tests/test_engine_differential.py``,
  including consumed-RNG positions.

Backends
--------
``python``
    Pure-Python scalar kernel, no third-party dependencies.  Always
    available; the portable reference.
``compiled``
    The same scalar kernel as a small C module, built on demand with
    the system compiler and loaded through :mod:`ctypes` (see
    :mod:`repro.core._batch_kernel`).  Needs NumPy for its packed
    state.

:func:`default_backend` picks ``compiled`` whenever the C kernel
resolves on this platform and ``python`` otherwise.  The choice is
made on first use and cached for the process, so importing this
module never runs a compiler.  Either backend can be forced with
``backend=...``; both produce byte-identical results.
"""

from __future__ import annotations

from collections import deque
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
_INF = float("inf")


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

    Exposes the same outputs as ``CascadeModel`` + its tracker:
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
        "_open_time",
        "_open_size",
        "_win",
        "_window_resets",
        "_wmax",
        "_ftal_max",
        "_ftam_min",
        "_round_fill",
        "_round_max",
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
        self._open_time: float | None = None
        self._open_size = 0
        # Sliding window of the last N resets' group sizes, exactly as
        # ClusterTracker keeps it: [group_size, resets_in_window] pairs.
        self._win: deque[list] = deque()
        self._window_resets = 0
        # Incremental max over window entry sizes (== largest_in_window).
        self._wmax = 0
        # first_time_at_least keys are contiguous {1..max}; at_most keys
        # contiguous {min..n}.  Tracking the frontiers replaces the
        # per-reset dict membership probes and backfill loops.
        self._ftal_max = 0
        self._ftam_min = n_nodes + 1
        self._round_fill = 0
        self._round_max = 0

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
        ``CascadeModel(params, seed=seeds[k], ...)`` bit for bit.
    initial_phases:
        As in ``CascadeModel``: "unsynchronized" (uniform on [0, Tp]
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
        string).  ``None`` and complete couplings run the original
        fully-coupled kernels byte for byte.  Non-complete couplings
        run every member through the shared generalized kernel
        (:func:`repro.topo.advance_coupled`) with per-member
        :class:`ClusterTracker` state — the same code path
        ``CascadeModel`` uses, so cascade-vs-batch byte-identity on
        graphs is structural.  Topology runs draw from the scalar
        stream path on every backend (consumed positions unchanged),
        so the backends remain trivially identical.
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
            from ..topo import Coupling, ensure_spec

            self.topology = ensure_spec(topology)
            coupling = Coupling(self.topology, n)
            if not coupling.is_complete:
                self._coupling = coupling
        # Per-member generalized-kernel state (lazily built on the
        # first topology run): pending-expiry heaps and real trackers.
        self._topo_heaps: list | None = None
        self._topo_trackers: list | None = None
        self._n = n
        self._m = len(seeds)
        self._tc = params.tc
        # The interval draw's operands, fixed once: CascadeModel passes
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
        # Flat SoA state: expiries and router RNG states are single
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

        # Lazily-built packed per-member state (compiled backend).
        self._cstate: list | None = None
        self._cimpl = None
        #: Per-phase kernel seconds.  Neither scalar kernel splits its
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

        Equal to ``[m._rngs[i]._gen.state for i in range(n)]`` of the
        equivalent ``CascadeModel`` at the same point — the witness
        that both engines consumed each stream to the same position.
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

        Semantically ``CascadeModel.run(until, ...)`` applied to each
        member independently; returns the per-member ``now`` values.
        Resumable: a later call with a larger horizon picks each member
        up exactly where it stopped (members that met a stop condition
        continue, as the serial engine would).
        """
        until = float(until)
        if self._coupling is not None:
            self._run_topology(until, stop_on_full_sync, stop_on_full_unsync)
        elif self.backend == "compiled":
            self._run_compiled(until, stop_on_full_sync, stop_on_full_unsync)
        else:
            exp = self._expiry
            draw = self._draw_flat
            n = self._n
            for k, member in enumerate(self._members):
                self._advance_slice(
                    member,
                    exp,
                    k * n,
                    k * n + n,
                    draw,
                    until,
                    stop_on_full_sync,
                    stop_on_full_unsync,
                )
        return [member.now for member in self._members]

    # -- generalized graph-coupled kernel (all backends) -----------------

    def _run_topology(
        self, until: float, stop_sync: bool, stop_unsync: bool
    ) -> None:
        """Advance every member through :func:`repro.topo.advance_coupled`.

        Member ``k`` reproduces ``CascadeModel(params, seed=seeds[k],
        topology=...)`` bit for bit: same heap seeding, same
        per-router stream order (``draw`` maps local node ``i`` to
        flat stream ``k*n + i``, the exact scalar path), and a real
        :class:`ClusterTracker` whose output containers *are* the
        member's views.  Runs the scalar stream path on every backend
        so consumed-RNG positions stay backend-independent.
        """
        from ..topo import advance_coupled

        n = self._n
        if self._topo_heaps is None:
            self._topo_heaps = []
            self._topo_trackers = []
            for k, member in enumerate(self._members):
                base = k * n
                heap = sorted(
                    (self._expiry[base + i], i) for i in range(n)
                )
                tracker = ClusterTracker(n, keep_history=self._keep_history)
                # The tracker's containers become the member's views:
                # further mutation on either side is shared.
                member.first_time_at_least = tracker.first_time_at_least
                member.first_time_at_most = tracker.first_time_at_most
                member.round_times = tracker.round_times
                member.round_largest = tracker.round_largest
                member.groups = tracker.groups
                self._topo_heaps.append(heap)
                self._topo_trackers.append(tracker)
        coupling = self._coupling
        tc = self._tc
        for k, member in enumerate(self._members):
            base = k * n
            tracker = self._topo_trackers[k]

            def draw(node: int, _base: int = base) -> float:
                return self._draw_flat(_base + node)

            stop_time, closed, stopped = advance_coupled(
                self._topo_heaps[k],
                coupling,
                tracker,
                draw,
                tc,
                until,
                stop_on_full_sync=stop_sync,
                stop_on_full_unsync=stop_unsync,
            )
            member.total_cascades += closed
            member.total_resets = tracker.total_resets
            member.now = stop_time if stopped else max(member.now, until)

    # -- scalar kernel (python backend) ----------------------------------

    def _advance_slice(
        self,
        member: BatchMember,
        exp: list,
        lo: int,
        hi: int,
        draw,
        until: float,
        stop_sync: bool,
        stop_unsync: bool,
    ) -> None:
        """Replay of ``CascadeModel.run`` over one member's slice.

        ``exp`` is a mutable flat sequence; the member's routers occupy
        ``[lo, hi)`` and ``draw(i)`` consumes one interval draw from
        flat stream ``i``.  Returns when the member is done for this
        ``run()`` call (horizon reached or stop condition met).
        """
        n = self._n
        tc = self._tc
        tol = RESET_TIME_TOLERANCE
        keep = self._keep_history
        win = member._win
        while True:
            # Earliest pending expiry; first minimum in the slice is
            # the lowest node id, matching the heap's (time, node) order.
            e1 = min(exp[lo:hi])
            if e1 > until:
                member.now = max(member.now, until)
                self._finish(member)
                return
            i1 = exp.index(e1, lo, hi)
            exp[i1] = _INF
            idxs = [i1]
            times = [e1]
            window = e1 + tc
            while True:
                e = min(exp[lo:hi])
                if e > window:
                    break
                i = exp.index(e, lo, hi)
                exp[i] = _INF
                idxs.append(i)
                times.append(e)
                window += tc
            if window > until:
                # Busy period outlives the horizon: restore the pending
                # expiries and stop here, exactly as the serial engine
                # does (which also closes the trailing open group, as
                # the DES's end-of-run finish() would).
                for i, e in zip(idxs, times):
                    exp[i] = e
                member.now = until
                self._finish(member)
                return
            member.total_cascades += 1
            member.now = window
            t = window
            g = len(idxs)

            # -- fused ClusterTracker.record_reset × g at time t ------
            open_time = member._open_time
            if open_time is not None and abs(t - open_time) <= tol:
                s = member._open_size
                cur = win[-1]
            else:
                if open_time is not None:
                    if keep:
                        member.groups.append(
                            ClusterGroup(open_time, member._open_size)
                        )
                cur = [0, 0]
                win.append(cur)
                s = 0
            wres = member._window_resets
            wmax = member._wmax
            ftal = member.first_time_at_least
            ftal_max = member._ftal_max
            ftam = member.first_time_at_most
            ftam_min = member._ftam_min
            rfill = member._round_fill
            rmax = member._round_max
            for _ in range(g):
                s += 1
                cur[0] = s
                cur[1] += 1
                wres += 1
                if s > wmax:
                    wmax = s
                while wres > n:
                    oldest = win[0]
                    oldest[1] -= 1
                    wres -= 1
                    if not oldest[1]:
                        win.popleft()
                        if oldest[0] >= wmax and wmax > 1:
                            # Evicted the max holder: rescan (rare).
                            wmax = 1
                            for entry in win:
                                if entry[0] > wmax:
                                    wmax = entry[0]
                # at_least keys stay contiguous {1..max} because the
                # open size grows one reset at a time.
                if s > ftal_max:
                    ftal[s] = t
                    ftal_max = s
                # at_most keys stay contiguous {min..n}; only a new
                # window maximum below the frontier extends them.
                if wres >= n and wmax < ftam_min:
                    for v in range(wmax, ftam_min):
                        ftam[v] = t
                    ftam_min = wmax
                rfill += 1
                if s > rmax:
                    rmax = s
                if rfill >= n:
                    member.round_times.append(t)
                    member.round_largest.append(rmax)
                    rfill = 0
                    rmax = 0
            member._open_time = t
            member._open_size = s
            member._window_resets = wres
            member._wmax = wmax
            member._ftal_max = ftal_max
            member._ftam_min = ftam_min
            member._round_fill = rfill
            member._round_max = rmax
            member.total_resets += g

            # -- redraw, in pop order (the per-router stream order) ---
            for i in idxs:
                exp[i] = window + draw(i)

            if stop_sync and (
                s >= n or (wres >= n and wmax >= n)
            ):
                self._finish(member)
                return
            if stop_unsync and wres >= n and wmax <= 1:
                self._finish(member)
                return

    def _finish(self, member: BatchMember) -> None:
        """ClusterTracker.finish(): close the trailing open group."""
        if member._open_time is None:
            return
        if self._keep_history:
            member.groups.append(
                ClusterGroup(member._open_time, member._open_size)
            )
        member._open_time = None
        member._open_size = 0

    def _draw_flat(self, idx: int) -> float:
        """One interval draw from flat stream ``idx`` (pure path)."""
        s = (_MUL * self._rng_state[idx]) % _MOD
        self._rng_state[idx] = s
        return self._low + self._span * (s / _MOD)

    # -- compiled kernel (C) ---------------------------------------------

    def _ensure_compiled(self) -> None:
        if self._cstate is not None:
            return
        from . import _batch_kernel

        resolved = _batch_kernel.resolve_compiled()
        assert resolved is not None  # guaranteed by __init__
        self._cimpl = resolved[1]
        n = self._n
        self._cstate = [
            _batch_kernel.MemberState(
                self._expiry[k * n : (k + 1) * n],
                self._rng_state[k * n : (k + 1) * n],
                n,
                self._keep_history,
            )
            for k in range(self._m)
        ]

    def _run_compiled(
        self, until: float, stop_sync: bool, stop_unsync: bool
    ) -> None:
        from . import _batch_kernel

        self._ensure_compiled()
        kernel = self._cimpl
        tol = RESET_TIME_TOLERANCE
        for k, member in enumerate(self._members):
            st = self._cstate[k]
            _batch_kernel.drive_member(
                kernel,
                st,
                self._tc,
                self._low,
                self._span,
                tol,
                until,
                stop_sync,
                stop_unsync,
            )
            st.sync_member(member)
