"""The compiled provider for the batch cascade kernel.

:mod:`repro.core.batch`'s ``backend="compiled"`` runs the cascade rule
as machine code: ``_batch_kernel.c`` (same directory) has one entry
point, ``repro_advance``, which mirrors the graph-coupled rule of
:func:`repro.topo.advance_coupled` plus
:class:`~repro.core.clusters.ClusterTracker` over packed arrays.  A
complete coupling is the case with no adjacency, as it is
``coupling=None`` for the Python loop.  Both are checked against
``CascadeModel`` (and, on complete couplings, the DES) by
``tests/test_engine_differential.py``.  The kernel is built on demand
with the system compiler and loaded through :mod:`ctypes`.  The build
forbids FP contraction (``-ffp-contract=off -fno-fast-math``) so no
fused multiply-adds can perturb the float stream — the kernel must
stay byte-identical to the python backend.

:func:`resolve_compiled` returns ``("c", kernel)`` or None, cached for
the process.  NumPy is required (the packed state lives in ndarrays);
environments without it use the python backend.

Build cache
-----------
Built libraries live in ``REPRO_CKERNEL_CACHE`` (default
``$XDG_CACHE_HOME/repro-ckernel``) under a name that hashes the C
source, the compiler flags and the machine architecture.  A cached
library that fails to load or to pass the smoke test is rebuilt once;
when no library can be had, one ``batch.compiled_unavailable``
warning event carries the compiler's stderr or the load error.

State packing
-------------
Per member (:class:`MemberState`, the C ``member_t``): ``fbuf`` holds
``[now, open_time]`` (NaN = no open group), the router expiries and
the first-passage arrays ``ftal``/``ftam`` (the tracker's dicts; their
keys are contiguous frontiers); ``ibuf`` holds the tracker scalars
(indices :data:`I_OPEN_SIZE` … :data:`I_GROUPS`), the Lehmer states
and the sliding window as a ring buffer of ``[size, count]`` columns.
Round and group series are growable buffers.  Per batch
(:class:`RunState`, the C ``run_t``): the parameters, the horizon and
stop flags of the current call, one CSR adjacency per coupling phase
(row pointers plus sorted columns, and the phase period; no phases for
a complete coupling) and one set of cascade scratch arrays that every
member reuses.

Pending ring
------------
The kernel keeps a member's pending expiries in a ring sorted by
``(expiry, node)``, the order the heap of
:func:`repro.topo.advance_coupled` pops: a join pops the head, and a
redraw, which lands after nearly every pending expiry, is inserted by
walking back from the tail.  The ring is cascade scratch
(:attr:`RunState.ring`), so :func:`advance` rebuilds it before every
kernel call with NumPy's stable argsort of the member's expiries
(ties keep node order), O(n log n) for any ``n``.  A sort in C would
cost compile time, and the cold build is part of every fresh
process's set-up.

Restore on return
-----------------
No cascade survives a call.  Whenever the kernel returns — at the
horizon, on a stop condition, or with :data:`STATUS_ROUNDS_FULL` /
:data:`STATUS_GROUPS_FULL` before a close that would need more buffer —
the members of still-open cascades still hold their original
expiries (a join leaves a node's expiry alone), exactly as
:func:`repro.topo.advance_coupled` leaves its heap at the horizon.
Replaying from those expiries rebuilds the same cascades (they hold
every pending expiry up to the earliest open window, and a cascade
that closed meanwhile was never eligible to them), so :func:`advance` can grow a buffer and call again, and a
later horizon resumes exactly.  The same holds for
:data:`STATUS_PHASE_RANGE`, returned when a switching period is so
small that ``time / period`` overflows to infinity; :func:`advance`
raises it as OverflowError, as ``int(time / period)`` does in
:meth:`repro.topo.Coupling.adjacency_at`.  (A finite quotient past
int64 is a whole number, and the kernel takes its remainder exactly.)
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile

try:
    import numpy as _np
except ImportError:  # pragma: no cover - compiled backend needs numpy
    _np = None

__all__ = [
    "MemberState",
    "RunState",
    "advance",
    "resolve_compiled",
]

_NAN = float("nan")
_INF = float("inf")

# ibuf's leading scalars (the C I_* indices).
I_OPEN_SIZE = 0
I_WINDOW_RESETS = 1
I_WMAX = 2
I_FTAL_MAX = 3
I_FTAM_MIN = 4
I_ROUND_FILL = 5
I_ROUND_MAX = 6
I_TOTAL_RESETS = 7
I_TOTAL_CASCADES = 8
I_WIN_HEAD = 9
I_WIN_COUNT = 10
I_ROUNDS = 11
I_GROUPS = 12
I_LEN = 13

STATUS_HORIZON = 0
STATUS_STOPPED = 1
STATUS_ROUNDS_FULL = 2
STATUS_GROUPS_FULL = 3
STATUS_PHASE_RANGE = 4

_ptr = ctypes.c_void_p
_i64 = ctypes.c_int64
_f64 = ctypes.c_double


# Field for field the C member_t and run_t.  Every field is 8 bytes
# wide, so neither side pads.
class _Member(ctypes.Structure):
    _fields_ = [
        ("fbuf", _ptr),
        ("ibuf", _ptr),
        ("round_times", _ptr),
        ("round_largest", _ptr),
        ("round_cap", _i64),
        ("group_times", _ptr),
        ("group_sizes", _ptr),
        ("group_cap", _i64),
    ]


class _Run(ctypes.Structure):
    _fields_ = [
        ("n", _i64),
        ("tc", _f64),
        ("low", _f64),
        ("span", _f64),
        ("tol", _f64),
        ("until", _f64),
        ("stop_sync", _i64),
        ("stop_unsync", _i64),
        ("keep_history", _i64),
        ("nphases", _i64),
        ("period", _f64),
        ("row_ptr", _ptr),
        ("cols", _ptr),
        ("fscratch", _ptr),
        ("iscratch", _ptr),
    ]


class MemberState:
    """One member's packed arrays for the compiled kernel."""

    __slots__ = (
        "n",
        "keep_history",
        "fbuf",
        "ibuf",
        "expiry",
        "ftal",
        "ftam",
        "rng",
        "round_times",
        "round_largest",
        "group_times",
        "group_sizes",
        "c",
        "ref",
    )

    def __init__(self, expiry, rng, n, keep_history, rounds_cap=64):
        np = _np
        self.n = n
        self.keep_history = bool(keep_history)
        # fbuf = [now, open_time, expiry[n], ftal[n + 1], ftam[n + 1]].
        self.fbuf = np.full(2 + n + 2 * (n + 1), _NAN, dtype=np.float64)
        self.fbuf[0] = 0.0
        self.expiry = self.fbuf[2 : 2 + n]
        self.expiry[:] = expiry
        self.ftal = self.fbuf[2 + n : 3 + 2 * n]
        self.ftam = self.fbuf[3 + 2 * n :]
        # ibuf = [istate[I_LEN], rng[n], win_sizes[n + 1], win_cnts[n + 1]].
        self.ibuf = np.zeros(I_LEN + n + 2 * (n + 1), dtype=np.int64)
        self.ibuf[I_FTAM_MIN] = n + 1
        self.rng = self.ibuf[I_LEN : I_LEN + n]
        self.rng[:] = rng
        self.round_times = np.empty(rounds_cap, dtype=np.float64)
        self.round_largest = np.empty(rounds_cap, dtype=np.int64)
        gcap = 64 if keep_history else 2
        self.group_times = np.empty(gcap, dtype=np.float64)
        self.group_sizes = np.empty(gcap, dtype=np.int64)
        self.c = _Member(self.fbuf.ctypes.data, self.ibuf.ctypes.data)
        self._point()
        self.ref = ctypes.byref(self.c)

    def _point(self):
        """Aim the C struct at the (possibly regrown) series buffers."""
        c = self.c
        c.round_times = self.round_times.ctypes.data
        c.round_largest = self.round_largest.ctypes.data
        c.round_cap = self.round_times.shape[0]
        c.group_times = self.group_times.ctypes.data
        c.group_sizes = self.group_sizes.ctypes.data
        c.group_cap = self.group_times.shape[0]

    def _grow(self, *attrs):
        for attr in attrs:
            old = getattr(self, attr)
            new = _np.empty(max(2 * old.shape[0], 16), dtype=old.dtype)
            new[: old.shape[0]] = old
            setattr(self, attr, new)
        self._point()

    def grow_rounds(self):
        self._grow("round_times", "round_largest")

    def grow_groups(self):
        self._grow("group_times", "group_sizes")

    def sync_member(self, member):
        """Unpack this state into a ``BatchMember``'s public fields."""
        from .clusters import ClusterGroup  # local: avoid cycle at import

        n = self.n
        st = self.ibuf[:I_LEN].tolist()
        member.now = float(self.fbuf[0])
        member.total_resets = st[I_TOTAL_RESETS]
        member.total_cascades = st[I_TOTAL_CASCADES]
        # The first-passage keys are contiguous: {1..ftal_max} and
        # {ftam_min..n}.
        ftal_max = st[I_FTAL_MAX]
        ftam_min = st[I_FTAM_MIN]
        member.first_time_at_least = dict(
            zip(range(1, ftal_max + 1), self.ftal[1 : ftal_max + 1].tolist())
        )
        member.first_time_at_most = dict(
            zip(range(ftam_min, n + 1), self.ftam[ftam_min:].tolist())
        )
        rc = st[I_ROUNDS]
        member.round_times = self.round_times[:rc].tolist()
        member.round_largest = self.round_largest[:rc].tolist()
        if self.keep_history:
            gc = st[I_GROUPS]
            times = self.group_times[:gc].tolist()
            sizes = self.group_sizes[:gc].tolist()
            member.groups = [
                ClusterGroup(t, s) for t, s in zip(times, sizes)
            ]


def pack_adjacency(phases, n):
    """One coupling's CSR adjacency for the kernel: ``(row_ptr, cols)``.

    ``phases`` is :attr:`repro.topo.Coupling.phases`; each phase packs
    into ``n + 1`` row pointers and its rows of sorted neighbours, so
    memory is O(n + edges) per phase.  The kernel reads both arrays
    through const pointers and never writes them, so they are made
    read-only and one pair serves every batch on the same coupling.
    """
    np = _np
    row_ptr = []
    cols = []
    for adj in phases:
        for u in range(n):
            row_ptr.append(len(cols))
            cols.extend(sorted(adj[u]))
        row_ptr.append(len(cols))
    arrays = (
        np.array(row_ptr or [0], dtype=np.int64),
        np.array(cols or [0], dtype=np.int64),
    )
    for array in arrays:
        array.flags.writeable = False
    return arrays


class RunState:
    """What every member of one batch shares: parameters, adjacency,
    the current call's horizon and stops, and the cascade scratch.

    ``adjacency`` is a :func:`pack_adjacency` pair, None for a
    complete coupling; ``period`` is the phase dwell time (None:
    static).
    """

    __slots__ = ("c", "ref", "ring", "_arrays")

    def __init__(self, n, tc, low, span, tol, keep_history, adjacency=None, period=None):
        np = _np
        if adjacency is None:
            nphases = 0
            adjacency = (np.zeros(1, dtype=np.int64),) * 2
        else:
            nphases = adjacency[0].shape[0] // (n + 1)
        arrays = (
            *adjacency,
            np.empty(n, dtype=np.float64),
            # The owner column starts at -1 (no cascade) and every
            # call leaves it there.
            np.full(6 * n, -1, dtype=np.int64),
        )
        #: The pending ring, the last column of the int scratch.
        self.ring = arrays[3][5 * n :]
        self._arrays = arrays  # keeps the buffers alive for the C struct
        self.c = _Run(
            n, tc, low, span, tol, 0.0, 0, 0, 1 if keep_history else 0,
            nphases, _INF if period is None else period,
            *(a.ctypes.data for a in arrays),
        )
        self.ref = ctypes.byref(self.c)

    def set_call(self, until, stop_sync, stop_unsync):
        """The horizon and stop flags of the next kernel calls."""
        c = self.c
        c.until = until
        c.stop_sync = 1 if stop_sync else 0
        c.stop_unsync = 1 if stop_unsync else 0


def advance(kernel, state, run):
    """Run one member to the horizon or a stop, growing buffers as asked."""
    while True:
        run.ring[:] = _np.argsort(state.expiry, kind="stable")
        status = kernel(state.ref, run.ref)
        if status == STATUS_ROUNDS_FULL:
            state.grow_rounds()
        elif status == STATUS_GROUPS_FULL:
            state.grow_groups()
        elif status == STATUS_PHASE_RANGE:
            raise OverflowError(
                f"switching period {run.c.period!r} gives an infinite "
                "phase index (time / period)"
            )
        else:
            return status


# -- resolution ----------------------------------------------------------

#: The C build's flags.  No FMA contraction, no fast-math value
#: changes: the kernel must round exactly like the python backend.
#: The kernel calls no library function, so it links against none;
#: the standard headers and link line made its cold build, which every
#: fresh process pays in set-up, about 1.17x as long (gcc 12, x86-64).
_CFLAGS = (
    "-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math", "-nostdlib",
)

#: What loading or building a library can raise: ``dlopen`` failures
#: (junk, truncated or foreign files) and filesystem errors are
#: OSError, a library without the entry point is AttributeError, and a
#: failed compile or smoke test is RuntimeError.
_KERNEL_ERRORS = (OSError, AttributeError, RuntimeError)

_RESOLVED: object = "unset"


def resolve_compiled():
    """``("c", kernel)`` or None, cached per process.

    None without NumPy (quietly: the python backend is the expected
    path there) or when the C kernel cannot be built or loaded (with
    one ``batch.compiled_unavailable`` warning event naming the cause).
    """
    global _RESOLVED
    if _RESOLVED == "unset":
        kernel = _load_or_build() if _np is not None else None
        _RESOLVED = None if kernel is None else ("c", kernel)
    return _RESOLVED


def _warmup(kernel):
    """Smoke-test a freshly loaded kernel on a tiny case."""
    state = MemberState([0.25, 0.75], [11, 12], 2, True, rounds_cap=4)
    run = RunState(2, 0.1, 0.9, 0.2, 1e-7, True)
    run.set_call(5.0, False, False)
    status = advance(kernel, state, run)
    if status != STATUS_HORIZON:
        raise RuntimeError(f"warmup returned status {status}")


def _c_source_path():
    return os.path.join(os.path.dirname(__file__), "_batch_kernel.c")


def _cache_dir():
    override = os.environ.get("REPRO_CKERNEL_CACHE", "").strip()
    if override:
        return override
    return os.path.join(
        os.environ.get("XDG_CACHE_HOME")
        or os.path.join(os.path.expanduser("~"), ".cache"),
        "repro-ckernel",
    )


def _lib_path():
    """Where the library built from this source, flags and machine lives."""
    with open(_c_source_path(), "rb") as fh:
        digest = hashlib.sha256(fh.read())
    digest.update(repr((_CFLAGS, platform.machine())).encode())
    return os.path.join(_cache_dir(), f"batch_kernel_{digest.hexdigest()[:16]}.so")


def _load(lib_path):
    kernel = _c_adapter(ctypes.CDLL(lib_path))
    _warmup(kernel)
    return kernel


def _build(lib_path):
    """Compile, smoke-test and publish the kernel at ``lib_path``."""
    cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if cc is None:
        raise RuntimeError("no C compiler (cc, gcc or clang) on PATH")
    cache = os.path.dirname(lib_path)
    os.makedirs(cache, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *_CFLAGS, _c_source_path(), "-o", tmp],
            capture_output=True,
            text=True,
            errors="replace",
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{cc} exited with status {proc.returncode}: {proc.stderr.strip()}"
            )
        # Load the fresh build before publishing it, so a library that
        # fails the smoke test never reaches the cache.
        kernel = _load(tmp)
        os.replace(tmp, lib_path)  # atomic publish; racers converge
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return kernel


def _load_or_build():
    """The cached kernel, rebuilt once if missing or unloadable."""
    stale = ""
    try:
        lib_path = _lib_path()
        if os.path.exists(lib_path):
            try:
                return _load(lib_path)
            except _KERNEL_ERRORS as error:
                stale = f"; cached {lib_path} failed to load ({error})"
        return _build(lib_path)
    except _KERNEL_ERRORS as error:
        reason = f"{error}{stale}"
        from ..obs import WARNING, obs

        obs().emit(
            "batch.compiled_unavailable",
            "C batch kernel unavailable; the batch engine falls back to "
            f"the python backend: {reason}",
            level=WARNING,
            reason=reason,
        )
        return None


def _c_adapter(lib):
    """The C entry point as ``kernel(state.ref, run.ref) -> status``."""
    fn = lib.repro_advance
    fn.restype = ctypes.c_int64
    fn.argtypes = [ctypes.POINTER(_Member), ctypes.POINTER(_Run)]
    return fn
