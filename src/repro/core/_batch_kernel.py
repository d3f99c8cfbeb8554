"""The compiled provider for the batch cascade kernel.

:mod:`repro.core.batch`'s ``backend="compiled"`` runs the scalar
cascade kernel as machine code: ``_batch_kernel.c`` (same directory)
is a line-for-line C port of ``BatchCascade._advance_slice`` over
packed arrays, built on demand with the system compiler and loaded
through :mod:`ctypes`.  The build forbids FP contraction
(``-ffp-contract=off -fno-fast-math``) so no fused multiply-adds can
perturb the float stream — the kernel must stay byte-identical to the
python backend.

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
Per member (see :class:`MemberState`): ``expiry``/``rng`` are the
router timers and Lehmer states; ``fstate = [now, open_time]``
(NaN = no open group) and ``istate`` (indices :data:`I_OPEN_SIZE` …
:data:`I_TOTAL_CASCADES`) carry the fused tracker's scalars; the
sliding window deque becomes a ring buffer of ``[size, count]``
columns with ``win_meta = [head, entries]``; the first-passage dicts
become dense arrays (their keys are contiguous frontiers); round and
group series are growable buffers with one-slot metas.  The kernel is
*resumable*: it reserves buffer headroom at the top of every cascade
(one round slot, two group slots) and returns
:data:`STATUS_ROUNDS_FULL` / :data:`STATUS_GROUPS_FULL` before
touching anything, so the Python driver can grow the buffer and call
again with no state ambiguity.
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
    "drive_member",
    "resolve_compiled",
]

_NAN = float("nan")

# istate layout.
I_OPEN_SIZE = 0
I_WINDOW_RESETS = 1
I_WMAX = 2
I_FTAL_MAX = 3
I_FTAM_MIN = 4
I_ROUND_FILL = 5
I_ROUND_MAX = 6
I_TOTAL_RESETS = 7
I_TOTAL_CASCADES = 8

STATUS_HORIZON = 0
STATUS_STOPPED = 1
STATUS_ROUNDS_FULL = 2
STATUS_GROUPS_FULL = 3


class MemberState:
    """One member's packed arrays for the compiled kernel."""

    __slots__ = (
        "n",
        "keep_history",
        "expiry",
        "rng",
        "fstate",
        "istate",
        "win_sizes",
        "win_cnts",
        "win_meta",
        "ftal",
        "ftam",
        "round_times",
        "round_largest",
        "round_meta",
        "group_times",
        "group_sizes",
        "group_meta",
        "idx_scratch",
        "time_scratch",
    )

    def __init__(self, expiry, rng, n, keep_history, rounds_cap=64):
        np = _np
        self.n = n
        self.keep_history = 1 if keep_history else 0
        self.expiry = np.array(expiry, dtype=np.float64)
        self.rng = np.array(rng, dtype=np.int64)
        self.fstate = np.array([0.0, _NAN], dtype=np.float64)
        self.istate = np.zeros(9, dtype=np.int64)
        self.istate[I_FTAM_MIN] = n + 1
        self.win_sizes = np.zeros(n + 1, dtype=np.int64)
        self.win_cnts = np.zeros(n + 1, dtype=np.int64)
        self.win_meta = np.zeros(2, dtype=np.int64)
        self.ftal = np.full(n + 1, _NAN, dtype=np.float64)
        self.ftam = np.full(n + 1, _NAN, dtype=np.float64)
        self.round_times = np.empty(rounds_cap, dtype=np.float64)
        self.round_largest = np.empty(rounds_cap, dtype=np.int64)
        self.round_meta = np.zeros(1, dtype=np.int64)
        gcap = 64 if keep_history else 2
        self.group_times = np.empty(gcap, dtype=np.float64)
        self.group_sizes = np.empty(gcap, dtype=np.int64)
        self.group_meta = np.zeros(1, dtype=np.int64)
        self.idx_scratch = np.empty(n, dtype=np.int64)
        self.time_scratch = np.empty(n, dtype=np.float64)

    def _grow(self, *attrs):
        for attr in attrs:
            old = getattr(self, attr)
            new = _np.empty(max(2 * old.shape[0], 16), dtype=old.dtype)
            new[: old.shape[0]] = old
            setattr(self, attr, new)

    def grow_rounds(self):
        self._grow("round_times", "round_largest")

    def grow_groups(self):
        self._grow("group_times", "group_sizes")

    def sync_member(self, member):
        """Unpack this state into a ``BatchMember``'s public fields."""
        from .clusters import ClusterGroup  # local: avoid cycle at import

        n = self.n
        member.now = float(self.fstate[0])
        open_time = float(self.fstate[1])
        member._open_time = None if open_time != open_time else open_time
        member._open_size = int(self.istate[I_OPEN_SIZE])
        member._window_resets = int(self.istate[I_WINDOW_RESETS])
        member._wmax = int(self.istate[I_WMAX])
        member._ftal_max = int(self.istate[I_FTAL_MAX])
        member._ftam_min = int(self.istate[I_FTAM_MIN])
        member._round_fill = int(self.istate[I_ROUND_FILL])
        member._round_max = int(self.istate[I_ROUND_MAX])
        member.total_resets = int(self.istate[I_TOTAL_RESETS])
        member.total_cascades = int(self.istate[I_TOTAL_CASCADES])
        member.first_time_at_least = {
            s: float(self.ftal[s]) for s in range(1, member._ftal_max + 1)
        }
        member.first_time_at_most = {
            s: float(self.ftam[s]) for s in range(member._ftam_min, n + 1)
        }
        rc = int(self.round_meta[0])
        member.round_times = self.round_times[:rc].tolist()
        member.round_largest = self.round_largest[:rc].tolist()
        if self.keep_history:
            gc = int(self.group_meta[0])
            times = self.group_times[:gc].tolist()
            sizes = self.group_sizes[:gc].tolist()
            member.groups = [
                ClusterGroup(t, s) for t, s in zip(times, sizes)
            ]


def drive_member(kernel, state, tc, low, span, tol, until, stop_sync, stop_unsync):
    """Run the kernel to completion, growing buffers as it asks."""
    while True:
        status = kernel(state, tc, low, span, tol, until, stop_sync, stop_unsync)
        if status == STATUS_ROUNDS_FULL:
            state.grow_rounds()
        elif status == STATUS_GROUPS_FULL:
            state.grow_groups()
        else:
            return status


# -- resolution ----------------------------------------------------------

#: The C build's flags.  No FMA contraction, no fast-math value
#: changes: the kernel must round exactly like the python backend.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math")
_LDLIBS = ("-lm",)

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
    status = drive_member(kernel, state, 0.1, 0.9, 0.2, 1e-7, 5.0, False, False)
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
    digest.update(repr((_CFLAGS, _LDLIBS, platform.machine())).encode())
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
            [cc, *_CFLAGS, _c_source_path(), "-o", tmp, *_LDLIBS],
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
    """Wrap the C entry point as ``kernel(state, tc, ..., stop_unsync)``."""
    fn = lib.repro_advance_member
    c_ll = ctypes.c_longlong
    c_d = ctypes.c_double
    p_d = ctypes.POINTER(c_d)
    p_ll = ctypes.POINTER(c_ll)
    fn.restype = c_ll
    fn.argtypes = [
        p_d,  # expiry
        p_ll,  # rng
        c_ll,  # n
        c_d,  # tc
        c_d,  # low
        c_d,  # span
        c_d,  # tol
        c_d,  # until
        c_ll,  # stop_sync
        c_ll,  # stop_unsync
        c_ll,  # keep_history
        p_d,  # fstate
        p_ll,  # istate
        p_ll,  # win_sizes
        p_ll,  # win_cnts
        p_ll,  # win_meta
        p_d,  # ftal
        p_d,  # ftam
        p_d,  # round_times
        p_ll,  # round_largest
        p_ll,  # round_meta
        c_ll,  # round_cap
        p_d,  # group_times
        p_ll,  # group_sizes
        p_ll,  # group_meta
        c_ll,  # group_cap
        p_ll,  # idx_scratch
        p_d,  # time_scratch
    ]

    def dp(a):
        return a.ctypes.data_as(p_d)

    def lp(a):
        return a.ctypes.data_as(p_ll)

    def kernel(state, tc, low, span, tol, until, stop_sync, stop_unsync):
        return fn(
            dp(state.expiry),
            lp(state.rng),
            state.n,
            tc,
            low,
            span,
            tol,
            until,
            1 if stop_sync else 0,
            1 if stop_unsync else 0,
            state.keep_history,
            dp(state.fstate),
            lp(state.istate),
            lp(state.win_sizes),
            lp(state.win_cnts),
            lp(state.win_meta),
            dp(state.ftal),
            dp(state.ftam),
            dp(state.round_times),
            lp(state.round_largest),
            lp(state.round_meta),
            state.round_times.shape[0],
            dp(state.group_times),
            lp(state.group_sizes),
            lp(state.group_meta),
            state.group_times.shape[0],
            lp(state.idx_scratch),
            dp(state.time_scratch),
        )

    return kernel
