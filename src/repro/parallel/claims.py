"""Cross-process single-flight: on-disk claim records for job hashes.

The in-process :class:`~repro.serve.coalesce.Coalescer` guarantees
that N identical concurrent requests inside one server process cost
one computation.  The moment the service runs as a prefork fleet,
that guarantee needs a cross-process spelling: this module provides
it as *claim records* living next to the content-addressed
:class:`~repro.parallel.cache.ResultCache` the workers already share.

Protocol (one file per in-flight job hash, ``<key>.claim``)::

    free ──acquire──▶ claimed ──publish+release──▶ published (cache entry)
                        │  ▲
              claimant  │  │ stale takeover (rename wins exactly once)
              dies/hangs▼  │
                       stale

* **Acquire** is an atomic ``O_CREAT | O_EXCL`` create.  Exactly one
  process on the host can create the file, so exactly one claims the
  right to compute the job; everyone else becomes a *waiter*.
* **Claim records carry liveness**: the owner's pid and a heartbeat
  timestamp the owner refreshes while computing (a daemon thread,
  :meth:`Claim.keep_beating`).  A claim is *stale* when its owner pid
  is gone or its heartbeat is older than ``ttl`` — a crashed worker's
  claim becomes takeable the moment the crash is observable, and a
  wedged worker's claim expires on the heartbeat clock.
* **Takeover is race-free**: every claim-file mutation — the O_EXCL
  create together with its record write, the stale-takeover rename,
  gc's prune — runs under one advisory ``flock`` on ``<root>/.lock``,
  so judging a record stale and tombstoning it is atomic with respect
  to a rival's create: two waiters can never both win, and a waiter
  can never mistake a mid-create (still empty) record for a stale
  one.  The rename-to-tombstone itself (``os.replace`` succeeds for
  exactly one renamer; the others get ``FileNotFoundError`` and
  re-enter the acquire loop) stays as a second line of defense where
  ``fcntl`` is unavailable.
* **Waiters never block forever**: :meth:`ClaimRegistry.acquire`
  returns ``None`` only while a *live* claim exists; the serving
  layer polls ``cache → acquire`` under its request deadline, so a
  dead claimant is taken over and a hung one surfaces as a timeout.
* **Publishes are journaled** (``published.log``, one ``O_APPEND``
  line per executed job) so a chaos test can assert the
  exactly-one-execution-per-hash invariant across every worker by
  reading one file.

Leases, not locks: like any lease scheme, a claimant paused longer
than ``ttl`` between heartbeats can be taken over while still alive.
Both then publish byte-identical bytes (determinism makes the race
harmless to results); ``ttl`` just needs to comfortably exceed the
heartbeat interval (:meth:`Claim.keep_beating` defaults to
``ttl / 4``).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

# Claim heartbeats are durable wall-clock stamps read by *other*
# processes, so they come straight from the wall clock; this module is
# registered in repro.tools.lint's WALL_CLOCK_ALLOWLIST.
from time import time as _wall_time

from ..obs import obs

__all__ = ["Claim", "ClaimRegistry", "DEFAULT_CLAIM_TTL", "PUBLISH_LOG"]

#: Default lease length in seconds: a claim whose heartbeat is older
#: than this is stale even if its owner pid still exists.
DEFAULT_CLAIM_TTL = 10.0

#: Name of the append-only publish journal inside the registry root.
PUBLISH_LOG = "published.log"


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness of a pid on this host."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return False
    return True


class Claim:
    """One held claim: the right to compute one job hash.

    Returned by :meth:`ClaimRegistry.acquire`; release it (or use it
    as a context manager) once the result is published to the cache.
    """

    def __init__(self, registry: "ClaimRegistry", key: str, path: Path) -> None:
        self.registry = registry
        self.key = key
        self.path = path
        self.pid = os.getpid()
        self.released = False
        self._beat_stop: threading.Event | None = None
        self._beat_thread: threading.Thread | None = None

    def beat(self) -> None:
        """Refresh the heartbeat stamp (atomic rewrite of the record)."""
        if self.released:
            return
        self.registry._write_record(self.path, self.key, heartbeat=_wall_time())

    def keep_beating(self, interval: float | None = None) -> None:
        """Refresh the heartbeat on a daemon thread until release.

        The interval defaults to a quarter of the registry TTL, so a
        healthy claimant can miss several beats before going stale.
        """
        if self._beat_thread is not None:
            return
        period = interval if interval is not None else self.registry.ttl / 4.0
        stop = threading.Event()

        def pulse() -> None:
            while not stop.wait(period):
                self.beat()

        self._beat_stop = stop
        self._beat_thread = threading.Thread(
            target=pulse, name=f"claim-beat-{self.key[:8]}", daemon=True
        )
        self._beat_thread.start()

    def release(self) -> None:
        """Drop the claim (idempotent).  Stops the heartbeat thread
        and unlinks the record; a takeover that already renamed the
        file away is fine (the unlink is best-effort)."""
        if self.released:
            return
        self.released = True
        if self._beat_stop is not None:
            self._beat_stop.set()
            if self._beat_thread is not None:
                self._beat_thread.join(timeout=5.0)
        try:
            self.path.unlink(missing_ok=True)
        except OSError:
            # A read-only or vanished directory: the record will age
            # out as stale; nothing else to do.
            pass  # lint: allow-swallow — staleness self-heals this
        self.registry.released += 1

    def __enter__(self) -> "Claim":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "released" if self.released else "held"
        return f"Claim({self.key[:12]}, pid={self.pid}, {state})"


class ClaimRegistry:
    """Directory of claim records, one per in-flight job hash.

    Parameters
    ----------
    root:
        Directory the records live in (created lazily; the serving
        layer uses ``<cache_root>/claims``).  Workers sharing a cache
        must share this directory — it is the single-flight scope.
    ttl:
        Lease length in seconds; heartbeats older than this make a
        claim stale regardless of owner liveness.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` receiving
        ``<prefix>.acquired`` / ``<prefix>.contested`` /
        ``<prefix>.stale_takeovers`` counters.
    prefix:
        Metric name prefix (the server passes ``serve.claims``).
    """

    def __init__(
        self,
        root: str | os.PathLike,
        ttl: float = DEFAULT_CLAIM_TTL,
        metrics=None,
        prefix: str = "claims",
    ) -> None:
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        self.root = Path(root)
        self.ttl = ttl
        self.metrics = metrics
        self.prefix = prefix
        self.acquired = 0
        self.contested = 0
        self.stale_takeovers = 0
        self.released = 0
        self._tmp_counter = itertools.count()

    # -- record I/O ----------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.claim"

    @contextmanager
    def _mutate_lock(self):
        """Serialize claim-file mutations for this registry.

        An exclusive ``flock`` on ``<root>/.lock`` makes
        judge-stale-then-tombstone atomic with respect to a rival's
        create-then-write: without it, a contender holding a stale
        read of an orphan record can tombstone the claim a rival just
        created (the file is briefly empty between the O_EXCL create
        and the record write, and ``read`` reports torn records as
        maximally stale), yielding two acquire winners.  ``flock``
        excludes between distinct open file descriptions, so the lock
        works across both threads and processes.  Where ``fcntl`` is
        missing the lock degrades to a no-op and the rename-wins-once
        tombstone protocol alone applies.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        fd = os.open(self.root / ".lock", os.O_CREAT | os.O_RDWR)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # closing the descriptor drops the flock

    def _write_record(
        self, path: Path, key: str, heartbeat: float, pid: int | None = None
    ) -> None:
        """Atomically (re)write one claim record."""
        payload = {
            "key": key,
            "pid": os.getpid() if pid is None else pid,
            "heartbeat": heartbeat,
        }
        tmp = self.root / f"{path.stem}.{os.getpid()}.{next(self._tmp_counter)}.beat"
        tmp.write_text(json.dumps(payload, sort_keys=True) + "\n")
        os.replace(tmp, path)

    def read(self, key: str) -> dict | None:
        """The parsed claim record for ``key``, or None when free."""
        try:
            return json.loads(self.path_for(key).read_text())
        except OSError:
            return None
        except ValueError:
            # Torn write mid-record: report it as a claim by nobody,
            # which is maximally stale and immediately takeable.
            return {"key": key, "pid": -1, "heartbeat": 0.0}

    def _is_stale(self, record: dict) -> bool:
        heartbeat = record.get("heartbeat", 0.0)
        try:
            age = _wall_time() - float(heartbeat)
        except (TypeError, ValueError):
            return True
        if age > self.ttl:
            return True
        return not _pid_alive(int(record.get("pid", -1)))

    def status(self, key: str) -> str:
        """``"free"``, ``"live"``, or ``"stale"`` for one key."""
        record = self.read(key)
        if record is None:
            return "free"
        return "stale" if self._is_stale(record) else "live"

    # -- the single-flight protocol ------------------------------------------

    def acquire(self, key: str) -> Claim | None:
        """Claim ``key``, taking over a stale claim if one is found.

        Returns a held :class:`Claim`, or ``None`` while somebody
        else's *live* claim exists (the caller should poll the cache
        and retry under its own deadline — never block in here).
        """
        path = self.path_for(key)
        while True:
            with self._mutate_lock():
                try:
                    fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    record = self.read(key)
                    if record is None:
                        continue  # vanished between create and read: retry
                    if not self._is_stale(record):
                        self.contested += 1
                        self._count("contested")
                        return None
                    if not self._take_over(path, record):
                        continue  # another contender won the rename: retry
                    continue  # tombstoned; loop back to the O_EXCL create
                os.close(fd)
                self._write_record(path, key, heartbeat=_wall_time())
            self.acquired += 1
            self._count("acquired")
            return Claim(self, key, path)

    def _take_over(self, path: Path, record: dict) -> bool:
        """Tombstone one stale claim; True when *we* won the rename."""
        tombstone = self.root / (
            f"{path.stem}.{os.getpid()}.{next(self._tmp_counter)}.stale"
        )
        try:
            os.replace(path, tombstone)
        except FileNotFoundError:
            return False
        except OSError:
            return False
        tombstone.unlink(missing_ok=True)
        self.stale_takeovers += 1
        self._count("stale_takeovers")
        obs().emit(
            "claims.stale_takeover",
            f"took over stale claim {record.get('key', path.stem)[:12]} "
            f"(owner pid {record.get('pid')}, heartbeat age > ttl or dead)",
            key=record.get("key", path.stem),
            owner=record.get("pid"),
        )
        obs().metrics.counter("claims.stale_takeovers").inc()
        return True

    def plant_orphan(self, key: str) -> Path:
        """Write a claim record owned by nobody (tests / fault injection).

        The record carries a dead heartbeat, so the next
        :meth:`acquire` must go through the stale-takeover path — the
        on-disk shape left behind by a claimant that died before its
        first beat.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        self._write_record(path, key, heartbeat=0.0, pid=-1)
        return path

    # -- maintenance ---------------------------------------------------------

    def inventory(self) -> dict:
        """What the registry directory holds right now (read-only).

        Returns ``{"claims": [{key, pid, status, heartbeat_age}...],
        "tombstones": [names], "beats": [names], "publishes": N}`` —
        the ``claims gc`` CLI's "list" view and the test suite's
        assertion surface.
        """
        report: dict = {"claims": [], "tombstones": [], "beats": [], "publishes": 0}
        if not self.root.is_dir():
            return report
        now = _wall_time()
        for path in sorted(self.root.glob("*.claim")):
            record = self.read(path.stem) or {}
            try:
                age = max(0.0, now - float(record.get("heartbeat", 0.0)))
            except (TypeError, ValueError):
                age = None
            report["claims"].append(
                {
                    "key": path.stem,
                    "pid": record.get("pid"),
                    "status": self.status(path.stem),
                    "heartbeat_age": age,
                }
            )
        report["tombstones"] = sorted(p.name for p in self.root.glob("*.stale"))
        report["beats"] = sorted(p.name for p in self.root.glob("*.beat"))
        report["publishes"] = len(self.publishes())
        return report

    def gc(self, max_age: float | None = None) -> dict:
        """Prune registry debris older than ``max_age`` seconds.

        Three kinds of leftovers accumulate in a long-lived registry
        directory and are invisible to ``ResultCache.verify``:

        * ``*.stale`` tombstones — a contender that crashed between
          the takeover rename and its unlink;
        * ``*.beat`` temp files — a claimant that crashed between
          writing a heartbeat and the atomic replace;
        * ``*.claim`` records whose owner is *stale* and whose
          heartbeat is older than ``max_age`` — a dead worker that
          nobody ever contended with (no waiter means no takeover).

        ``max_age`` defaults to the registry TTL.  Claim records are
        removed through the same rename-to-tombstone dance
        :meth:`acquire` uses, so gc can never delete a record a live
        claimant just refreshed — the rename targets the exact file
        observed stale, and a refresh replaces that file first.
        Returns ``{"removed_claims", "removed_tombstones",
        "removed_beats"}`` (name lists, sorted).
        """
        horizon = self.ttl if max_age is None else max_age
        if horizon < 0:
            raise ValueError("max_age must be >= 0")
        done: dict = {
            "removed_claims": [],
            "removed_tombstones": [],
            "removed_beats": [],
        }
        if not self.root.is_dir():
            return done
        now = _wall_time()

        def expired(path: Path) -> bool:
            try:
                return now - path.stat().st_mtime >= horizon
            except OSError:
                return False  # vanished mid-scan: someone else's cleanup

        for kind, pattern in (("removed_tombstones", "*.stale"), ("removed_beats", "*.beat")):
            for debris in sorted(self.root.glob(pattern)):
                if not expired(debris):
                    continue
                try:
                    debris.unlink(missing_ok=True)
                except OSError:
                    continue  # read-only or racing cleaner; skip
                done[kind].append(debris.name)
        for path in sorted(self.root.glob("*.claim")):
            with self._mutate_lock():
                record = self.read(path.stem)
                if record is None or not self._is_stale(record):
                    continue
                try:
                    heartbeat_age = now - float(record.get("heartbeat", 0.0))
                except (TypeError, ValueError):
                    heartbeat_age = horizon  # unreadable stamp: old enough
                if heartbeat_age < horizon:
                    continue
                tombstone = self.root / (
                    f"{path.stem}.{os.getpid()}.{next(self._tmp_counter)}.stale"
                )
                try:
                    os.replace(path, tombstone)
                except OSError:
                    continue  # owner unlinked it, or a contender won: fine
                tombstone.unlink(missing_ok=True)
            done["removed_claims"].append(path.name)
        removed = sum(len(v) for v in done.values())
        if removed:
            obs().emit(
                "claims.gc",
                f"claims gc pruned {removed} leftover file(s) "
                f"older than {horizon:g}s",
                **{k: len(v) for k, v in done.items()},
            )
        return done

    # -- exactly-once accounting ---------------------------------------------

    @property
    def publish_log(self) -> Path:
        return self.root / PUBLISH_LOG

    def record_publish(self, key: str) -> None:
        """Append one ``key pid`` line to the publish journal.

        Called by the claim owner after the result is durably in the
        cache.  A single short ``O_APPEND`` write is atomic on POSIX,
        so concurrent workers never interleave lines; the journal is
        the cross-worker exactly-one-execution ledger the chaos suite
        audits.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        line = f"{key} {os.getpid()}\n".encode("ascii")
        fd = os.open(self.publish_log, os.O_CREAT | os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, line)
        finally:
            os.close(fd)

    def publishes(self) -> list[tuple[str, int]]:
        """Every journaled publish as ``(key, pid)``, in append order."""
        try:
            text = self.publish_log.read_text()
        except OSError:
            return []
        entries = []
        for line in text.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1].isdigit():
                entries.append((parts[0], int(parts[1])))
        return entries

    # -- plumbing ------------------------------------------------------------

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(f"{self.prefix}.{name}").inc()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClaimRegistry(root={str(self.root)!r}, ttl={self.ttl}, "
            f"acquired={self.acquired}, contested={self.contested}, "
            f"stale_takeovers={self.stale_takeovers})"
        )
