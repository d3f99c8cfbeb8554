"""Content-addressed on-disk cache of simulation results.

Results live under ``results/cache/`` (or any directory you point it
at), keyed by the job's
:meth:`~repro.parallel.job.SimulationJob.cache_key` — a stable hash of
the spec plus the model version tag.  Because the key covers
everything that determines the outcome, a hit can be returned without
any staleness check, and bumping
:data:`~repro.parallel.job.MODEL_VERSION` invalidates every old entry
by construction (their keys simply stop being looked up).

Two layouts share the directory, one per kind of commit:

* **One entry, one file.**  :meth:`ResultCache.put` writes
  ``<key>.json``: compact sorted-key JSON of ``{"job", "model_version",
  "result"}``.  The runner, the serve fleet and the claims path commit
  this way, one job at a time.
* **One chunk, one pack.**  :meth:`ResultCache.put_many` with two or
  more entries writes ``packs/<first-key>.pack``: one line per entry,
  the same JSON with a leading ``"cache_key"`` field.  The campaign
  orchestrator commits each chunk this way, so a chunk costs one file
  instead of one per job.

``get`` looks a key up in an in-process index of the packs (keys and
byte locations, never entries), then tries ``<key>.json``, and only
then rescans ``packs/`` — and only when that directory's mtime has
moved — so packs other processes write become visible and a cache
with no packs pays one extra ``stat`` per miss and none per hit.

Entries embed the spec and version they were computed from, so an
entry that was hand-edited, truncated, or produced by a different
model version is detected and treated as a miss rather than trusted.
A hit is checked as bytes: the entry must start with the job's
canonical text and the model version exactly as ``put`` writes them
and end in a brace and a newline, and then only its result member is
parsed.  An entry in another layout (older indented ones) is parsed
whole and audited the way ``verify()`` audits it instead.

Robustness model (the cache is an accelerator, never a dependency):

* **Writes are best-effort.**  A full or read-only disk makes ``put``
  warn and count (`write_errors`) instead of killing an otherwise
  healthy run; the result is still returned to the caller.
* **Writes are collision-free.**  Temp files are unique per process
  (pid + counter), so two runners sharing a cache directory can never
  clobber each other's half-written files; the final rename is atomic
  either way.  Neither layout fsyncs: a lost entry is recomputed.
* **Corruption self-repairs.**  A defective entry found by ``get`` is
  quarantined — ``<key>.json.corrupt``, or its whole pack to
  ``<first-key>.pack.corrupt`` (the pack's other entries become misses
  and are recomputed) — so the evidence survives and the key is free
  for a clean entry.
* **Maintenance is explicit.**  ``verify()`` audits every entry, in
  files and packs alike, ``repair()`` quarantines bad ones and sweeps
  stale temp files, and both are exposed as ``python -m repro cache
  verify|repair|clear``.
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path
from typing import Iterable

from ..obs import WARNING, obs
from ..obs.clock import monotonic, wall_time
from .job import MODEL_VERSION, JobResult, SimulationJob

__all__ = ["DEFAULT_CACHE_DIR", "STALE_TMP_AGE", "ResultCache"]

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_DIR = Path("results") / "cache"

#: Subdirectory of the cache root holding multi-entry commits.
PACK_DIR = "packs"

#: A ``*.tmp`` file older than this (seconds) is debris from a dead
#: writer — no healthy put keeps one alive for more than moments.
STALE_TMP_AGE = 3600.0

#: Every pack line starts with this, then the entry's 64-hex key, so
#: the index reads keys without parsing entries.
_HEAD = '{"cache_key":"'
_LINE_HEAD = _HEAD.encode()
_KEY_END = len(_LINE_HEAD) + 64

#: Seconds within which a directory mtime may not have moved yet for a
#: change that already happened: file systems stamp from a clock that
#: ticks every few milliseconds.  A scan that saw a younger mtime is
#: not trusted to stand for the directory.
_MTIME_TICK = 0.05

#: Bytes per ``os.read`` of an entry file; one call covers an entry.
_READ_CHUNK = 1 << 16

#: Parses a hit's result member (``raw_decode`` skips the whitespace
#: scans ``json.loads`` adds; a member has none).
_DECODER = json.JSONDecoder()


def _entry_text(job: SimulationJob, result: JobResult) -> str:
    """A ``<key>.json`` body: compact sorted-key JSON of the payload.

    Spliced from the job's and the result's canonical text, so it
    equals ``json.dumps(payload, sort_keys=True, separators=(",",
    ":"))`` byte for byte while the result's floats are encoded once.
    """
    return (
        f'{{"job":{job.canonical_json()},"model_version":{json.dumps(MODEL_VERSION)},'
        f'"result":{result.canonical_json()}}}\n'
    )


def _pack_line(key: str, job: SimulationJob, result: JobResult) -> str:
    """A pack line: the entry payload plus its key, sorted and compact."""
    return f'{_HEAD}{key}",' + _entry_text(job, result)[1:]


def _read_bytes(path: str) -> bytes:
    """A whole file as bytes, through the OS calls alone."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, _READ_CHUNK):
            chunks.append(chunk)
    finally:
        os.close(fd)
    return b"".join(chunks)


def _write_bytes(path: Path, data: bytes) -> None:
    """Create or truncate ``path`` and write all of ``data`` to it."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
    finally:
        os.close(fd)


class ResultCache:
    """Get/put simulation results keyed by job content hash.

    Parameters
    ----------
    root:
        Cache directory (created lazily on first ``put``).  Defaults
        to ``results/cache/`` under the current working directory.
    faults:
        Optional :class:`~repro.parallel.faults.FaultPlan` driving
        injected write errors / corruption (tests only).
    """

    def __init__(
        self, root: str | os.PathLike | None = None, faults=None
    ) -> None:
        self.root = Path(root) if root is not None else DEFAULT_CACHE_DIR
        self.faults = faults
        self.hits = 0
        self.misses = 0
        self.write_errors = 0
        self.quarantined = 0
        self._tmp_counter = itertools.count()
        # The pack index: key -> (pack name, byte offset, byte length),
        # the keys each pack holds, and the packs/ mtime it reflects
        # (None: rescan on the next index miss).
        self._located: dict[str, tuple[str, int, int]] = {}
        self._pack_keys: dict[str, list[str]] = {}
        self._packs_mtime: int | None = None

    @property
    def _pack_dir(self) -> Path:
        return self.root / PACK_DIR

    def path_for(self, job: SimulationJob) -> Path:
        """The file a job's single-entry commit lives in (whether or
        not it exists; a packed entry lives in ``packs/``)."""
        return self.root / f"{job.cache_key()}.json"

    def __contains__(self, job: SimulationJob) -> bool:
        """Whether an entry for ``job`` is on disk, in a pack or its
        own file (present, not validated: ``get`` validates)."""
        key = job.cache_key()
        if key in self._located or self.path_for(job).is_file():
            return True
        return self._rescan_packs() and key in self._located

    # -- read side -----------------------------------------------------------

    def get(self, job: SimulationJob) -> JobResult | None:
        """Return the cached result, or None on a miss.

        Any defect — missing entry, unparsable JSON, wrong model
        version, spec mismatch — counts as a miss.  Defective entries
        are quarantined to ``*.corrupt`` (a packed one takes its whole
        pack along) so the next ``put`` writes a clean entry and the
        evidence survives for inspection.

        With the obs runtime on, hit/miss counts and lookup latency
        land in ``cache.hits`` / ``cache.misses`` /
        ``cache.get_seconds`` — the cache-I/O slice of a trace.
        """
        o = obs()
        if not o.enabled:
            return self._get(job)
        t0 = monotonic()
        result = self._get(job)
        o.metrics.histogram("cache.get_seconds").observe(monotonic() - t0)
        o.metrics.counter(
            "cache.hits" if result is not None else "cache.misses"
        ).inc()
        return result

    def _get(self, job: SimulationJob) -> JobResult | None:
        # The pack index first (no system call), then the entry file,
        # then the index again if packs/ changed since it was read: a
        # cache without packs pays one stat per miss, nothing per hit.
        key = job.cache_key()
        packed = self._packed_text(key)
        if packed is None:
            try:
                # A str path: a hit need not build a Path.
                data = _read_bytes(f"{self.root}{os.sep}{key}.json")
            except OSError:
                packed = self._packed_text(key) if self._rescan_packs() else None
                if packed is None:
                    return self._count(None)
            else:
                result = self._accept(job, data, b"{")
                if result is None:
                    self._quarantine(self.path_for(job))
                return self._count(result)
        name, line = packed
        result = self._accept(job, line, _LINE_HEAD + key.encode() + b'",')
        if result is None:
            self._quarantine_pack(name)
        return self._count(result)

    def _count(self, result: JobResult | None) -> JobResult | None:
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def _accept(
        self, job: SimulationJob, data: bytes, head: bytes
    ) -> JobResult | None:
        """The entry's result if it is sound and belongs to ``job``.

        ``head`` is what precedes the ``"job"`` member in this layout
        (``{`` in a ``<key>.json``, ``{"cache_key":"<key>",`` on a pack
        line).  An entry as :meth:`put` writes it starts with ``head``
        plus the job's canonical text and the model version, byte for
        byte, and ends in a brace and a newline: that much is checked
        as bytes, and only the result member is parsed.  An entry in
        another layout (older indented ones) is parsed whole and
        audited like :meth:`verify` does.
        """
        prefix = b"".join(
            (
                head,
                b'"job":',
                job.canonical_json().encode(),
                b',"model_version":',
                json.dumps(MODEL_VERSION).encode(),
                b',"result":',
            )
        )
        try:
            if not data.startswith(prefix):
                payload = json.loads(data)
                if self._payload_defect(payload, job.cache_key()) is not None:
                    return None
                return JobResult.from_dict(payload["result"])
            if not data.endswith(b"}\n"):
                return None  # torn behind a sound prefix
            member = data[len(prefix) : -2].decode()
            parsed, end = _DECODER.raw_decode(member)
            return JobResult.from_dict(parsed) if end == len(member) else None
        except (ValueError, KeyError, TypeError, AttributeError):
            return None

    def _quarantine(self, path: Path) -> Path | None:
        """Move a defective file aside; returns the new path or None."""
        target = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, target)
        except OSError:
            # Racing reader already moved it, or the directory is
            # read-only; either way the miss still stands.
            return None
        self.quarantined += 1
        obs().emit(
            "cache.quarantined",
            f"quarantined defective cache entry {path.name}",
            target=target.name,
        )
        obs().metrics.counter("cache.quarantined").inc()
        return target

    # -- the pack index ------------------------------------------------------

    def _packed_text(self, key: str) -> tuple[str, bytes] | None:
        """``(pack name, line)`` for a key the index holds, or None.

        A line that does not start with its key means the pack was
        replaced under the index (a later commit with the same first
        key): that pack is re-indexed and the lookup tried once more.
        """
        location = self._located.get(key)
        for _ in range(2):
            if location is None:
                return None
            name, offset, length = location
            try:
                path = f"{self.root}{os.sep}{PACK_DIR}{os.sep}{name}"
                fd = os.open(path, os.O_RDONLY)
                try:
                    line = os.pread(fd, length, offset)
                finally:
                    os.close(fd)
            except OSError:
                self._forget_pack(name)  # quarantined or cleared meanwhile
                return None
            if line.startswith(_LINE_HEAD + key.encode()):
                return name, line
            self._forget_pack(name)
            self._index_pack(name)
            location = self._located.get(key)
        return None

    def _rescan_packs(self) -> bool:
        """Re-index ``packs/`` if its mtime moved; True if it was scanned."""
        try:
            mtime = os.stat(self._pack_dir).st_mtime_ns
        except OSError:
            return False  # no packs yet
        if mtime == self._packs_mtime:
            return False
        settled = wall_time() - mtime / 1e9 > _MTIME_TICK
        try:
            names = {n for n in os.listdir(self._pack_dir) if n.endswith(".pack")}
        except OSError:
            return False
        for name in self._pack_keys.keys() - names:
            self._forget_pack(name)
        for name in sorted(names - self._pack_keys.keys()):
            self._index_pack(name)
        self._packs_mtime = mtime if settled else None
        return True

    def _index_pack(self, name: str) -> None:
        """Record the key and byte span of every line of one pack."""
        try:
            data = (self._pack_dir / name).read_bytes()
        except OSError:
            return
        keys = []
        offset = 0
        for line in data.splitlines(keepends=True):
            if line.startswith(_LINE_HEAD) and len(line) > _KEY_END:
                key = line[len(_LINE_HEAD) : _KEY_END].decode("ascii", "replace")
                if key not in self._located:
                    self._located[key] = (name, offset, len(line))
                    keys.append(key)
            offset += len(line)
        self._pack_keys[name] = keys

    def _forget_pack(self, name: str) -> None:
        for key in self._pack_keys.pop(name, ()):
            if self._located.get(key, (None,))[0] == name:
                self._located.pop(key, None)

    def _quarantine_pack(self, name: str) -> None:
        """Move a pack with a defective line aside, all of its entries
        with it: they become misses and are recomputed."""
        self._forget_pack(name)
        self._quarantine(self._pack_dir / name)

    # -- write side ----------------------------------------------------------

    def put(self, job: SimulationJob, result: JobResult) -> Path | None:
        """Store a result as ``<key>.json``; atomic and best-effort.

        Writes to a pid-unique temp file then renames, so concurrent
        runners never interleave.  On ``OSError`` (disk full,
        read-only mount) the failure is warned and counted in
        ``write_errors`` but never propagated — losing a cache entry
        must not lose the run.  Returns the entry path, or None when
        the write failed.

        With the obs runtime on, write latency lands in
        ``cache.put_seconds`` and successes in ``cache.puts``.
        """
        o = obs()
        if not o.enabled:
            return self._put(job, result)
        t0 = monotonic()
        path = self._put(job, result)
        o.metrics.histogram("cache.put_seconds").observe(monotonic() - t0)
        if path is not None:
            o.metrics.counter("cache.puts").inc()
        return path

    def _put(self, job: SimulationJob, result: JobResult) -> Path | None:
        key = job.cache_key()
        path = self.root / f"{key}.json"
        text = _entry_text(job, result)
        try:
            if self.faults is not None:
                self.faults.on_cache_put(job)
            self._commit(key, text, path)
        except OSError as error:
            self._write_failed(path, error, 1)
            return None
        if self.faults is not None and self.faults.corrupts_entry(job):
            # Injected torn write: chop the entry mid-JSON.
            path.write_text(text[: len(text) // 3])
        return path

    def put_many(self, pairs: Iterable[tuple[SimulationJob, JobResult]]) -> int:
        """Store several results in one commit; returns how many landed.

        One pair is a :meth:`put` (``<key>.json``, byte for byte).  Two
        or more go into one file, ``packs/<first-key>.pack``, one line
        per entry, written to a temp file and renamed like a single
        entry; a key repeated within ``pairs`` is stored once.  Faults
        act per entry as in :meth:`put`: an injected write error drops
        that entry, an injected corruption tears its line.  A real
        ``OSError`` loses the whole commit, warned and counted per
        entry, never raised.
        """
        pairs = list(pairs)
        if len(pairs) <= 1:
            return sum(self.put(job, result) is not None for job, result in pairs)
        o = obs()
        t0 = monotonic() if o.enabled else 0.0
        keys: list[str] = []
        lines: list[str] = []
        seen: set[str] = set()
        for job, result in pairs:
            key = job.cache_key()
            if key in seen:
                continue
            seen.add(key)
            line = _pack_line(key, job, result)
            if self.faults is not None:
                try:
                    self.faults.on_cache_put(job)
                except OSError as error:
                    self._write_failed(self.path_for(job), error, 1)
                    continue
                if self.faults.corrupts_entry(job):
                    line = line[: len(line) // 3] + "\n"  # injected torn line
            keys.append(key)
            lines.append(line)
        if not lines:
            return 0
        name = f"{keys[0]}.pack"
        path = self._pack_dir / name
        try:
            self._commit(keys[0], "".join(lines), path)
        except OSError as error:
            self._write_failed(path, error, len(lines))
            return 0
        # Index what was just written: this process never rescans its
        # own commits to find them.
        self._forget_pack(name)
        offset = 0
        for key, line in zip(keys, lines):
            self._located[key] = (name, offset, len(line))
            offset += len(line)
        self._pack_keys[name] = keys
        if o.enabled:
            o.metrics.histogram("cache.put_seconds").observe(monotonic() - t0)
            o.metrics.counter("cache.puts").inc(len(lines))
        return len(lines)

    def _commit(self, key: str, text: str, path: Path) -> None:
        """Write ``text`` to a pid-unique temp file in the root and
        rename it to ``path``, making missing directories once."""
        tmp = self.root / f"{key}.{os.getpid()}.{next(self._tmp_counter)}.tmp"
        data = text.encode()
        try:
            try:
                _write_bytes(tmp, data)
            except FileNotFoundError:
                # First put into a root that does not exist yet.
                self.root.mkdir(parents=True, exist_ok=True)
                _write_bytes(tmp, data)
            try:
                os.replace(tmp, path)
            except FileNotFoundError:
                path.parent.mkdir(exist_ok=True)  # first pack
                os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass  # same unwritable disk; the caller reports the failure
            raise

    def _write_failed(self, path: Path, error: OSError, entries: int) -> None:
        self.write_errors += entries
        obs().emit(
            "cache.write_error",
            f"result cache write failed for {path.name} ({error}); "
            "continuing without caching "
            + ("this entry" if entries == 1 else f"these {entries} entries"),
            level=WARNING,
            path=str(path),
            error=str(error),
        )

    # -- maintenance ---------------------------------------------------------

    @staticmethod
    def _payload_defect(payload, key: str) -> str | None:
        """Why a parsed entry is unusable under ``key``, or None."""
        try:
            if payload.get("model_version") != MODEL_VERSION:
                return f"model version {payload.get('model_version')!r}"
            job = SimulationJob.from_dict(payload["job"])
            JobResult.from_dict(payload["result"])
            if job.cache_key() != key:
                return "content does not match its key"
        except (ValueError, KeyError, TypeError, AttributeError) as error:
            return f"malformed entry ({error})"
        return None

    def _entry_defect(self, path: Path) -> str | None:
        """Why an on-disk ``<key>.json`` is unusable, or None if sound."""
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return "unreadable or not JSON"
        return self._payload_defect(payload, path.stem)

    def _pack_audit(self, path: Path) -> tuple[int, dict[str, str]]:
        """``(entries, {label: defect})`` for one pack, one entry per
        line; labels read ``packs/<name>:<line number>``."""
        label = f"{PACK_DIR}/{path.name}"
        lines = self._pack_lines(path)
        defects = {}
        for number, line in enumerate(lines, 1):
            try:
                payload = json.loads(line)
                defect = self._payload_defect(payload, payload["cache_key"])
            except (ValueError, KeyError, TypeError):
                defect = "unreadable or not JSON"
            if defect is not None:
                defects[f"{label}:{number}"] = defect
        return len(lines), defects

    def _packs(self) -> list[Path]:
        return sorted(self._pack_dir.glob("*.pack"))

    @staticmethod
    def _pack_lines(path: Path) -> list[bytes]:
        """A pack's entries, one per non-empty line."""
        try:
            return [line for line in path.read_bytes().splitlines() if line.strip()]
        except OSError:
            return []  # quarantined or cleared since it was listed

    def _corpses(self) -> list[Path]:
        return [*self.root.glob("*.corrupt"), *self._pack_dir.glob("*.corrupt")]

    def _stale_tmps(self, max_age: float) -> list[Path]:
        now = wall_time()
        stale = []
        for tmp in self.root.glob("*.tmp"):
            try:
                if now - tmp.stat().st_mtime >= max_age:
                    stale.append(tmp)
            except OSError:
                continue  # vanished mid-scan: a live writer renamed it
        return sorted(stale)

    def verify(self, max_tmp_age: float = STALE_TMP_AGE) -> dict:
        """Audit every entry without changing anything.

        Returns ``{"entries", "valid", "corrupt": {name: why},
        "stale_tmp": [names], "quarantined", "claims"}`` — every line
        of a pack counts as one entry, named ``packs/<pack>:<line>``
        in ``corrupt``; ``corrupt`` covers unreadable entries, version
        mismatches, and key/content drift; ``claims`` counts leftover
        single-flight files in the conventional ``claims/``
        subdirectory (records, tombstones, heartbeat temps) so
        registry debris is at least *visible* here — pruning it is
        ``claims gc``'s job, not verify's.
        """
        report: dict = {
            "entries": 0,
            "valid": 0,
            "corrupt": {},
            "stale_tmp": [],
            "quarantined": 0,
            "claims": {"records": 0, "tombstones": 0, "beats": 0},
        }
        if not self.root.is_dir():
            return report
        for path in sorted(self.root.glob("*.json")):
            report["entries"] += 1
            defect = self._entry_defect(path)
            if defect is None:
                report["valid"] += 1
            else:
                report["corrupt"][path.name] = defect
        for path in self._packs():
            entries, defects = self._pack_audit(path)
            report["entries"] += entries
            report["valid"] += entries - len(defects)
            report["corrupt"].update(defects)
        report["stale_tmp"] = [p.name for p in self._stale_tmps(max_tmp_age)]
        report["quarantined"] = len(self._corpses())
        claims_dir = self.root / "claims"
        if claims_dir.is_dir():
            report["claims"] = {
                "records": sum(1 for _ in claims_dir.glob("*.claim")),
                "tombstones": sum(1 for _ in claims_dir.glob("*.stale")),
                "beats": sum(1 for _ in claims_dir.glob("*.beat")),
            }
        return report

    def repair(self, max_tmp_age: float = STALE_TMP_AGE) -> dict:
        """Quarantine defective entries and sweep stale temp files.

        Returns ``{"quarantined": [names], "removed_tmp": [names]}``;
        a pack with any defective line is quarantined whole and listed
        as ``packs/<pack>``.  Safe to run concurrently with readers:
        quarantine uses the same atomic rename ``get`` does.
        """
        done: dict = {"quarantined": [], "removed_tmp": []}
        if not self.root.is_dir():
            return done
        for path in sorted(self.root.glob("*.json")):
            if self._entry_defect(path) is not None:
                if self._quarantine(path) is not None:
                    done["quarantined"].append(path.name)
        for path in self._packs():
            if self._pack_audit(path)[1]:
                self._forget_pack(path.name)
                if self._quarantine(path) is not None:
                    done["quarantined"].append(f"{PACK_DIR}/{path.name}")
        for tmp in self._stale_tmps(max_tmp_age):
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                continue  # read-only or vanished; report only what went
            done["removed_tmp"].append(tmp.name)
        return done

    def clear(self) -> int:
        """Delete every cache entry (plus quarantine/temp debris);
        returns how many *entries* were removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                path.unlink(missing_ok=True)
                removed += 1
            for path in self._packs():
                removed += len(self._pack_lines(path))
                path.unlink(missing_ok=True)
            for debris in itertools.chain(self._corpses(), self.root.glob("*.tmp")):
                debris.unlink(missing_ok=True)
            try:
                self._pack_dir.rmdir()
            except OSError:
                pass  # absent, or holds files that are not the cache's
        self._located.clear()
        self._pack_keys.clear()
        self._packs_mtime = None
        return removed

    def __len__(self) -> int:
        """Number of entries currently on disk, packed ones included."""
        if not self.root.is_dir():
            return 0
        packed = sum(len(self._pack_lines(path)) for path in self._packs())
        return sum(1 for _ in self.root.glob("*.json")) + packed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultCache(root={str(self.root)!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"write_errors={self.write_errors}, quarantined={self.quarantined})"
        )
