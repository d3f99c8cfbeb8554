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
  ``<key>.json``: compact sorted-key JSON of ``{"crc32", "job",
  "model_version", "result"}``, where ``crc32`` is the CRC-32 of the
  result member's bytes as eight lower-case hex digits.  The runner,
  the serve fleet and the claims path commit this way, one job at a
  time.
* **One chunk, one pack.**  :meth:`ResultCache.put_many` with two or
  more entries writes ``packs/<first-key>.pack``: one line per entry,
  the same JSON with a leading ``"cache_key"`` field.  The campaign
  orchestrator commits each chunk this way, so a chunk costs one file
  instead of one per job (a chunk of one writes ``<key>.json``).

``get`` looks a key up in an in-process index of the packs (keys and
byte locations, never entries), then tries ``<key>.json``, and only
then rescans ``packs/`` — and only when that directory's mtime has
moved — so packs other processes write become visible and a cache
with no packs pays one extra ``stat`` per miss and none per hit.

Entries embed the spec and version they were computed from, and one
check decides whether an entry is sound: its bytes must be what
``put``/``put_many`` write for the job its key names — the layout's
head, a digest, the job's canonical text, the model version, a result
member whose CRC-32 is that digest, and a closing brace and newline.
The check parses nothing: a hit is the verified member itself, the
returned :class:`~repro.parallel.job.JobResult`'s canonical text, so
the serve payload splices it as stored and the first-passage map is
parsed only when a caller reads it.  ``get`` applies the check to the
job it looks up; ``verify`` and ``repair`` rebuild the job from the
entry's ``"job"`` member, check it against the key, and apply the same
check.  Anything else (a flipped digit or a swapped member, hand-edited,
truncated, re-spaced or indented, another model version) is a miss,
quarantined and recomputed.  The digest guards against damage, not
forgery: a member that matches it is taken as the writer's text.

Robustness model (the cache is an accelerator, never a dependency):

* **Writes are best-effort.**  A full or read-only disk makes ``put``
  warn and count (`write_errors`) instead of killing an otherwise
  healthy run; the result is still returned to the caller.
* **Writes are collision-free.**  Temp files are unique per process
  (pid + counter), so two runners sharing a cache directory can never
  clobber each other's half-written files; the final rename is atomic
  either way.
* **Only chunk commits are durable.**  ``put_many`` fsyncs the file
  before its rename and the directory after it, in both layouts: a
  campaign chunk has no other record.  ``put`` fsyncs nothing; the
  runner, the serve fleet and the claims path recompute a lost entry.
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
import zlib
from pathlib import Path
from typing import Iterable, Iterator

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

#: What precedes the ``"crc32"`` member of a ``<key>.json``.
_FILE_HEAD = b"{"

#: Every pack line starts with this, then the entry's 64-hex key, so
#: the index reads keys without parsing entries.
_LINE_HEAD = b'{"cache_key":"'
_KEY_END = len(_LINE_HEAD) + 64

#: Seconds within which a directory mtime may not have moved yet for a
#: change that already happened: file systems stamp from a clock that
#: ticks every few milliseconds.  A scan that saw a younger mtime is
#: not trusted to stand for the directory.
_MTIME_TICK = 0.05

#: Bytes per ``os.read`` of an entry file; one call covers an entry.
_READ_CHUNK = 1 << 16

#: Every entry's first member (after a pack line's key): the CRC-32 of
#: its result member, as eight lower-case hex digits.
_DIGEST_OPEN = b'"crc32":"'
_DIGEST_LEN = 8

#: The model version as the JSON string entries splice in.
_VERSION_JSON = json.dumps(MODEL_VERSION).encode()

#: Parses the job member ``verify`` rebuilds an entry's job from.
_DECODER = json.JSONDecoder()


def _pack_head(key: str) -> bytes:
    """What precedes the ``"crc32"`` member on a pack line."""
    return b'%s%s",' % (_LINE_HEAD, key.encode())


def _digest(member: bytes) -> bytes:
    """The ``"crc32"`` value of a result member."""
    return b"%08x" % zlib.crc32(member)


def _after_digest(job: SimulationJob) -> bytes:
    """An entry's bytes from the end of its digest to its result
    member, as the writer lays them out for ``job``."""
    return b'","job":%s,"model_version":%s,"result":' % (
        job.canonical_json().encode(),
        _VERSION_JSON,
    )


def _entry(head: bytes, job: SimulationJob, result: JobResult) -> bytes:
    """The one entry layout: compact sorted-key JSON of ``{"crc32",
    "job", "model_version", "result"}`` behind the layout's head, then
    a newline."""
    member = result.canonical_json().encode()
    return b"%s%s%s%s%s}\n" % (
        head, _DIGEST_OPEN, _digest(member), _after_digest(job), member
    )


def _check(job: SimulationJob, data: bytes, head: bytes) -> JobResult | str:
    """The result ``data`` holds if it is the entry the writer lays out
    for ``job`` behind ``head``, else why it is not.

    Nothing is parsed: the bytes around the digest and the result
    member are compared with what the writer lays out, and the member
    with its digest.  The member, so verified, is the hit's memoized
    canonical text (:meth:`JobResult.from_canonical_json`).
    """
    at = len(head) + len(_DIGEST_OPEN)
    after = _after_digest(job)
    if not (
        data.startswith(head)
        and data.startswith(_DIGEST_OPEN, len(head))
        and data.startswith(after, at + _DIGEST_LEN)
    ):
        return "not the entry put writes for this job (layout, job or model version)"
    if not data.endswith(b"}\n"):
        return "torn: no closing brace and newline"
    member = data[at + _DIGEST_LEN + len(after) : -2]
    if _digest(member) != data[at : at + _DIGEST_LEN]:
        return "result member does not match its crc32"
    try:
        return JobResult.from_canonical_json(member.decode("ascii"))
    except UnicodeDecodeError as error:
        return f"malformed result ({error})"


def _audit(key: str, head: bytes, data: bytes) -> str | None:
    """Why a stored entry is unsound under ``key``, or None if sound:
    the job is rebuilt from the entry's ``"job"`` member, checked
    against the key, and then :func:`_check` decides."""
    if not data.startswith(_DIGEST_OPEN, len(head)):
        return "no crc32 where put writes it (an older layout or version)"
    start = len(head) + len(_DIGEST_OPEN) + _DIGEST_LEN + len(b'","job":')
    try:
        member, _ = _DECODER.raw_decode(data[start:].decode())
        job = SimulationJob.from_dict(member)
    except (ValueError, KeyError, TypeError, AttributeError) as error:
        return f"no job member where put writes it ({error})"
    if job.cache_key() != key:
        return "content does not match its key"
    checked = _check(job, data, head)
    return checked if isinstance(checked, str) else None


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


def _write_bytes(path: Path, data: bytes, durable: bool) -> None:
    """Create or truncate ``path`` and write all of ``data`` to it,
    fsynced before it closes when ``durable``."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
        if durable:
            os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(path: Path) -> None:
    """Make the entries of directory ``path`` durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
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

        A hit's :meth:`~repro.parallel.job.JobResult.canonical_json`
        is the stored result member, checked against its digest and
        not parsed (the first-passage map is, on first read).  An
        entry that is not byte for byte what the writer lays out for
        ``job`` — torn, re-spaced, another model version, a mismatched
        spec, a result member that does not match its digest — is a
        miss and is quarantined to ``*.corrupt`` (a packed one takes
        its whole pack along) so the next ``put`` writes a clean entry
        and the evidence survives for inspection.

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
                result = _check(job, data, _FILE_HEAD)
                if isinstance(result, str):
                    self._quarantine(self.path_for(job))
                    result = None
                return self._count(result)
        name, line = packed
        result = _check(job, line, _pack_head(key))
        if isinstance(result, str):
            self._quarantine_pack(name)
            result = None
        return self._count(result)

    def _count(self, result: JobResult | None) -> JobResult | None:
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

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

    def _pack_lines(self, name: str) -> list[tuple[str, int, bytes]]:
        """``(key, byte offset, line)`` for every line of one pack,
        newlines kept; a line without a key yields one no job has."""
        try:
            data = (self._pack_dir / name).read_bytes()
        except OSError:
            return []  # quarantined or cleared since it was listed
        lines = []
        offset = 0
        for line in data.splitlines(keepends=True):
            key = line[len(_LINE_HEAD) : _KEY_END].decode("ascii", "replace")
            lines.append((key, offset, line))
            offset += len(line)
        return lines

    def _index_pack(self, name: str) -> None:
        """Record the key and byte span of every line of one pack."""
        keys = []
        for key, offset, line in self._pack_lines(name):
            if key not in self._located:
                self._located[key] = (name, offset, len(line))
                keys.append(key)
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
        runners never interleave; nothing is fsynced.  On ``OSError``
        (disk full, read-only mount) the failure is warned and counted
        in ``write_errors`` but never propagated — losing a cache entry
        must not lose the run.  Returns the entry path, or None when
        the write failed.

        With the obs runtime on, write latency lands in
        ``cache.put_seconds`` and successes in ``cache.puts``.
        """
        return self._write([(job, result)], durable=False)[0]

    def put_many(self, pairs: Iterable[tuple[SimulationJob, JobResult]]) -> int:
        """Store several results in one durable commit; returns how
        many landed.

        The commit :meth:`put` makes, fsynced: the temp file before
        its rename and the directory after it, so what this counts as
        landed survives a power loss — it is the campaign's one record
        of a chunk.  Two or more entries go into one file,
        ``packs/<first-key>.pack``, one line per entry; one writes
        ``<key>.json`` byte for byte as :meth:`put`.
        """
        return self._write(pairs, durable=True)[1]

    def _write(
        self, pairs: Iterable[tuple[SimulationJob, JobResult]], durable: bool
    ) -> tuple[Path | None, int]:
        """The one commit path: ``(path, entries landed)``.

        A key repeated within ``pairs`` is stored once.  Faults act per
        entry: an injected write error drops that entry, an injected
        corruption tears its text before the commit.  What remains
        picks the layout — one entry ``<key>.json``, more one pack —
        and a real ``OSError`` loses the whole commit, warned and
        counted per entry, never raised.
        """
        o = obs()
        t0 = monotonic() if o.enabled else 0.0
        entries: dict[str, tuple[SimulationJob, JobResult]] = {}
        seen: set[str] = set()
        for job, result in pairs:
            key = job.cache_key()
            if key in seen:
                continue
            seen.add(key)
            if self.faults is not None:
                try:
                    self.faults.on_cache_put(job)
                except OSError as error:
                    self._write_failed(self.path_for(job), error, 1)
                    continue
            entries[key] = (job, result)
        if not entries:
            return None, 0
        first = next(iter(entries))
        packed = len(entries) > 1
        path = self._pack_dir / f"{first}.pack" if packed else self.root / f"{first}.json"
        texts = []
        for key, (job, result) in entries.items():
            text = _entry(_pack_head(key) if packed else _FILE_HEAD, job, result)
            if self.faults is not None and self.faults.corrupts_entry(job):
                text = text[: len(text) // 3] + b"\n"  # injected torn write
            texts.append(text)
        try:
            self._commit(first, b"".join(texts), path, durable)
        except OSError as error:
            self._write_failed(path, error, len(texts))
            return None, 0
        if packed:
            # Index what was just written: this process never rescans
            # its own commits to find them.
            self._forget_pack(path.name)
            offset = 0
            for key, text in zip(entries, texts):
                self._located[key] = (path.name, offset, len(text))
                offset += len(text)
            self._pack_keys[path.name] = list(entries)
        if o.enabled:
            o.metrics.histogram("cache.put_seconds").observe(monotonic() - t0)
            o.metrics.counter("cache.puts").inc(len(texts))
        return path, len(texts)

    def _commit(self, key: str, data: bytes, path: Path, durable: bool) -> None:
        """Write ``data`` to a pid-unique temp file in the root and
        rename it to ``path``, making missing directories once.

        ``durable`` fsyncs the temp file before the rename, then the
        directory, and the parent of any directory made just now.
        """
        tmp = self.root / f"{key}.{os.getpid()}.{next(self._tmp_counter)}.tmp"
        synced = [path.parent]
        try:
            try:
                _write_bytes(tmp, data, durable)
            except FileNotFoundError:
                # First put into a root that does not exist yet.
                self.root.mkdir(parents=True, exist_ok=True)
                _write_bytes(tmp, data, durable)
                synced.append(self.root.parent)
            try:
                os.replace(tmp, path)
            except FileNotFoundError:
                path.parent.mkdir(exist_ok=True)  # first pack
                os.replace(tmp, path)
                synced.append(self.root)
            if durable:
                for directory in synced:
                    _fsync_dir(directory)
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

    def _stored(self) -> Iterator[tuple[Path, str, str, bytes, bytes]]:
        """Every stored entry as ``(file, label, key, head, bytes)``:
        each ``<key>.json``, then each line of each pack, labelled
        ``packs/<pack>:<line number>``."""
        for path in sorted(self.root.glob("*.json")):
            try:
                data = _read_bytes(str(path))
            except OSError:
                data = b""  # unreadable: audited as unsound
            yield path, path.name, path.stem, _FILE_HEAD, data
        for path in sorted(self._pack_dir.glob("*.pack")):
            for number, (key, _, line) in enumerate(self._pack_lines(path.name), 1):
                label = f"{PACK_DIR}/{path.name}:{number}"
                yield path, label, key, _pack_head(key), line

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
        in ``corrupt``; ``corrupt`` lists exactly the entries ``get``
        would quarantine (the same check decides); ``claims`` counts
        leftover single-flight files in the conventional ``claims/``
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
        for _, label, key, head, data in self._stored():
            report["entries"] += 1
            defect = _audit(key, head, data)
            if defect is None:
                report["valid"] += 1
            else:
                report["corrupt"][label] = defect
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
        moved: set[Path] = set()
        for path, _, key, head, data in self._stored():
            if path in moved or _audit(key, head, data) is None:
                continue
            moved.add(path)
            self._forget_pack(path.name)
            if self._quarantine(path) is not None:
                done["quarantined"].append(path.relative_to(self.root).as_posix())
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
        stored = [path for path, *_ in self._stored()]
        for path in itertools.chain(set(stored), self._corpses(), self.root.glob("*.tmp")):
            path.unlink(missing_ok=True)
        try:
            self._pack_dir.rmdir()
        except OSError:
            pass  # absent, or holds files that are not the cache's
        self._located.clear()
        self._pack_keys.clear()
        self._packs_mtime = None
        return len(stored)

    def __len__(self) -> int:
        """Number of entries currently on disk, packed ones included."""
        return sum(1 for _ in self._stored())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultCache(root={str(self.root)!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"write_errors={self.write_errors}, quarantined={self.quarantined})"
        )
