"""Content-addressed on-disk cache of simulation results.

One JSON file per completed :class:`~repro.parallel.job.SimulationJob`
under ``results/cache/`` (or any directory you point it at), named by
the job's :meth:`~repro.parallel.job.SimulationJob.cache_key` — a
stable hash of the spec plus the model version tag.  Because the key
covers everything that determines the outcome, a hit can be returned
without any staleness check, and bumping
:data:`~repro.parallel.job.MODEL_VERSION` invalidates every old entry
by construction (their keys simply stop being looked up).

Entries also embed the spec and version they were computed from, so a
file that was hand-edited, truncated, or produced by a different model
version is detected and treated as a miss rather than trusted.

Robustness model (the cache is an accelerator, never a dependency):

* **Writes are best-effort.**  A full or read-only disk makes ``put``
  warn and count (`write_errors`) instead of killing an otherwise
  healthy run; the result is still returned to the caller.
* **Writes are collision-free.**  Temp files are unique per process
  (pid + counter), so two runners sharing a cache directory can never
  clobber each other's half-written entries; the final rename is
  atomic either way.
* **Corruption self-repairs.**  A defective entry found by ``get`` is
  quarantined to ``<key>.json.corrupt`` (evidence preserved, path
  freed for recomputation) rather than silently overwritten.
* **Maintenance is explicit.**  ``verify()`` audits every entry,
  ``repair()`` quarantines bad ones and sweeps stale temp files, and
  both are exposed as ``python -m repro cache verify|repair|clear``.
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path

from ..obs import WARNING, obs
from ..obs.clock import monotonic, wall_time
from .job import MODEL_VERSION, JobResult, SimulationJob

__all__ = ["DEFAULT_CACHE_DIR", "STALE_TMP_AGE", "ResultCache"]

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_DIR = Path("results") / "cache"

#: A ``*.tmp`` file older than this (seconds) is debris from a dead
#: writer — no healthy put keeps one alive for more than moments.
STALE_TMP_AGE = 3600.0


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

    def path_for(self, job: SimulationJob) -> Path:
        """The file a job's result lives in (whether or not it exists)."""
        return self.root / f"{job.cache_key()}.json"

    # -- read side -----------------------------------------------------------

    def get(self, job: SimulationJob) -> JobResult | None:
        """Return the cached result, or None on a miss.

        Any defect — missing file, unparsable JSON, wrong model
        version, spec mismatch — counts as a miss.  Defective files
        are quarantined to ``*.corrupt`` so the next ``put`` writes a
        clean entry and the evidence survives for inspection.

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
        path = self.path_for(job)
        try:
            text = path.read_text()
        except OSError:
            self.misses += 1
            return None
        try:
            payload = json.loads(text)
            if payload.get("model_version") != MODEL_VERSION:
                raise ValueError("model version mismatch")
            if payload.get("job") != job.to_dict():
                raise ValueError("job spec mismatch")
            result = JobResult.from_dict(payload["result"])
        except (ValueError, KeyError, TypeError):
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def _quarantine(self, path: Path) -> Path | None:
        """Move a defective entry aside; returns the new path or None."""
        target = path.with_suffix(".json.corrupt")
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

    # -- write side ----------------------------------------------------------

    def put(self, job: SimulationJob, result: JobResult) -> Path | None:
        """Store a result; atomic and best-effort.

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
        tmp = self.root / f"{key}.{os.getpid()}.{next(self._tmp_counter)}.tmp"
        payload = {
            "model_version": MODEL_VERSION,
            "job": job.to_dict(),
            "result": result.to_dict(),
        }
        # Compact, sorted keys: json's C encoder handles this form (an
        # indent forces the pure-Python one).  Entries written indented
        # by older versions parse the same way and still read as hits.
        text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        try:
            if self.faults is not None:
                self.faults.on_cache_put(job)
            try:
                tmp.write_text(text)
            except FileNotFoundError:
                # First put into a root that does not exist yet.
                self.root.mkdir(parents=True, exist_ok=True)
                tmp.write_text(text)
            os.replace(tmp, path)
        except OSError as error:
            self.write_errors += 1
            obs().emit(
                "cache.write_error",
                f"result cache write failed for {path.name} ({error}); "
                "continuing without caching this entry",
                level=WARNING,
                path=str(path),
                error=str(error),
            )
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                return None  # same unwritable disk; nothing more to do
            return None
        if self.faults is not None and self.faults.corrupts_entry(job):
            # Injected torn write: chop the entry mid-JSON.
            path.write_text(json.dumps(payload)[: len(str(payload)) // 3])
        return path

    # -- maintenance ---------------------------------------------------------

    def _entry_defect(self, path: Path) -> str | None:
        """Why an on-disk entry is unusable, or None if it is sound."""
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return "unreadable or not JSON"
        try:
            if payload.get("model_version") != MODEL_VERSION:
                return f"model version {payload.get('model_version')!r}"
            job = SimulationJob.from_dict(payload["job"])
            JobResult.from_dict(payload["result"])
            if job.cache_key() != path.stem:
                return "content does not match its key"
        except (ValueError, KeyError, TypeError) as error:
            return f"malformed entry ({error})"
        return None

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
        "stale_tmp": [names], "quarantined", "claims"}`` — ``corrupt``
        covers unreadable files, version mismatches, and key/content
        drift; ``claims`` counts leftover single-flight files in the
        conventional ``claims/`` subdirectory (records, tombstones,
        heartbeat temps) so registry debris is at least *visible*
        here — pruning it is ``claims gc``'s job, not verify's.
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
        report["stale_tmp"] = [p.name for p in self._stale_tmps(max_tmp_age)]
        report["quarantined"] = sum(1 for _ in self.root.glob("*.corrupt"))
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

        Returns ``{"quarantined": [names], "removed_tmp": [names]}``.
        Safe to run concurrently with readers: quarantine uses the
        same atomic rename ``get`` does.
        """
        done: dict = {"quarantined": [], "removed_tmp": []}
        if not self.root.is_dir():
            return done
        for path in sorted(self.root.glob("*.json")):
            if self._entry_defect(path) is not None:
                if self._quarantine(path) is not None:
                    done["quarantined"].append(path.name)
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
            for debris in itertools.chain(
                self.root.glob("*.corrupt"), self.root.glob("*.tmp")
            ):
                debris.unlink(missing_ok=True)
        return removed

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultCache(root={str(self.root)!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"write_errors={self.write_errors}, quarantined={self.quarantined})"
        )
