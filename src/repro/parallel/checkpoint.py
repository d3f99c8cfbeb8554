"""Checkpoint journals: crash-safe resume for long runs.

A :class:`CheckpointJournal` is an append-only JSONL file under
``results/checkpoints/<run-id>.jsonl`` recording every completed job
of a batch as ``{key, job, result, model_version}``.  A run killed
mid-way (SIGINT, OOM, power loss) leaves a journal whose prefix is
every job that finished; re-running the same batch against the same
journal serves those jobs back without re-execution and continues
exactly where the run stopped.  On a fully successful run the caller
deletes the journal via :meth:`complete` — a leftover journal *means*
an interrupted run.

Safety properties:

* **Content-addressed** — the run id derives from the job specs (or a
  caller-supplied descriptor), and each entry is keyed by the job's
  ``cache_key`` which folds in ``MODEL_VERSION``.  A journal can only
  ever resume the exact batch that wrote it; anything else misses.
* **Kill-tolerant** — a process death mid-append leaves at most one
  torn final line, which :meth:`load` skips; every earlier entry is
  intact because each :meth:`~CheckpointJournal.record` call is one
  write, flushed and fsynced before it returns (one commit per
  ``record`` call, however many jobs it carries).
* **Science-preserving** — entries store the same canonical
  :class:`~repro.parallel.job.JobResult` serialization the cache
  uses (:meth:`~repro.parallel.job.JobResult.canonical_json`, the very
  text, encoded once per result), so a resumed run is byte-identical
  to an uninterrupted one.

The journal stays a file of its own beside the result cache, with
one fsync per :meth:`~CheckpointJournal.record` call: its survival is
the interrupted-run marker ``campaign status`` and resume read, so it
is not folded into the cache's packs.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import IO, Iterable, Sequence

from ..obs import obs
from ..obs.clock import wall_time
from .job import MODEL_VERSION, JobResult, SimulationJob

__all__ = ["DEFAULT_CHECKPOINT_DIR", "CheckpointJournal", "resolve_checkpoint"]

#: Default journal location, relative to the working directory.
DEFAULT_CHECKPOINT_DIR = Path("results") / "checkpoints"


class CheckpointJournal:
    """Append-only completed-job journal for one batch of jobs.

    Parameters
    ----------
    path:
        The journal file.  Created lazily on the first :meth:`record`;
        an existing file is loaded lazily on the first :meth:`lookup`.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._index: dict[str, JobResult] | None = None
        self._handle: IO[str] | None = None
        self.recorded = 0
        self.skipped_lines = 0
        self._newest_ts: float | None = None

    # -- construction helpers ------------------------------------------------

    @classmethod
    def for_specs(
        cls,
        specs: Sequence[SimulationJob],
        root: str | os.PathLike | None = None,
    ) -> "CheckpointJournal":
        """Journal whose run id is the content hash of the batch.

        The same batch (in any order) always maps to the same journal
        file, so "resume" needs no bookkeeping beyond re-running the
        same command.
        """
        digest = hashlib.sha256(
            "\n".join(sorted(spec.cache_key() for spec in specs)).encode("ascii")
        ).hexdigest()
        return cls._at(digest[:16], root)

    @classmethod
    def for_key(
        cls, descriptor: str, root: str | os.PathLike | None = None
    ) -> "CheckpointJournal":
        """Journal for an adaptive batch (e.g. bisection) whose job
        set is unknown upfront; ``descriptor`` should canonically
        encode everything that determines the run."""
        digest = hashlib.sha256(descriptor.encode("utf-8")).hexdigest()
        return cls._at(digest[:16], root)

    @classmethod
    def _at(cls, run_id: str, root: str | os.PathLike | None) -> "CheckpointJournal":
        directory = Path(root) if root is not None else DEFAULT_CHECKPOINT_DIR
        return cls(directory / f"{run_id}.jsonl")

    @property
    def run_id(self) -> str:
        return self.path.stem

    # -- read side -----------------------------------------------------------

    def _load(self) -> dict[str, JobResult]:
        if self._index is not None:
            return self._index
        index: dict[str, JobResult] = {}
        try:
            text = self.path.read_text()
        except OSError:
            text = ""
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                if entry.get("model_version") != MODEL_VERSION:
                    raise ValueError("model version mismatch")
                key = entry["key"]
                result = JobResult.from_dict(entry["result"])
            except (ValueError, KeyError, TypeError):
                # Torn final line from a kill mid-append, or an entry
                # from an older model version: unusable, skip it.
                self.skipped_lines += 1
                continue
            index[key] = result
            ts = entry.get("ts")
            if isinstance(ts, (int, float)) and (
                self._newest_ts is None or ts > self._newest_ts
            ):
                self._newest_ts = float(ts)
        self._index = index
        return index

    def lookup(self, job: SimulationJob) -> JobResult | None:
        """The journaled result for this job, or None."""
        return self._load().get(job.cache_key())

    def staleness(self) -> float | None:
        """Seconds since the newest journal entry was written, or None.

        Entries carry the wall-clock time they were appended (since
        the ``ts`` field was introduced; older journals without it
        report None), so a resumed run can say *how old* the work it
        is picking up is.  Purely informational — resume correctness
        rests on content-addressing, never on timestamps.
        """
        self._load()
        if self._newest_ts is None:
            return None
        return max(0.0, wall_time() - self._newest_ts)

    def __len__(self) -> int:
        return len(self._load())

    def exists(self) -> bool:
        return self.path.is_file()

    # -- write side ----------------------------------------------------------

    def record(self, pairs: Iterable[tuple[SimulationJob, JobResult]]) -> None:
        """Append completed ``(job, result)`` pairs as one durable commit.

        The new lines go out in one write, one flush and one fsync, so
        a caller holding a whole chunk of results pays one disk barrier
        for all of them; a kill mid-commit tears at most the last line.
        Idempotent per key: pairs already journaled, or repeated within
        ``pairs``, are skipped.

        Each line carries the wall-clock time of its commit so a later
        ``--resume`` can report how stale the journal is (see
        :meth:`staleness`); resume matching itself never reads it.
        """
        index = self._load()
        now = wall_time()
        # Every line of the commit shares its version and stamp.
        version = json.dumps(MODEL_VERSION)
        stamp = json.dumps(now)
        fresh: dict[str, JobResult] = {}
        lines = []
        for job, result in pairs:
            key = job.cache_key()
            if key in index or key in fresh:
                continue
            fresh[key] = result
            # Compact sorted-key JSON of {job, key, model_version,
            # result, ts}, spliced around the result's memoized text so
            # its floats are encoded once for cache and journal alike.
            lines.append(
                f'{{"job":{job.canonical_json()},"key":"{key}",'
                f'"model_version":{version},"result":{result.canonical_json()},'
                f'"ts":{stamp}}}\n'
            )
        if not lines:
            return
        first = next(iter(fresh))
        with obs().span("checkpoint.write", key=first[:12], records=len(lines)):
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = self.path.open("a")
            self._handle.write("".join(lines))
            self._handle.flush()
            os.fsync(self._handle.fileno())
        index.update(fresh)
        if self._newest_ts is None or now > self._newest_ts:
            self._newest_ts = now
        self.recorded += len(lines)
        obs().metrics.counter("checkpoint.records").inc(len(lines))

    def close(self) -> None:
        """Close the append handle (the journal file stays on disk)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def complete(self) -> None:
        """The batch finished: delete the journal.

        Only call on full success — a surviving journal is the marker
        that a run was interrupted and is resumable.
        """
        self.close()
        self.path.unlink(missing_ok=True)
        self._index = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CheckpointJournal(path={str(self.path)!r}, "
            f"entries={len(self)}, recorded={self.recorded})"
        )


def resolve_checkpoint(
    checkpoint, specs: Sequence[SimulationJob]
) -> CheckpointJournal | None:
    """Normalize the user-facing ``checkpoint=`` argument.

    ``None``/``False`` — no journaling.  ``True`` — derive the journal
    from the batch content under :data:`DEFAULT_CHECKPOINT_DIR`.  A
    path — journal at exactly that file.  A journal — use as given.
    """
    if checkpoint is None or checkpoint is False:
        return None
    if checkpoint is True:
        journal = CheckpointJournal.for_specs(specs)
    elif isinstance(checkpoint, CheckpointJournal):
        journal = checkpoint
    else:
        journal = CheckpointJournal(checkpoint)
    if journal.exists() and len(journal):
        stale = journal.staleness()
        obs().emit(
            "checkpoint.resume",
            f"resuming run {journal.run_id}: {len(journal)} completed "
            "job(s) on record"
            + (f", newest {stale:.0f}s old" if stale is not None else ""),
            run_id=journal.run_id,
            entries=len(journal),
            staleness_seconds=stale,
        )
    return journal
