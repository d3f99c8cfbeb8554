"""The campaign orchestrator: spec -> shard -> dispatcher -> cache.

One :func:`run_campaign` call executes one shard of one campaign:

1. the shard's jobs stream lazily out of the spec (canonical order,
   filtered by the content-hash shard map) in bounded chunks, so a
   million-point campaign never materializes;
2. each chunk is split three ways — already in the
   :class:`~repro.parallel.ResultCache` (skip), journaled by an
   interrupted earlier run (replay into the cache), or missing
   (dispatch);
3. only the missing jobs go to the :class:`~repro.campaign.dispatch.
   Dispatcher` — local pool or serve fleet, the orchestrator cannot
   tell;
4. every fresh result is committed to the cache *and* the shard's
   :class:`~repro.parallel.CheckpointJournal` before the next chunk —
   one cache commit (:meth:`~repro.parallel.ResultCache.put_many`:
   one pack file for the chunk, or one entry file when a single
   result retires) and one journal commit (one fsync) per chunk — so
   a SIGKILL at any moment loses at most one in-flight chunk of
   compute and zero completed results.

Resume is therefore free: re-run the same command and steps 2-3 skip
everything already done — only missing hashes execute, and because
cache entries and journal lines store the same canonical result
serialization, the resumed study is byte-identical to an
uninterrupted one.  The journal is deleted only when the whole shard
is accounted for; a surviving journal *means* an interrupted shard.

The orchestrator owns caching and journaling; dispatchers only
execute.  (Campaign dispatchers are constructed without cache or
checkpoint wiring — double-commit is a bug, not a belt-and-braces.)
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

from ..obs import obs
from ..parallel import CheckpointJournal, ResultCache
from ..parallel.job import MODEL_VERSION
from .dispatch import Dispatcher, LocalDispatcher
from .progress import CampaignProgress
from .shard import iter_shard, shard_index
from .spec import CampaignSpec

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "ShardRun",
    "campaign_status",
    "format_status",
    "run_campaign",
    "shard_journal",
]

#: Jobs per orchestrator chunk: the commit granularity (a kill loses
#: at most one chunk of compute) and the dispatch batch handed to the
#: dispatcher in one call.
DEFAULT_CHUNK_SIZE = 256


def shard_journal(
    spec: CampaignSpec,
    shard: int,
    num_shards: int,
    root: str | os.PathLike | None = None,
) -> CheckpointJournal:
    """The checkpoint journal for one shard of one campaign.

    Keyed on the canonical spec dict + model version + shard
    coordinates, so any host resuming ``shard K/M`` of the same spec
    finds the same journal file — and a different grid, seed range,
    or sharding can never alias into it.
    """
    descriptor = json.dumps(
        {
            "campaign": spec.to_dict(),
            "model_version": MODEL_VERSION,
            "num_shards": num_shards,
            "shard": shard,
        },
        sort_keys=True,
    )
    return CheckpointJournal.for_key(descriptor, root)


@dataclass
class ShardRun:
    """What one :func:`run_campaign` call did, exactly once per job."""

    campaign_id: str
    name: str
    shard: int
    num_shards: int
    total: int
    executed: int = 0
    cached: int = 0
    resumed: int = 0
    complete: bool = False
    dispatcher: str = ""

    def to_dict(self) -> dict:
        return {
            "campaign_id": self.campaign_id,
            "name": self.name,
            "shard": self.shard,
            "num_shards": self.num_shards,
            "total": self.total,
            "executed": self.executed,
            "cached": self.cached,
            "resumed": self.resumed,
            "complete": self.complete,
            "dispatcher": self.dispatcher,
        }

    def summary_line(self) -> str:
        """One grep-able line; the kill-resume test parses this."""
        return (
            f"campaign {self.campaign_id} name={self.name} "
            f"shard={self.shard}/{self.num_shards} total={self.total} "
            f"executed={self.executed} cached={self.cached} "
            f"resumed={self.resumed} complete={str(self.complete).lower()}"
        )


def run_campaign(
    spec: CampaignSpec,
    *,
    shard: int = 0,
    num_shards: int = 1,
    dispatcher: Dispatcher | None = None,
    cache: ResultCache | None = None,
    checkpoint_root: str | os.PathLike | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    console: Callable[[str], None] | None = None,
) -> ShardRun:
    """Execute (or resume) one shard of a campaign; returns the ledger.

    Idempotent by construction: every job is retired exactly once
    across any number of interrupted attempts, and re-running a
    finished shard executes nothing.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if cache is None:
        cache = ResultCache()
    if dispatcher is None:
        dispatcher = LocalDispatcher()
    journal = shard_journal(spec, shard, num_shards, checkpoint_root)
    # Progress needs an exact denominator.  A single shard owns every
    # job; otherwise one counting pass hashes each job to its shard
    # (nothing is materialized or simulated).
    if num_shards == 1:
        total = spec.total_jobs
    else:
        total = sum(1 for _ in iter_shard(spec, shard, num_shards))
    summary = ShardRun(
        campaign_id=spec.campaign_id(),
        name=spec.name,
        shard=shard,
        num_shards=num_shards,
        total=total,
        dispatcher=dispatcher.describe(),
    )
    progress = CampaignProgress(
        total=total,
        label=f"{spec.name} shard {shard}/{num_shards}",
        console=console,
    )
    progress.start()
    with obs().span(
        "campaign.run",
        campaign=spec.campaign_id(),
        shard=shard,
        num_shards=num_shards,
        total=total,
        dispatcher=dispatcher.describe(),
    ):
        try:
            chunk: list = []
            for job in iter_shard(spec, shard, num_shards):
                chunk.append(job)
                if len(chunk) >= chunk_size:
                    _retire_chunk(
                        chunk, dispatcher, cache, journal, progress, summary
                    )
                    chunk = []
            if chunk:
                _retire_chunk(
                    chunk, dispatcher, cache, journal, progress, summary
                )
        except BaseException:
            # Keep the journal: everything committed so far is safe
            # and the next run resumes from it.
            journal.close()
            raise
    summary.complete = progress.done == total
    if summary.complete:
        # Full success deletes the journal — its survival is the
        # interrupted-shard marker, and every result lives in the
        # cache now.
        journal.complete()
    else:  # pragma: no cover - defensive; retire accounts every job
        journal.close()
    progress.finish()
    return summary


def _retire_chunk(
    chunk: list,
    dispatcher: Dispatcher,
    cache: ResultCache,
    journal: CheckpointJournal,
    progress: CampaignProgress,
    summary: ShardRun,
) -> None:
    """Retire one chunk: cache hits, journal replays, then dispatch."""
    todo = []
    replayed = []
    hits = 0
    for job in chunk:
        if cache.get(job) is not None:
            hits += 1
            continue
        journaled = journal.lookup(job)
        if journaled is not None:
            # An interrupted run completed this job but its cache
            # write was lost (best-effort) or the cache moved; replay
            # the journaled result into the cache so reports see it.
            replayed.append((job, journaled))
            continue
        todo.append(job)
    results = dispatcher.run(todo) if todo else []
    # None is a job censored by an on_error="censor" local run.
    fresh = [(job, result) for job, result in zip(todo, results) if result is not None]
    if replayed or fresh:
        # One cache commit for the chunk: one pack file, or one entry
        # file when the chunk retires a single result.
        cache.put_many(replayed + fresh)
    if fresh:
        # One journal commit (one fsync) for the whole chunk, after its
        # cache commit: a kill before it lands loses this chunk's
        # compute at most, and the cache entries already written still
        # count.
        journal.record(fresh)
    executed = len(fresh)
    replays = len(replayed)
    summary.executed += executed
    summary.cached += hits
    summary.resumed += replays
    progress.advance(executed=executed, cached=hits, resumed=replays)


def campaign_status(
    spec: CampaignSpec,
    *,
    num_shards: int = 1,
    cache: ResultCache | None = None,
    checkpoint_root: str | os.PathLike | None = None,
) -> dict:
    """How far along a campaign is, per shard, without running anything.

    One hashing pass over the grid checks each job against the cache
    (``job in cache``: an entry on disk, packed or not = retired) and
    counts journal-only completions (finished by an interrupted run,
    not yet replayed into the cache).
    """
    if cache is None:
        cache = ResultCache()
    journals = [
        shard_journal(spec, k, num_shards, checkpoint_root)
        for k in range(num_shards)
    ]
    shards = [
        {"shard": k, "jobs": 0, "done": 0, "journaled": 0}
        for k in range(num_shards)
    ]
    for job in spec.jobs():
        k = shard_index(job, num_shards)
        row = shards[k]
        row["jobs"] += 1
        if job in cache:
            row["done"] += 1
        elif journals[k].lookup(job) is not None:
            row["journaled"] += 1
    for row, journal in zip(shards, journals):
        row["complete"] = row["done"] >= row["jobs"]
        row["interrupted"] = journal.exists() and not row["complete"]
    done = sum(row["done"] for row in shards)
    return {
        "campaign_id": spec.campaign_id(),
        "name": spec.name,
        "model_version": MODEL_VERSION,
        "num_shards": num_shards,
        "total_jobs": spec.total_jobs,
        "done": done,
        "complete": done >= spec.total_jobs,
        "shards": shards,
    }


def format_status(status: dict) -> str:
    """Render :func:`campaign_status` output as a small console table."""
    lines = [
        f"campaign {status['campaign_id']} name={status['name']} "
        f"model={status['model_version']} "
        f"jobs={status['done']}/{status['total_jobs']} "
        f"complete={str(status['complete']).lower()}",
        f"{'shard':>6} {'jobs':>8} {'done':>8} {'journaled':>10} state",
    ]
    for row in status["shards"]:
        if row["complete"]:
            state = "complete"
        elif row["interrupted"] or row["done"] or row["journaled"]:
            state = "partial"
        else:
            state = "pending"
        lines.append(
            f"{row['shard']:>6} {row['jobs']:>8} {row['done']:>8} "
            f"{row['journaled']:>10} {state}"
        )
    return "\n".join(lines)
