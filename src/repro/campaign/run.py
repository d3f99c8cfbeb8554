"""The campaign orchestrator: spec -> shard -> dispatcher -> cache.

One :func:`run_campaign` call executes one shard of one campaign:

1. the shard's jobs stream lazily out of the spec (canonical order,
   filtered by the content-hash shard map) in bounded chunks, so a
   million-point campaign never materializes;
2. each chunk splits into jobs already in the
   :class:`~repro.parallel.ResultCache` (skip) and missing ones;
3. only the missing jobs go to the :class:`~repro.campaign.dispatch.
   Dispatcher` — local pool or serve fleet, the orchestrator cannot
   tell;
4. the chunk's fresh results land in one durable commit before the
   next chunk, :meth:`~repro.parallel.ResultCache.put_many` (one
   fsynced pack file, or one ``<key>.json`` when a single result
   retires), so a SIGKILL at any moment loses at most one in-flight
   chunk of compute and zero committed results.

Resume is therefore free: re-run the same command and step 2 skips
everything already committed — only missing hashes execute, and the
resumed study is byte-identical to an uninterrupted one.  A job
counts as retired only once its entry landed, so a commit that drops
entries leaves the shard incomplete.  A per-shard marker file under
the checkpoint root exists from the start of a run until the whole
shard is retired; a surviving marker *means* an interrupted shard.

The orchestrator owns caching; dispatchers only execute (they hold
no cache or journal — double-commit is a bug, not a belt-and-braces).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..obs import obs
from ..parallel import DEFAULT_CHECKPOINT_DIR, ResultCache
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
    "shard_marker",
]

#: Jobs per orchestrator chunk: the commit granularity (a kill loses
#: at most one chunk of compute) and the dispatch batch handed to the
#: dispatcher in one call.
DEFAULT_CHUNK_SIZE = 256


def shard_marker(
    spec: CampaignSpec,
    shard: int,
    num_shards: int,
    root: str | os.PathLike | None = None,
) -> Path:
    """The interrupted-shard marker for one shard of one campaign:
    ``<run-id>.shard`` under ``root`` (``results/checkpoints/``).

    The run id hashes the canonical spec dict + model version + shard
    coordinates, so any host resuming ``shard K/M`` of the same spec
    finds the same file — and a different grid, seed range, or
    sharding can never alias into it.
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
    run_id = hashlib.sha256(descriptor.encode("utf-8")).hexdigest()[:16]
    directory = Path(root) if root is not None else DEFAULT_CHECKPOINT_DIR
    return directory / f"{run_id}.shard"


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
            "complete": self.complete,
            "dispatcher": self.dispatcher,
        }

    def summary_line(self) -> str:
        """One grep-able line; the kill-resume test parses this."""
        return (
            f"campaign {self.campaign_id} name={self.name} "
            f"shard={self.shard}/{self.num_shards} total={self.total} "
            f"executed={self.executed} cached={self.cached} "
            f"complete={str(self.complete).lower()}"
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
    # The marker goes down before the first commit and stays until
    # every job is retired: a kill or a short commit leaves it behind.
    marker = shard_marker(spec, shard, num_shards, checkpoint_root)
    marker.parent.mkdir(parents=True, exist_ok=True)
    marker.touch()
    progress.start()
    with obs().span(
        "campaign.run",
        campaign=spec.campaign_id(),
        shard=shard,
        num_shards=num_shards,
        total=total,
        dispatcher=dispatcher.describe(),
    ):
        chunk: list = []
        for job in iter_shard(spec, shard, num_shards):
            chunk.append(job)
            if len(chunk) >= chunk_size:
                _retire_chunk(chunk, dispatcher, cache, progress, summary)
                chunk = []
        if chunk:
            _retire_chunk(chunk, dispatcher, cache, progress, summary)
    summary.complete = progress.done == total
    if summary.complete:
        marker.unlink(missing_ok=True)
    progress.finish()
    return summary


def _retire_chunk(
    chunk: list,
    dispatcher: Dispatcher,
    cache: ResultCache,
    progress: CampaignProgress,
    summary: ShardRun,
) -> None:
    """Retire one chunk: cache hits, then dispatch, then one commit."""
    todo = [job for job in chunk if cache.get(job) is None]
    fresh = list(zip(todo, dispatcher.run(todo))) if todo else []
    # Only what the commit landed is retired: a dropped entry leaves
    # the shard incomplete and is executed again by the next run.
    executed = cache.put_many(fresh) if fresh else 0
    hits = len(chunk) - len(todo)
    summary.executed += executed
    summary.cached += hits
    progress.advance(executed=executed, cached=hits)


def campaign_status(
    spec: CampaignSpec,
    *,
    num_shards: int = 1,
    cache: ResultCache | None = None,
    checkpoint_root: str | os.PathLike | None = None,
) -> dict:
    """How far along a campaign is, per shard, without running anything.

    One hashing pass over the grid checks each job against the cache
    (``job in cache``: an entry on disk, packed or not = retired); a
    shard whose marker survives and is not done reads ``interrupted``.
    """
    if cache is None:
        cache = ResultCache()
    shards = [{"shard": k, "jobs": 0, "done": 0} for k in range(num_shards)]
    for job in spec.jobs():
        row = shards[shard_index(job, num_shards)]
        row["jobs"] += 1
        if job in cache:
            row["done"] += 1
    for k, row in enumerate(shards):
        row["complete"] = row["done"] >= row["jobs"]
        row["interrupted"] = not row["complete"] and shard_marker(
            spec, k, num_shards, checkpoint_root
        ).is_file()
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
        f"{'shard':>6} {'jobs':>8} {'done':>8} state",
    ]
    for row in status["shards"]:
        if row["complete"]:
            state = "complete"
        elif row["interrupted"] or row["done"]:
            state = "partial"
        else:
            state = "pending"
        lines.append(f"{row['shard']:>6} {row['jobs']:>8} {row['done']:>8} {state}")
    return "\n".join(lines)
