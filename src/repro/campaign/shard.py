"""Deterministic job-space sharding keyed on the content hash.

``shard k of M`` must mean the same set of jobs on every host, with no
coordinator handing out work — that is what lets a fleet of processes
(or serve endpoints) each claim a shard of a million-point campaign by
command-line argument alone.  The assignment is a pure function of
the job's existing content hash::

    shard_index(job, M) = int(job.cache_key()[:16], 16) % M

The cache key already folds in the full spec and the model version,
so the shard map survives process restarts, host changes, and spec
re-parsing; and because SHA-256 output is uniform, shards are
balanced to within sampling noise without any knowledge of the grid's
shape.  Two hosts can never disagree about which shard owns a job,
and re-sharding with a different ``M`` is safe mid-study: the cache
and journals are keyed per *job*, not per shard, so completed work is
honored under any sharding.
"""

from __future__ import annotations

from typing import Iterator

from ..parallel.job import SimulationJob
from .spec import CampaignSpec

__all__ = ["iter_shard", "parse_shard", "shard_index", "shard_manifest"]


def shard_index(job: SimulationJob, num_shards: int) -> int:
    """Which shard (0-based) of ``num_shards`` owns this job.

    A pure function of the job's content hash — any host computes the
    same answer for the same job.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    return int(job.cache_key()[:16], 16) % num_shards


def iter_shard(
    spec: CampaignSpec, shard: int, num_shards: int
) -> Iterator[SimulationJob]:
    """Lazily yield the jobs of ``shard`` in canonical campaign order."""
    if not 0 <= shard < num_shards:
        raise ValueError(
            f"shard must be in [0, {num_shards}); got {shard}"
        )
    if num_shards == 1:
        # Every job is in shard 0: no key to hash.
        yield from spec.jobs()
        return
    for job in spec.jobs():
        if shard_index(job, num_shards) == shard:
            yield job


def shard_manifest(spec: CampaignSpec, num_shards: int) -> list[int]:
    """Job counts per shard (requires one pass over the grid)."""
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    counts = [0] * num_shards
    for job in spec.jobs():
        counts[shard_index(job, num_shards)] += 1
    return counts


def parse_shard(text: str) -> tuple[int, int]:
    """Parse the CLI's ``K/M`` spelling into ``(shard, num_shards)``.

    ``"2/8"`` -> shard 2 of 8.  ``"0/1"`` (the default) is the whole
    campaign.  Raises ``ValueError`` on malformed or out-of-range
    input so the CLI can reject it with one consistent message.
    """
    parts = text.split("/")
    if len(parts) != 2:
        raise ValueError(f"shard must look like K/M (e.g. 0/4); got {text!r}")
    try:
        shard, num_shards = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"shard must look like K/M (e.g. 0/4); got {text!r}")
    if num_shards < 1 or not 0 <= shard < num_shards:
        raise ValueError(
            f"shard K/M needs M >= 1 and 0 <= K < M; got {text!r}"
        )
    return shard, num_shards
