"""Parallel execution layer for simulation fan-out.

Every headline quantity in the paper is an embarrassingly parallel
aggregate: Figures 10/11 average twenty independent seeds and Figures
12-15 sweep ``Tr``/``N`` grids.  This package turns each of those unit
simulations into a :class:`SimulationJob` — a hashable, serializable spec of (parameters,
seed, horizon, direction, engine) — and executes batches of them
through a :class:`ParallelRunner` that fans out over a process pool,
falls back to in-process execution when ``jobs=1`` (or when the
platform cannot spawn workers), and consults a content-addressed
on-disk :class:`ResultCache` so repeated figure runs never recompute
a completed simulation.

Resilience layer (practicing what the paper preaches): the runner
retries lost work with deterministically-jittered exponential backoff
instead of lockstep re-attempts, enforces per-job deadlines on every
path (pool *and* in-process fallback), accounts for each submitted
job exactly once in a :class:`RunReport`, journals completed jobs to
a :class:`CheckpointJournal` (``ParallelRunner(checkpoint=True)``, the
one owner of the journal's lifecycle) so killed runs resume where they
stopped, and treats the cache as self-repairing (best-effort writes,
corrupt-entry quarantine).  :class:`FaultPlan` is the deterministic
chaos harness the test suite drives through all of it.

Determinism guarantee: a job's result depends only on the job spec.
Each worker derives the same per-router RNG streams the serial path
does, and the runner restores submission order after the gather, so
``jobs=4`` is byte-identical to ``jobs=1`` (asserted in
``tests/test_parallel_runner.py``) — and injected faults, retries,
fallbacks and resumes preserve that identity (asserted in
``tests/test_parallel_faults.py``).
"""

from .cache import DEFAULT_CACHE_DIR, ResultCache
from .checkpoint import DEFAULT_CHECKPOINT_DIR, CheckpointJournal
from .claims import DEFAULT_CLAIM_TTL, Claim, ClaimRegistry
from .faults import (
    FAULT_KINDS,
    SERVE_WORKER_ENV,
    DeterministicInjectedError,
    FaultPlan,
    FaultRule,
    InjectedFaultError,
    TransientInjectedError,
)
from .job import (
    ENGINES,
    MODEL_VERSION,
    JobResult,
    SimulationJob,
    batch_group_key,
    run_batch,
    run_job,
    run_jobs,
)
from .report import OUTCOMES, JobRecord, RunReport
from .runner import (
    JobTimeoutError,
    ParallelRunner,
    RunnerStats,
    deterministic_jitter,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "DEFAULT_CHECKPOINT_DIR",
    "DEFAULT_CLAIM_TTL",
    "ENGINES",
    "FAULT_KINDS",
    "MODEL_VERSION",
    "OUTCOMES",
    "SERVE_WORKER_ENV",
    "CheckpointJournal",
    "Claim",
    "ClaimRegistry",
    "DeterministicInjectedError",
    "FaultPlan",
    "FaultRule",
    "InjectedFaultError",
    "JobRecord",
    "JobResult",
    "JobTimeoutError",
    "ParallelRunner",
    "ResultCache",
    "RunReport",
    "RunnerStats",
    "SimulationJob",
    "TransientInjectedError",
    "batch_group_key",
    "deterministic_jitter",
    "run_batch",
    "run_job",
    "run_jobs",
]
