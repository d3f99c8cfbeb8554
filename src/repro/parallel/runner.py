"""Fan jobs out over a process pool, deterministically and resiliently.

The runner's contract: ``run(specs)`` returns one result per spec, in
spec order, and the values are byte-identical whatever the ``jobs``
setting — each job derives its own RNG streams from its seed, workers
share no state, and ordering is restored after the gather.  Parallelism
can therefore never change science, only wall-clock.  The same holds
for every failure-handling path below: retries, fallbacks, resumes and
injected faults replay the identical pure computation, so recovery can
never change a number either — only whether it was obtained.

Scheduling is chunked: contiguous runs of pending jobs are grouped so
that one pool round-trip amortizes pickling over several simulations.
Chunks are gathered **as they complete** with a per-chunk deadline, so
one slow chunk cannot head-of-line-block the harvest of the others.

Failure policy (the part the paper would approve of):

* A chunk whose worker dies (``BrokenProcessPool``, OOM kill) or that
  exceeds its deadline is retried in-process — with the per-job
  deadline still enforced (on a watchdog thread), so a genuinely hung
  job surfaces as ``timed_out`` instead of hanging the sweep.
* Retries back off exponentially with *deterministic jitter* derived
  from the job key — the paper's own ``Tr`` lesson: simultaneous
  failures must not retry in lockstep, and seeded jitter keeps the
  schedule reproducible.
* ``retries=0`` means what it says: no retry, the first failure is
  final.  Deterministic errors (``ValueError``/``TypeError`` — a bad
  spec fails identically everywhere) are never retried at all.
* ``on_error="raise"`` (default) re-raises the first failure after
  the gather — completed work is already committed to the cache and
  checkpoint journal, so nothing is lost.  ``on_error="censor"``
  returns an empty :class:`JobResult` for failed jobs instead, so
  ensembles degrade to honest censoring rather than collapsing.

Every submitted job lands in exactly one :class:`RunReport` category
(ok / retried / cache_hit / resumed / timed_out / failed) — asserted
by the fault-injection suite in ``tests/test_parallel_faults.py``.
"""

from __future__ import annotations

import hashlib
import math
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..obs import obs
from .cache import ResultCache
from .checkpoint import CheckpointJournal
from .faults import FaultPlan
from .job import (
    JobResult,
    SimulationJob,
    kernel_groups,
    run_batch,
    run_job,
    run_jobs,
    run_jobs_observed,
)
from .report import RunReport

__all__ = [
    "JobTimeoutError",
    "ParallelRunner",
    "RunnerStats",
    "deterministic_jitter",
]

#: Backoff sleeps never exceed this many seconds, whatever the attempt.
BACKOFF_CAP = 30.0


class JobTimeoutError(TimeoutError):
    """A job exceeded its per-job deadline (pool chunk or in-process)."""


def deterministic_jitter(key: str, attempt: int) -> float:
    """Deterministic jitter factor in [0.5, 1.5) for backoff sleeps.

    Seeded from the job key and attempt number, so two runners
    retrying the same failed batch do not wake in lockstep (the
    paper's ``Tr`` prescription applied to our own retry loop) yet
    every rerun sleeps the same schedule.  Also the jitter behind the
    serving layer's ``Retry-After`` values (``repro.serve.queue``) —
    shed clients keyed by different jobs back off at different times.
    """
    digest = hashlib.sha256(f"{key}:{attempt}".encode("ascii")).digest()
    return 0.5 + int.from_bytes(digest[:8], "big") / 2**64


#: Backwards-compatible module-private alias (pre-serve spelling).
_jitter = deterministic_jitter


@dataclass
class RunnerStats:
    """Counters from the most recent :meth:`ParallelRunner.run` call."""

    submitted: int = 0
    cache_hits: int = 0
    resumed: int = 0
    executed: int = 0
    pooled: int = 0
    fallback: int = 0
    retried_chunks: int = 0
    timed_out: int = 0
    failed: int = 0
    censored: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class ParallelRunner:
    """Execute batches of :class:`SimulationJob` specs.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (the default) runs in-process with no
        pool, no pickling, and no platform requirements.
    cache:
        Optional :class:`ResultCache`; hits skip execution entirely and
        fresh results are stored back (best-effort: a full disk warns
        and continues).
    chunk_size:
        Jobs per pool task.  Defaults to spreading the batch over
        roughly four chunks per worker, so stragglers rebalance.
    timeout:
        Optional per-job deadline in seconds.  A pool chunk gets
        ``timeout * len(chunk)``; in-process (and fallback) execution
        enforces ``timeout`` per job on a watchdog thread.
    retries:
        Re-attempts after the first failure of a job (``0`` = the
        first failure is final).  A chunk lost to a worker death or
        deadline consumes one attempt for each of its jobs.
        Deterministic ``ValueError``/``TypeError`` are never retried.
    backoff_base:
        First-retry backoff in seconds; attempt ``k`` sleeps
        ``backoff_base * 2**(k-1)`` scaled by deterministic jitter in
        [0.5, 1.5).  ``0`` disables sleeping (used by tests).
    on_error:
        ``"raise"`` — after gathering (and committing every completed
        job), re-raise the first failure.  ``"censor"`` — failed jobs
        yield an empty result (reads as censored downstream), the
        report says which.
    checkpoint:
        Optional :class:`CheckpointJournal`; journaled jobs are served
        without execution (outcome ``resumed``) and every completed
        job is appended, so an interrupted run resumes where it died.
    faults:
        Optional :class:`~repro.parallel.faults.FaultPlan` — the
        deterministic chaos hook, threaded through to workers and the
        cache.  ``None`` in production.

    Pooled workers return their :class:`JobResult` objects pickled
    through the pool (``jobs == 1`` ships nothing).
    """

    jobs: int = 1
    cache: ResultCache | None = None
    chunk_size: int | None = None
    timeout: float | None = None
    retries: int = 1
    backoff_base: float = 0.1
    on_error: str = "raise"
    checkpoint: CheckpointJournal | None = None
    faults: FaultPlan | None = None
    stats: RunnerStats = field(default_factory=RunnerStats, init=False)
    report: RunReport = field(default_factory=RunReport, init=False)

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if self.on_error not in ("raise", "censor"):
            raise ValueError('on_error must be "raise" or "censor"')

    def run(self, specs: Sequence[SimulationJob]) -> list[JobResult]:
        """Execute every spec; results come back in spec order."""
        specs = list(specs)
        self.stats = RunnerStats(submitted=len(specs))
        self.report = RunReport()
        o = obs()
        try:
            with o.span("runner.run", submitted=len(specs), jobs=self.jobs):
                return self._run(specs)
        finally:
            # Mirror the per-job ledger into metrics on every exit
            # path — including an on_error="raise" escape — so the
            # RunReport and the metrics snapshot always reconcile.
            if o.enabled:
                o.metrics.merge_counts(
                    self.report.counts(), prefix="runner.jobs."
                )

    def _run(self, specs: list[SimulationJob]) -> list[JobResult]:
        results: list[JobResult | None] = [None] * len(specs)
        failures: dict[int, BaseException] = {}
        pending: list[tuple[int, SimulationJob]] = []

        for index, spec in enumerate(specs):
            key = spec.cache_key()
            if self.checkpoint is not None:
                journaled = self.checkpoint.lookup(spec)
                if journaled is not None:
                    results[index] = journaled
                    self.stats.resumed += 1
                    self.report.add(index, key, "resumed", attempts=0)
                    continue
            cached = self.cache.get(spec) if self.cache is not None else None
            if cached is not None:
                results[index] = cached
                self.stats.cache_hits += 1
                self.report.add(index, key, "cache_hit", attempts=0)
                if self.checkpoint is not None:
                    self.checkpoint.record([(spec, cached)])
                continue
            pending.append((index, spec))

        def commit(index: int, spec: SimulationJob, result: JobResult, attempts: int):
            # Commit immediately, not after the gather: if a later job
            # fails and on_error="raise", this work is already durable.
            results[index] = result
            self.stats.executed += 1
            outcome = "retried" if attempts > 1 else "ok"
            self.report.add(index, spec.cache_key(), outcome, attempts=attempts)
            if self.cache is not None:
                self.cache.put(spec, result)
            if self.checkpoint is not None:
                self.checkpoint.record([(spec, result)])

        def fail(
            index: int,
            spec: SimulationJob,
            error: BaseException,
            attempts: int,
            timed_out: bool,
        ):
            failures[index] = error
            if timed_out:
                self.stats.timed_out += 1
            else:
                self.stats.failed += 1
            self.report.add(
                index,
                spec.cache_key(),
                "timed_out" if timed_out else "failed",
                attempts=attempts,
                error=repr(error),
            )

        if pending:
            if self.jobs > 1 and len(pending) > 1:
                self._run_pooled(pending, commit, fail)
            else:
                self._run_serial(pending, commit, fail)

        if failures:
            if self.on_error == "raise":
                raise failures[min(failures)]
            for index in failures:
                # Censor: an empty first-passage record reads as "the
                # event was not observed", exactly like a run that hit
                # the horizon.  Never cached or journaled.
                results[index] = JobResult(first_passages={})
                self.stats.censored += 1
        return results  # type: ignore[return-value]  # every slot is filled

    # -- execution strategies -------------------------------------------------

    def _run_serial(
        self,
        pending: Sequence[tuple[int, SimulationJob]],
        commit: Callable,
        fail: Callable,
    ) -> None:
        # Batch-engine jobs sharing a parameter point advance through
        # one kernel (kernel_groups, the rule pool workers apply too).
        positions, groups = kernel_groups(
            [spec for _index, spec in pending], self.faults
        )
        singles = [pending[i] for i in positions]
        for group in groups:
            if len(group) == 1:
                singles.append(pending[group[0]])
            else:
                self._run_batch_group([pending[i] for i in group], commit, fail)
        singles.sort(key=lambda entry: entry[0])
        for index, spec in singles:
            self._run_single(index, spec, commit, fail, first_attempt=0)

    def _run_batch_group(
        self,
        group: list[tuple[int, SimulationJob]],
        commit: Callable,
        fail: Callable,
    ) -> None:
        """One shared kernel for a group of same-parameter batch jobs.

        Any failure — a deadline overrun of the whole group, a worker
        of one — falls back to per-job execution, which classifies and
        retries each job under the normal :meth:`_run_single` rules.
        The kernel's results are identical to the per-job path, so the
        fallback can never change a number.
        """
        o = obs()
        specs = [spec for _index, spec in group]
        span = o.span(
            "batch.run",
            key=specs[0].cache_key()[:12] if o.enabled else "",
            members=len(specs),
            engine="batch",
            where="inprocess",
        )
        with span:
            try:
                outcomes = self._execute_batch(specs)
            except Exception as error:
                span.set(outcome="fallback", error=type(error).__name__)
                o.emit(
                    "runner.batch_fallback",
                    f"batch group of {len(specs)} job(s) failed "
                    f"({type(error).__name__}); re-running per job",
                    jobs=len(specs),
                    error=repr(error),
                )
                for index, spec in group:
                    self._run_single(index, spec, commit, fail, first_attempt=0)
                return
            span.set(outcome="ok")
        for (index, spec), result in zip(group, outcomes):
            commit(index, spec, result, attempts=1)

    def _execute_batch(self, specs: list[SimulationJob]) -> list[JobResult]:
        """Run one batch group in-process, under its group deadline."""
        if self.timeout is None:
            return run_batch(specs)
        watchdog = ThreadPoolExecutor(max_workers=1)
        future = watchdog.submit(run_batch, specs)
        try:
            # The group gets the same budget its jobs would get singly.
            return future.result(timeout=self.timeout * len(specs))
        except FutureTimeoutError:
            future.cancel()
            raise JobTimeoutError(
                f"batch group of {len(specs)} job(s) exceeded its group "
                f"deadline ({self.timeout:g} s/job)"
            ) from None
        finally:
            watchdog.shutdown(wait=False)

    def _run_single(
        self,
        index: int,
        spec: SimulationJob,
        commit: Callable,
        fail: Callable,
        first_attempt: int = 0,
    ) -> None:
        """One job, in-process: deadline, retries, backoff, classification."""
        o = obs()
        key12 = spec.cache_key()[:12] if o.enabled else ""
        total_attempts = 1 + self.retries
        last_error: BaseException | None = None
        timed_out = False
        attempt = first_attempt
        while attempt < total_attempts:
            if attempt > 0:
                self._sleep_backoff(spec, attempt)
            span = o.span(
                "job.run",
                key=key12,
                seed=spec.seed,
                engine=spec.engine,
                attempt=attempt,
                where="inprocess",
            )
            with span:
                try:
                    result = self._execute(spec, attempt)
                except JobTimeoutError as error:
                    last_error, timed_out = error, True
                    span.set(outcome="timed_out")
                except (ValueError, TypeError) as error:
                    # Deterministic: a bad spec fails identically on
                    # every attempt, so retrying only burns time.
                    span.set(outcome="rejected")
                    fail(index, spec, error, attempts=attempt + 1, timed_out=False)
                    return
                except Exception as error:
                    last_error, timed_out = error, False
                    span.set(outcome="error", error=type(error).__name__)
                else:
                    span.set(outcome="ok")
                    commit(index, spec, result, attempts=attempt + 1)
                    return
            attempt += 1
        assert last_error is not None
        fail(index, spec, last_error, attempts=total_attempts, timed_out=timed_out)

    def _execute(self, spec: SimulationJob, attempt: int) -> JobResult:
        """Run one job in-process, under the per-job deadline if set."""
        if self.timeout is None:
            return run_job(spec, faults=self.faults, attempt=attempt)
        watchdog = ThreadPoolExecutor(max_workers=1)
        future = watchdog.submit(run_job, spec, self.faults, attempt)
        try:
            return future.result(timeout=self.timeout)
        except FutureTimeoutError:
            future.cancel()
            raise JobTimeoutError(
                f"job {spec.cache_key()[:12]} exceeded the {self.timeout} s "
                f"per-job deadline in-process (attempt {attempt})"
            ) from None
        finally:
            # Don't block on a hung job; the daemon-less thread ends
            # when the (finite) simulation or injected hang returns.
            watchdog.shutdown(wait=False)

    def _sleep_backoff(self, spec: SimulationJob, attempt: int) -> None:
        if self.backoff_base <= 0:
            return
        delay = self.backoff_base * 2 ** (attempt - 1)
        sleep_for = min(delay * _jitter(spec.cache_key(), attempt), BACKOFF_CAP)
        o = obs()
        with o.span("runner.backoff", attempt=attempt, seconds=sleep_for):
            time.sleep(sleep_for)
        if o.enabled:
            o.metrics.histogram("runner.backoff_seconds").observe(sleep_for)

    def _chunks(
        self, pending: Sequence[tuple[int, SimulationJob]]
    ) -> list[list[tuple[int, SimulationJob]]]:
        if self.chunk_size is not None:
            size = self.chunk_size
        else:
            size = max(1, math.ceil(len(pending) / (self.jobs * 4)))
        return [
            list(pending[start : start + size])
            for start in range(0, len(pending), size)
        ]

    def _run_pooled(
        self,
        pending: Sequence[tuple[int, SimulationJob]],
        commit: Callable,
        fail: Callable,
    ) -> None:
        o = obs()
        # Ship the observed worker entry point only when something
        # would collect its payloads; the plain path stays untouched.
        observed = o.enabled or o.profile
        chunks = self._chunks(pending)
        try:
            pool = ProcessPoolExecutor(max_workers=min(self.jobs, len(chunks)))
        except (OSError, ValueError, ImportError, NotImplementedError):
            # No process support on this platform: stay in-process,
            # with the full (untouched) retry budget.
            o.emit(
                "runner.pool_fallback",
                f"process pool unavailable; running {len(pending)} job(s) "
                "in-process",
                pending=len(pending),
            )
            self.stats.fallback += len(pending)
            self._run_serial(pending, commit, fail)
            return

        # (chunk, error, was_timeout) for every chunk lost in the pool.
        lost: list[tuple[list[tuple[int, SimulationJob]], BaseException, bool]] = []
        start = time.monotonic()
        chunk_of: dict[Future, list[tuple[int, SimulationJob]]] = {}
        # Per-chunk deadlines arm only once the chunk is actually
        # running, so queue time behind other chunks is never charged
        # against it; the batch deadline backstops a fully wedged pool.
        armed: dict[Future, float] = {}
        batch_deadline = (
            start + self.timeout * len(pending) if self.timeout is not None else None
        )

        def _expire(future: Future, message: str) -> None:
            future.cancel()
            lost.append((chunk_of[future], JobTimeoutError(message), True))

        # Per-chunk submit times (monotonic) — the worker.chunk span's
        # start minus this is the chunk's pool queueing delay.
        submitted_at: dict[Future, float] = {}
        try:
            for chunk in chunks:
                specs_only = [spec for _index, spec in chunk]
                if observed:
                    future = pool.submit(
                        run_jobs_observed,
                        specs_only,
                        self.faults,
                        0,
                        o.enabled,
                        o.profile,
                    )
                else:
                    future = pool.submit(run_jobs, specs_only, self.faults, 0)
                submitted_at[future] = time.monotonic()
                chunk_of[future] = chunk
            outstanding = set(chunk_of)
            while outstanding:
                now = time.monotonic()
                if self.timeout is not None:
                    for future in list(outstanding):
                        if future not in armed and future.running():
                            armed[future] = now + self.timeout * len(chunk_of[future])
                    for future in list(outstanding):
                        if future.done():
                            continue
                        if future in armed and now >= armed[future]:
                            _expire(
                                future,
                                f"pool chunk of {len(chunk_of[future])} job(s) "
                                f"exceeded its per-chunk deadline "
                                f"({self.timeout:g} s/job)",
                            )
                            outstanding.discard(future)
                        elif batch_deadline is not None and now >= batch_deadline:
                            _expire(
                                future,
                                f"batch exceeded its overall deadline "
                                f"({self.timeout:g} s/job over {len(pending)} jobs)",
                            )
                            outstanding.discard(future)
                if not outstanding:
                    break
                deadlines = [armed[f] for f in outstanding if f in armed]
                if batch_deadline is not None:
                    deadlines.append(batch_deadline)
                # Unarmed chunks poll at a coarse tick so arming isn't
                # starved while nothing completes.
                if self.timeout is not None and not deadlines:
                    deadlines.append(now + min(self.timeout, 0.1))
                wait_for = max(0.0, min(deadlines) - now) if deadlines else None
                done, outstanding = wait(
                    outstanding, timeout=wait_for, return_when=FIRST_COMPLETED
                )
                for future in done:
                    chunk = chunk_of[future]
                    try:
                        payload = future.result()
                    except Exception as error:
                        # Worker died (BrokenProcessPool, OOM kill),
                        # pickling trouble, or the job itself raised:
                        # the in-process fallback re-runs and
                        # re-classifies per job.
                        lost.append((chunk, error, False))
                        continue
                    if observed:
                        chunk_results, spans, profile_rows = payload
                        self._ingest_chunk(
                            o, spans, profile_rows, submitted_at.get(future)
                        )
                    else:
                        chunk_results = payload
                    for (index, spec), result in zip(chunk, chunk_results):
                        commit(index, spec, result, attempts=1)
                        self.stats.pooled += 1
        finally:
            # Timed-out workers may still be running; don't block on them.
            pool.shutdown(wait=not lost, cancel_futures=True)

        for chunk, error, was_timeout in lost:
            o.emit(
                "runner.chunk_lost",
                f"pool chunk of {len(chunk)} job(s) lost "
                f"({type(error).__name__}); "
                + ("no retry budget" if self.retries == 0 else "retrying in-process"),
                jobs=len(chunk),
                error=repr(error),
                timed_out=was_timeout,
            )
            if self.retries == 0:
                # No retry budget: the pool attempt was the only one.
                for index, spec in chunk:
                    fail(index, spec, error, attempts=1, timed_out=was_timeout)
                continue
            self.stats.retried_chunks += 1
            self.stats.fallback += len(chunk)
            for index, spec in chunk:
                # The pool attempt consumed attempt 0; the fallback
                # starts at attempt 1 with the deadline still enforced.
                self._run_single(index, spec, commit, fail, first_attempt=1)

    def _ingest_chunk(
        self,
        o,
        spans: list,
        profile_rows: list[dict],
        submitted: float | None,
    ) -> None:
        """Fold one pool chunk's shipped observability payloads in.

        Spans merge into the parent tracer (same monotonic epoch on
        Linux, so worker and parent timelines line up); the chunk's
        queueing delay — ``worker.chunk`` start minus submit time —
        lands in the ``runner.queue_delay_seconds`` histogram; profile
        rows accumulate for the post-run merge.
        """
        if spans:
            o.tracer.ingest(spans)
            if submitted is not None:
                head = next((s for s in spans if s.name == "worker.chunk"), None)
                if head is not None:
                    o.metrics.histogram("runner.queue_delay_seconds").observe(
                        max(0.0, head.t0 - submitted)
                    )
        if profile_rows:
            o.profile_rows.extend(profile_rows)
