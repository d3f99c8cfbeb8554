"""Deterministic fault injection for the parallel layer.

The paper's core lesson is that periodic distributed systems drift
into correlated failure unless enough randomness is injected; the
mirror-image engineering lesson is that a fault-tolerance claim is
only credible under an adversarial fault model.  This module is that
adversary: a :class:`FaultPlan` is a frozen, picklable, *seed-free*
description of exactly which jobs misbehave, how, and on which
attempt — so a chaos test is reproducible run-to-run and the injected
failures can never change the science, only exercise the recovery
paths around it.

A plan threads explicitly through the execution stack —
``run_job(job, faults=plan, attempt=n)``, ``ParallelRunner(faults=…)``
and ``ResultCache(faults=…)`` — there is no global switch and no
monkey-patching, so production runs (``faults=None``) pay nothing.

Fault kinds
-----------
``transient``
    Raise :class:`TransientInjectedError` while ``attempt <
    attempts`` — models a flaky dependency that heals on retry.
``deterministic``
    Raise :class:`DeterministicInjectedError` (a ``ValueError``) on
    every attempt — models a bad job spec that fails identically
    everywhere and must *not* be retried.
``crash``
    Hard-kill the worker process (``os._exit``) — models an OOM kill;
    surfaces as ``BrokenProcessPool`` in the parent.  Outside a pool
    worker the rule is inert, so the in-process fallback recovers.
``hang``
    Sleep ``delay`` seconds while ``attempt < attempts`` — models a
    wedged job; recovery requires an enforced deadline.
``cache_write_error``
    Make :meth:`ResultCache.put` fail with ``OSError`` — models a
    full or read-only disk.
``cache_corrupt``
    Truncate the cache entry right after it is written — models a
    torn write / bit rot; recovery requires quarantine-and-recompute.
``serve_crash``
    Hard-kill a prefork *serve worker* mid-request (before the job
    executes) — models a worker process dying under load; the
    supervisor must respawn it and the claim protocol must recover
    the orphaned work.  Only fires inside a supervised worker
    (``REPRO_SERVE_WORKER=1``), so in-process server harnesses are
    safe, and at most ``attempts`` times across *all* workers and
    respawns (marker-file accounting — see below).
``serve_hang``
    Sleep ``delay`` seconds in the serving path before executing —
    models a slow worker; recovery requires the request deadline and
    claim-heartbeat TTL.
``claim_orphan``
    Make the server plant an ownerless claim record for the job
    before acquiring — the on-disk shape a claimant leaves when it
    dies before its first heartbeat; exercises stale-claim takeover.

The serving-path kinds differ from the pool kinds in one mechanical
respect: a plan reaches every prefork worker (via the config
environment), workers are *respawned* after crashes, and the plan
itself is frozen — so "fire once" cannot live in process state.
Those rules account their attempts with ``O_CREAT|O_EXCL`` marker
files in a shared ``state_dir`` (the serving layer passes a directory
next to its claim records): exactly one process wins each
``(kind, seed, n)`` marker, across crashes and respawns.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "FAULT_KINDS",
    "SERVE_WORKER_ENV",
    "DeterministicInjectedError",
    "FaultPlan",
    "FaultRule",
    "InjectedFaultError",
    "TransientInjectedError",
]

FAULT_KINDS = (
    "transient",
    "deterministic",
    "crash",
    "hang",
    "cache_write_error",
    "cache_corrupt",
    "serve_crash",
    "serve_hang",
    "claim_orphan",
)

#: Set to ``"1"`` by the prefork supervisor in each worker's
#: environment; ``serve_crash`` only fires when it is present, so an
#: in-process :class:`~repro.serve.lifecycle.BackgroundServer` can run
#: chaos plans without killing the test process.
SERVE_WORKER_ENV = "REPRO_SERVE_WORKER"

#: Exit status of a crash-injected worker (easy to spot in core dumps
#: and CI logs; any nonzero value breaks the pool identically).
CRASH_EXIT_STATUS = 83


class InjectedFaultError(RuntimeError):
    """Base class of every exception a :class:`FaultPlan` raises."""


class TransientInjectedError(InjectedFaultError):
    """An injected failure that heals on retry."""


class DeterministicInjectedError(ValueError):
    """An injected failure that reproduces on every attempt.

    Subclasses ``ValueError`` on purpose: the runner's retry policy
    treats ``ValueError``/``TypeError`` as deterministic spec bugs and
    must fail fast instead of retrying them.
    """


def _in_pool_worker() -> bool:
    """True when running inside a spawned/forked worker process."""
    return multiprocessing.parent_process() is not None


def _in_serve_worker() -> bool:
    """True when running inside a supervised prefork serve worker."""
    return os.environ.get(SERVE_WORKER_ENV) == "1"


@dataclass(frozen=True)
class FaultRule:
    """One deterministic misbehaviour.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    seeds:
        Job seeds the rule applies to; empty means every job.
    attempts:
        Fire while ``attempt < attempts`` (attempt 0 is the first
        execution; retries count up).  Cache rules ignore this.
    delay:
        Sleep length in seconds for ``hang`` rules.
    """

    kind: str
    seeds: tuple[int, ...] = ()
    attempts: int = 1
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(FAULT_KINDS)}"
            )
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.delay < 0:
            raise ValueError("delay must be >= 0")

    def matches(self, job, attempt: int) -> bool:
        """Whether the rule fires for this job on this attempt."""
        if self.seeds and job.seed not in self.seeds:
            return False
        return attempt < self.attempts

    def to_dict(self) -> dict:
        """JSON-safe form (for the supervisor's worker environment)."""
        return {
            "kind": self.kind,
            "seeds": list(self.seeds),
            "attempts": self.attempts,
            "delay": self.delay,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultRule":
        return cls(
            kind=data["kind"],
            seeds=tuple(data.get("seeds", ())),
            attempts=int(data.get("attempts", 1)),
            delay=float(data.get("delay", 0.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A picklable bundle of :class:`FaultRule` — the chaos schedule.

    Frozen and stateless: the same plan produces the same faults in
    the parent process, in every pool worker, and on every rerun.
    Build plans with the classmethod helpers, e.g.::

        plan = FaultPlan.of(
            FaultPlan.transient(seeds=(1, 2)),
            FaultPlan.hang(seeds=(3,), delay=5.0),
        )
    """

    rules: tuple[FaultRule, ...] = ()

    @classmethod
    def of(cls, *rules: FaultRule) -> "FaultPlan":
        return cls(rules=tuple(rules))

    # -- rule constructors ---------------------------------------------------

    @staticmethod
    def transient(seeds: tuple[int, ...] = (), attempts: int = 1) -> FaultRule:
        """Fail the first ``attempts`` executions, then heal."""
        return FaultRule(kind="transient", seeds=seeds, attempts=attempts)

    @staticmethod
    def deterministic(seeds: tuple[int, ...] = ()) -> FaultRule:
        """Fail every execution with a ValueError (a 'bad spec')."""
        return FaultRule(kind="deterministic", seeds=seeds, attempts=10**9)

    @staticmethod
    def crash(seeds: tuple[int, ...] = (), attempts: int = 1) -> FaultRule:
        """Kill the pool worker outright (inert outside a worker)."""
        return FaultRule(kind="crash", seeds=seeds, attempts=attempts)

    @staticmethod
    def hang(
        seeds: tuple[int, ...] = (), delay: float = 60.0, attempts: int = 1
    ) -> FaultRule:
        """Sleep ``delay`` seconds before running, for ``attempts`` tries."""
        return FaultRule(kind="hang", seeds=seeds, attempts=attempts, delay=delay)

    @staticmethod
    def cache_write_error(seeds: tuple[int, ...] = ()) -> FaultRule:
        """Make every matching ``ResultCache.put`` raise OSError."""
        return FaultRule(kind="cache_write_error", seeds=seeds)

    @staticmethod
    def cache_corrupt(seeds: tuple[int, ...] = ()) -> FaultRule:
        """Corrupt the on-disk entry right after a matching put."""
        return FaultRule(kind="cache_corrupt", seeds=seeds)

    @staticmethod
    def serve_crash(seeds: tuple[int, ...] = (), attempts: int = 1) -> FaultRule:
        """Kill a supervised serve worker mid-request, ``attempts`` times
        total across every worker and respawn (marker-file accounted)."""
        return FaultRule(kind="serve_crash", seeds=seeds, attempts=attempts)

    @staticmethod
    def serve_hang(
        seeds: tuple[int, ...] = (), delay: float = 60.0, attempts: int = 1
    ) -> FaultRule:
        """Stall the serving path ``delay`` seconds before executing."""
        return FaultRule(
            kind="serve_hang", seeds=seeds, attempts=attempts, delay=delay
        )

    @staticmethod
    def claim_orphan(seeds: tuple[int, ...] = (), attempts: int = 1) -> FaultRule:
        """Plant an ownerless claim record before the server acquires."""
        return FaultRule(kind="claim_orphan", seeds=seeds, attempts=attempts)

    # -- serialization (for the supervisor's worker environment) -------------

    def to_dict(self) -> dict:
        """JSON-safe form; inverse of :meth:`from_dict`."""
        return {"rules": [rule.to_dict() for rule in self.rules]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            rules=tuple(
                FaultRule.from_dict(rule) for rule in data.get("rules", ())
            )
        )

    # -- hooks the execution layer calls -------------------------------------

    def on_job(self, job, attempt: int) -> None:
        """Called by :func:`repro.parallel.job.run_job` before executing.

        May sleep (``hang``), raise (``transient``/``deterministic``)
        or kill the current worker process (``crash``).
        """
        for rule in self.rules:
            if not rule.matches(job, attempt):
                continue
            if rule.kind == "hang":
                time.sleep(rule.delay)
            elif rule.kind == "transient":
                raise TransientInjectedError(
                    f"injected transient fault (seed={job.seed}, attempt={attempt})"
                )
            elif rule.kind == "deterministic":
                raise DeterministicInjectedError(
                    f"injected deterministic fault (seed={job.seed})"
                )
            elif rule.kind == "crash" and _in_pool_worker():
                # A real worker death, not an exception: the parent
                # sees BrokenProcessPool exactly as with an OOM kill.
                os._exit(CRASH_EXIT_STATUS)

    def on_cache_put(self, job) -> None:
        """Called by ``ResultCache.put`` before writing; may raise OSError."""
        for rule in self.rules:
            if rule.kind == "cache_write_error" and rule.matches(job, 0):
                raise OSError(28, "injected: no space left on device")

    def corrupts_entry(self, job) -> bool:
        """Whether ``ResultCache.put`` should corrupt this entry after writing."""
        return any(
            rule.kind == "cache_corrupt" and rule.matches(job, 0)
            for rule in self.rules
        )

    # -- serving-path hooks ---------------------------------------------------

    @staticmethod
    def _claim_marker(
        state_dir: str | os.PathLike, kind: str, seed: int, attempts: int
    ) -> bool:
        """Atomically win the right to fire one ``(kind, seed)`` attempt.

        Serve rules must fire a bounded number of times across *all*
        workers and respawns even though the plan object is frozen, so
        attempt state lives on disk: ``attempts`` marker slots per
        ``(kind, seed)``, each claimed by exactly one process via
        ``O_CREAT | O_EXCL``.  Returns True when a slot was won.
        """
        root = Path(state_dir)
        root.mkdir(parents=True, exist_ok=True)
        for n in range(attempts):
            try:
                fd = os.open(
                    root / f"{kind}.{seed}.{n}",
                    os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                )
            except FileExistsError:
                continue
            os.close(fd)
            return True
        return False

    def on_serve_job(self, job, state_dir: str | os.PathLike | None) -> None:
        """Called by the serving layer before executing a job as leader.

        ``serve_hang`` sleeps ``delay`` seconds; ``serve_crash``
        hard-kills the worker process — but only inside a supervised
        prefork worker (:data:`SERVE_WORKER_ENV`), so in-process test
        harnesses survive their own chaos plans.
        """
        if state_dir is None:
            return
        for rule in self.rules:
            if rule.seeds and job.seed not in rule.seeds:
                continue
            if rule.kind == "serve_hang":
                if self._claim_marker(
                    state_dir, rule.kind, job.seed, rule.attempts
                ):
                    time.sleep(rule.delay)
            elif rule.kind == "serve_crash" and _in_serve_worker():
                if self._claim_marker(
                    state_dir, rule.kind, job.seed, rule.attempts
                ):
                    os._exit(CRASH_EXIT_STATUS)

    def wants_claim_orphan(
        self, job, state_dir: str | os.PathLike | None
    ) -> bool:
        """Whether the server should plant an orphaned claim record
        for this job before acquiring (at most ``attempts`` times per
        matching rule, marker-file accounted)."""
        if state_dir is None:
            return False
        for rule in self.rules:
            if rule.kind != "claim_orphan":
                continue
            if rule.seeds and job.seed not in rule.seeds:
                continue
            if self._claim_marker(state_dir, rule.kind, job.seed, rule.attempts):
                return True
        return False
