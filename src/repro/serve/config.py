"""Configuration for the simulation server.

One frozen dataclass, validated up front, shared by the CLI, the
lifecycle runner, tests, and the loopback benchmark.  Everything here
controls *how* requests are served, never *what* a simulation
computes — the byte-identity guarantee does not depend on any of it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Settings for one :class:`~repro.serve.server.SimulationServer`.

    Parameters
    ----------
    host, port:
        Listen address.  ``port=0`` asks the OS for a free port (the
        bound port is reported by ``server.port`` once started) —
        tests and the loopback bench rely on this.
    jobs:
        Worker processes for the underlying
        :class:`~repro.parallel.ParallelRunner` (``1`` = in-process).
    queue_depth:
        Admission limit: requests in flight (queued + computing)
        beyond this are shed with ``429 Retry-After``.
    deadline:
        Per-request deadline in seconds, or None for no deadline.  A
        request whose computation outlives it gets ``504``; the
        deadline is also passed to the runner as its per-job timeout
        (the PR-2 watchdog), so a genuinely hung job cannot wedge a
        worker forever either.
    retry_after_base:
        Base of the jittered ``Retry-After`` value sent with a 429;
        the actual value is ``base * deterministic_jitter(job_key)``
        in ``[0.5, 1.5) * base`` seconds.
    drain_grace:
        Upper bound in seconds a SIGTERM-initiated drain waits for
        in-flight requests before giving up and exiting anyway.
    cache_root:
        Directory for the result cache, or None to disable caching.
    engine:
        Simulation engine used for figure requests
        (``des``/``cascade``/``batch``; see
        :func:`repro.core.engines.resolve_engine`).  Job specs posted
        to ``/v1/simulate``/``/v1/sweep`` carry their own per-spec
        engine and ignore this.  Engines are bit-identical, so served
        payloads do not depend on it.
    workers:
        Serve processes.  ``1`` (default) runs the single asyncio
        process exactly as before; ``>= 2`` selects the prefork
        supervisor (:mod:`repro.serve.supervisor`): the parent binds
        the socket once, workers inherit the fd, crashed workers are
        respawned with deterministic backoff.
    claims:
        Cross-process single-flight.  ``None`` (default) enables claim
        records automatically when ``workers >= 2`` and a cache is
        configured; True/False force it.  Claims require a cache —
        they coordinate *who publishes to it*.
    claim_ttl:
        Lease length for claim records: a claim whose heartbeat is
        older than this is stale and takeable.
    claim_poll:
        Interval at which a waiter re-polls cache + claim state while
        another process computes its job.
    restart_limit:
        Consecutive respawns of one worker slot before the supervisor
        gives up on it (guards against crash loops).
    restart_backoff:
        Base of the deterministic key-seeded backoff between respawns
        of the same worker slot: respawn ``n`` waits
        ``base * 2^n * deterministic_jitter(slot, n)`` seconds.
    faults:
        Optional :class:`~repro.parallel.FaultPlan` threaded into the
        serving path (chaos testing); ``None`` in production.
    predict_table:
        Prediction table for ``POST /v1/predict`` — a table file path
        or a bare 16-hex table id resolved under ``cache_root`` (see
        :func:`repro.predict.resolve_table`).  ``None`` (default)
        serves every predict request through the simulation fallback.
        Loading is lazy and a bad reference degrades to fallback with
        a warning, never a dead server — the surrogate is an
        optimization, not a dependency.
    """

    host: str = "127.0.0.1"
    port: int = 8793
    jobs: int = 1
    queue_depth: int = 64
    deadline: float | None = None
    retry_after_base: float = 1.0
    drain_grace: float = 30.0
    cache_root: str | None = "results/cache"
    engine: str = "cascade"
    workers: int = 1
    claims: bool | None = None
    claim_ttl: float = 10.0
    claim_poll: float = 0.05
    restart_limit: int = 5
    restart_backoff: float = 0.1
    faults: object | None = None
    predict_table: str | None = None

    def __post_init__(self) -> None:
        from ..core.engines import resolve_engine

        resolve_engine(self.engine)
        if not 0 <= self.port <= 65535:
            raise ValueError("port must be in [0, 65535]")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive")
        if self.retry_after_base <= 0:
            raise ValueError("retry_after_base must be positive")
        if self.drain_grace <= 0:
            raise ValueError("drain_grace must be positive")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.claims and self.cache_root is None:
            raise ValueError("claims require a cache_root")
        if self.claim_ttl <= 0:
            raise ValueError("claim_ttl must be positive")
        if self.claim_poll <= 0:
            raise ValueError("claim_poll must be positive")
        if self.restart_limit < 0:
            raise ValueError("restart_limit must be >= 0")
        if self.restart_backoff <= 0:
            raise ValueError("restart_backoff must be positive")

    @property
    def claims_enabled(self) -> bool:
        """Whether this config runs the cross-process claim protocol."""
        if self.claims is not None:
            return bool(self.claims) and self.cache_root is not None
        return self.workers >= 2 and self.cache_root is not None

    def to_dict(self) -> dict:
        """JSON-safe form the supervisor ships to each worker's env."""
        data = {
            "host": self.host,
            "port": self.port,
            "jobs": self.jobs,
            "queue_depth": self.queue_depth,
            "deadline": self.deadline,
            "retry_after_base": self.retry_after_base,
            "drain_grace": self.drain_grace,
            "cache_root": self.cache_root,
            "engine": self.engine,
            "workers": self.workers,
            "claims": self.claims,
            "claim_ttl": self.claim_ttl,
            "claim_poll": self.claim_poll,
            "restart_limit": self.restart_limit,
            "restart_backoff": self.restart_backoff,
            "faults": None if self.faults is None else self.faults.to_dict(),
            "predict_table": self.predict_table,
        }
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ServeConfig":
        from ..parallel import FaultPlan

        data = dict(data)
        faults = data.pop("faults", None)
        return cls(
            **data,
            faults=None if faults is None else FaultPlan.from_dict(faults),
        )
