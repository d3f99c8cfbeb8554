"""Pluggable dispatchers: where a batch of jobs actually executes.

The campaign layer (and the sweep helpers) speak one interface —
:class:`Dispatcher`, ``run(specs) -> list[JobResult]`` in spec order —
and two implementations provide it:

* :class:`LocalDispatcher` wraps the PR-1/2
  :class:`~repro.parallel.ParallelRunner`: a process pool (or
  in-process execution) on this host, with the runner's full
  deadline/retry/cache/checkpoint machinery available.
* :class:`ServeDispatcher` fans batches out to one or more PR-7 serve
  endpoints over HTTP: chunks of specs are posted to ``/v1/sweep``
  through per-endpoint worker threads (bounded in-flight requests per
  endpoint), honoring the server's deterministic ``Retry-After``
  backpressure via the client's retry support, and failing fast on a
  dead endpoint (client-side connect timeout) by re-queueing its
  chunks for the surviving endpoints.

Both return results **in spec order** and byte-identical to each
other — the server computes with the same ``run_job`` the local pool
does, and the response payload embeds the same canonical
:class:`~repro.parallel.JobResult` serialization the cache uses.
Dispatchers execute; they do not own campaign-level caching or
journaling (the orchestrator in :mod:`repro.campaign.run` does), but
:class:`LocalDispatcher` accepts a cache/checkpoint so the pre-campaign
sweep call sites keep their exact behavior behind the new interface.
"""

from __future__ import annotations

import http.client
import queue
import threading
from dataclasses import dataclass, field
from typing import Sequence

from ..obs import obs
from ..parallel import (
    CheckpointJournal,
    FaultPlan,
    JobResult,
    ParallelRunner,
    ResultCache,
    SimulationJob,
)

__all__ = [
    "Dispatcher",
    "DispatchError",
    "LocalDispatcher",
    "ServeDispatcher",
    "parse_endpoints",
]


class DispatchError(RuntimeError):
    """A dispatcher could not obtain results for a batch."""


class Dispatcher:
    """The execution interface campaigns and sweeps run through."""

    def run(self, specs: Sequence[SimulationJob]) -> list[JobResult]:
        """Execute every spec; results come back in spec order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any held connections/pools (idempotent)."""

    def describe(self) -> str:
        """One human-readable word-or-two for progress lines."""
        return type(self).__name__

    def __enter__(self) -> "Dispatcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


@dataclass
class LocalDispatcher(Dispatcher):
    """Execute on this host through a :class:`ParallelRunner`.

    A fresh runner is built per :meth:`run` call (exactly what the
    serving layer does), so per-batch stats and reports never race;
    the most recent runner stays reachable as :attr:`runner` for
    callers that read ``stats``/``report`` afterwards.
    """

    jobs: int = 1
    cache: ResultCache | None = None
    checkpoint: CheckpointJournal | None = None
    timeout: float | None = None
    retries: int = 1
    on_error: str = "raise"
    chunk_size: int | None = None
    faults: FaultPlan | None = None
    runner: ParallelRunner | None = field(default=None, init=False, repr=False)

    def run(self, specs: Sequence[SimulationJob]) -> list[JobResult]:
        self.runner = ParallelRunner(
            jobs=self.jobs,
            cache=self.cache,
            checkpoint=self.checkpoint,
            timeout=self.timeout,
            retries=self.retries,
            on_error=self.on_error,
            chunk_size=self.chunk_size,
            faults=self.faults,
        )
        return self.runner.run(specs)

    @property
    def report(self):
        """The most recent run's per-job ledger (None before a run)."""
        return self.runner.report if self.runner is not None else None

    @property
    def stats(self):
        return self.runner.stats if self.runner is not None else None

    def describe(self) -> str:
        return f"local(jobs={self.jobs})"


def parse_endpoints(text: str) -> tuple[tuple[str, int], ...]:
    """Parse ``host:port[,host:port...]`` into endpoint tuples."""
    endpoints = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        host, sep, port = piece.rpartition(":")
        if not sep or not port.isdigit():
            raise ValueError(
                f"endpoint must look like host:port; got {piece!r}"
            )
        endpoints.append((host or "127.0.0.1", int(port)))
    if not endpoints:
        raise ValueError("need at least one endpoint (host:port)")
    return tuple(endpoints)


@dataclass
class ServeDispatcher(Dispatcher):
    """Fan batches out to one or more serve endpoints over HTTP.

    Parameters
    ----------
    endpoints:
        ``(host, port)`` tuples of running serve instances (single
        process or prefork fleets — the dispatcher cannot tell and
        does not care).
    max_inflight:
        Concurrent requests *per endpoint* (worker threads each
        holding one keep-alive connection).  Bounds how hard one
        campaign shard leans on one fleet.
    batch_size:
        Specs per ``/v1/sweep`` request.  Stay well under the server's
        ``MAX_SWEEP_JOBS`` guard; smaller batches spread better across
        a fleet's workers.
    timeout:
        Client read timeout per request, seconds.  Must comfortably
        exceed the server's expected compute time for one batch.
    connect_timeout:
        Client connect timeout, seconds — the fail-fast knob: a dead
        endpoint surfaces as a connection error in this many seconds
        instead of hanging a shard for ``timeout``.
    retries:
        Retry-After retries per request (429/503 backpressure is
        absorbed on the server's own deterministic schedule).
    max_chunk_attempts:
        Times one chunk may be re-queued (endpoint death, exhausted
        backpressure retries) before the batch fails.  Defaults to
        ``2 * len(endpoints)``.
    """

    endpoints: tuple[tuple[str, int], ...] = (("127.0.0.1", 8793),)
    max_inflight: int = 2
    batch_size: int = 64
    timeout: float = 300.0
    connect_timeout: float = 5.0
    retries: int = 3
    max_chunk_attempts: int | None = None
    requests: int = field(default=0, init=False)
    requeued: int = field(default=0, init=False)
    retried: int = field(default=0, init=False)
    dead_endpoints: set = field(default_factory=set, init=False)

    def __post_init__(self) -> None:
        self.endpoints = tuple(
            (str(host), int(port)) for host, port in self.endpoints
        )
        if not self.endpoints:
            raise ValueError("need at least one endpoint")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.timeout <= 0 or self.connect_timeout <= 0:
            raise ValueError("timeouts must be positive")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.max_chunk_attempts is None:
            self.max_chunk_attempts = 2 * len(self.endpoints)
        if self.max_chunk_attempts < 1:
            raise ValueError("max_chunk_attempts must be >= 1")

    def describe(self) -> str:
        hosts = ",".join(f"{h}:{p}" for h, p in self.endpoints)
        return f"serve({hosts})"

    # -- the fan-out ----------------------------------------------------------

    def run(self, specs: Sequence[SimulationJob]) -> list[JobResult]:
        specs = list(specs)
        if not specs:
            return []
        chunks: list[tuple[int, list[SimulationJob]]] = [
            (start, specs[start : start + self.batch_size])
            for start in range(0, len(specs), self.batch_size)
        ]
        results: list[JobResult | None] = [None] * len(specs)
        errors: list[BaseException] = []
        lock = threading.Lock()
        pending: queue.Queue = queue.Queue()
        for start, chunk in chunks:
            pending.put((start, chunk, 0))
        state = {"remaining": len(chunks)}

        def resolve(start: int, chunk, outcomes) -> None:
            with lock:
                for offset, result in enumerate(outcomes):
                    results[start + offset] = result
                state["remaining"] -= 1

        def give_up(error: BaseException) -> None:
            with lock:
                errors.append(error)
                state["remaining"] -= 1

        def requeue(start, chunk, attempts, error) -> bool:
            """Back on the queue for another endpoint; False = spent."""
            if attempts + 1 >= self.max_chunk_attempts:
                give_up(error)
                return False
            with lock:
                self.requeued += 1
            pending.put((start, chunk, attempts + 1))
            return True

        def worker(host: str, port: int) -> None:
            # One client (and keep-alive connection) per worker thread;
            # ServeClient is deliberately not thread-safe.
            from ..serve.client import ServeClient

            client = ServeClient(
                host,
                port,
                timeout=self.timeout,
                connect_timeout=self.connect_timeout,
                retries=self.retries,
            )
            try:
                while True:
                    with lock:
                        if state["remaining"] <= 0 or errors:
                            return
                    try:
                        start, chunk, attempts = pending.get(timeout=0.05)
                    except queue.Empty:
                        continue
                    try:
                        response = client.sweep(
                            [spec.to_dict() for spec in chunk]
                        )
                    except (OSError, http.client.HTTPException) as error:
                        # Connect refused/timed out, read timed out, or
                        # the peer vanished: this endpoint is suspect.
                        # Re-queue the chunk for the survivors and stop
                        # using the endpoint — fail fast, never hang a
                        # shard on a dead host.
                        requeue(start, chunk, attempts, error)
                        with lock:
                            self.dead_endpoints.add((host, port))
                        obs().emit(
                            "campaign.endpoint_down",
                            f"endpoint {host}:{port} failed "
                            f"({type(error).__name__}); re-queueing its chunk",
                            endpoint=f"{host}:{port}",
                            error=repr(error),
                        )
                        return
                    with lock:
                        self.requests += 1
                        self.retried = self.retried + client.retried
                    client.retried = 0
                    if response.status in (429, 503):
                        # Backpressure outlasted the client's
                        # Retry-After budget: the endpoint is alive but
                        # saturated; let another slot try later.
                        requeue(
                            start,
                            chunk,
                            attempts,
                            DispatchError(
                                f"endpoint {host}:{port} still shedding "
                                f"({response.status}) after "
                                f"{self.retries} Retry-After retries"
                            ),
                        )
                        continue
                    try:
                        outcomes = self._parse_sweep(chunk, response)
                    except DispatchError as error:
                        give_up(error)
                        continue
                    resolve(start, chunk, outcomes)
            finally:
                client.close()

        threads = [
            threading.Thread(
                target=worker,
                args=(host, port),
                name=f"campaign-dispatch-{host}:{port}-{slot}",
                daemon=True,
            )
            for host, port in self.endpoints
            for slot in range(self.max_inflight)
        ]
        with obs().span(
            "campaign.dispatch",
            specs=len(specs),
            chunks=len(chunks),
            endpoints=len(self.endpoints),
        ):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]
        missing = sum(1 for r in results if r is None)
        if missing:
            raise DispatchError(
                f"{missing} job(s) were never dispatched — every endpoint "
                f"of {self.describe()} failed"
            )
        return results  # type: ignore[return-value]  # every slot is filled

    def _parse_sweep(self, chunk, response) -> list[JobResult]:
        """Decode and verify one /v1/sweep response for ``chunk``."""
        if response.status != 200:
            raise DispatchError(
                f"sweep request failed with {response.status}: "
                f"{response.body[:200]!r}"
            )
        try:
            payload = response.json()
            items = payload["results"]
        except (ValueError, KeyError, TypeError):
            raise DispatchError("sweep response is not valid result JSON")
        if not isinstance(items, list) or len(items) != len(chunk):
            raise DispatchError(
                f"sweep response carries {len(items) if isinstance(items, list) else '?'} "
                f"result(s) for a {len(chunk)}-spec request"
            )
        outcomes = []
        for spec, item in zip(chunk, items):
            try:
                if item["key"] != spec.cache_key():
                    raise DispatchError(
                        f"sweep response key {item['key'][:12]} does not "
                        f"match spec {spec.cache_key()[:12]} — endpoint is "
                        "running a different model version?"
                    )
                outcomes.append(JobResult.from_dict(item["result"]))
            except (KeyError, TypeError, ValueError):
                raise DispatchError("malformed result entry in sweep response")
        return outcomes
