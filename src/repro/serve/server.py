"""The asyncio simulation server: cache → coalesce → admit → pool.

A :class:`SimulationServer` turns the existing job/cache/obs stack
into a long-running JSON-over-HTTP service.  ``/v1/simulate``,
``/v1/sweep`` and the ``/v1/predict`` fallback share one compute path
(:meth:`SimulationServer._compute`); each route only parses its body
and wraps the payload bytes:

1. **Cache** — every job spec is looked up in the
   :class:`~repro.parallel.ResultCache` first, on the event loop.  A
   hit is the entry's stored result bytes, checked against their
   digest and spliced into the payload; a request whose specs all hit
   is answered there, never admitted (so never shed) and never handed
   to the executor.  Cold results are written through the cache, so a
   restarted server serves warm immediately.
2. **Coalesce** — every miss is single-flighted on its content hash
   (:class:`~repro.serve.coalesce.Coalescer`): N identical concurrent
   requests, on any route, cost one computation, and all N receive
   the same bytes.
3. **Admit** — the misses a request leads pass the bounded
   :class:`~repro.serve.queue.AdmissionQueue` as one batch; over the
   limit they are shed with ``429`` and a jittered, job-keyed
   ``Retry-After``.
4. **Pool** — the simulation runs on a
   :class:`~repro.parallel.ParallelRunner` (process pool when
   ``jobs > 1``) inside the default thread executor, keeping the
   event loop free; the per-request deadline doubles as the runner's
   watchdog timeout, so a hung job becomes ``504``, never a wedged
   loop.

Endpoints::

    POST /v1/simulate        body = SimulationJob spec dict
    POST /v1/sweep           body = {"jobs": [spec, ...]}
    POST /v1/predict         body = prediction query (n_nodes, tp, tc,
                             tr [, tolerance, seed, horizon, ...]);
                             surrogate answers bypass admission, the
                             rest fall back to the simulate path
    GET  /v1/figures/{figNN} reduced-scale figure reproduction
    GET  /healthz            liveness (always 200 while the loop runs)
    GET  /readyz             readiness (503 once draining)
    GET  /metrics            serve + obs metric snapshots (and pid) as JSON

Response bodies are canonical JSON (sorted keys, fixed separators):
the bytes for a given job are a pure function of the job spec, equal
across requests, restarts, and the direct ``ParallelRunner`` path —
the determinism acceptance test is stated in exactly those terms.
"""

from __future__ import annotations

import asyncio
import json
import os
from contextlib import suppress
from pathlib import Path
from time import monotonic as _monotonic
from time import sleep as _sleep

from ..experiments.registry import figure_ids, run_figure
from ..obs import WARNING, obs
from ..obs.metrics import MetricsRegistry
from ..parallel import (
    ClaimRegistry,
    JobResult,
    JobTimeoutError,
    ParallelRunner,
    ResultCache,
    SimulationJob,
)
from ..parallel.job import MODEL_VERSION
from .coalesce import CoalesceCancelledError, Coalescer
from .config import ServeConfig
from .http import (
    BadRequestError,
    HttpRequest,
    HttpResponse,
    PayloadTooLargeError,
    canonical_json,
    json_response,
    read_request,
    render_response,
)
from .queue import AdmissionQueue, QueueFullError

__all__ = [
    "MAX_SWEEP_JOBS",
    "SimulationServer",
    "figure_payload",
    "simulation_payload",
]

#: Upper bound on specs per sweep request (a guard, not a throughput
#: limit — the admission queue is what bounds concurrent work).
MAX_SWEEP_JOBS = 4096

#: ``GET /v1/figures/{figNN}`` is the one route matched by prefix.
FIGURE_PREFIX = "/v1/figures/"

#: The model version as the JSON string payloads splice in.
_VERSION_JSON = json.dumps(MODEL_VERSION)


def simulation_payload(job: SimulationJob, result: JobResult) -> bytes:
    """The canonical response bytes for one completed job.

    A pure function of ``(job, result)`` — the unit the byte-identity
    and coalescing guarantees are stated in.  Spliced from the job's
    and the result's memoized canonical text, so it equals
    :func:`~repro.serve.http.canonical_json` of ``{"job", "key",
    "model_version", "result"}`` byte for byte without encoding the
    payload again.
    """
    return (
        f'{{"job":{job.canonical_json()},"key":"{job.cache_key()}",'
        f'"model_version":{_VERSION_JSON},'
        f'"result":{result.canonical_json()}}}\n'
    ).encode()


def figure_payload(result) -> bytes:
    """Canonical response bytes for one FigureResult."""
    return canonical_json(
        {
            "figure_id": result.figure_id,
            "title": result.title,
            "series": {
                name: [[x, y] for x, y in points]
                for name, points in result.series.items()
            },
            "metrics": result.metrics,
            "notes": list(result.notes),
        }
    )


def _retry_response(status: int, retry_after: float, **body) -> HttpResponse:
    """A retryable answer: the hint in the body and as ``Retry-After``."""
    return json_response(
        status,
        {**body, "retry_after": round(retry_after, 3)},
        headers={"retry-after": f"{retry_after:.3f}"},
    )


class SimulationServer:
    """The serving layer over the job/cache/obs stack.

    Parameters
    ----------
    config:
        A :class:`~repro.serve.config.ServeConfig`.
    job_runner:
        Optional override: a callable ``(list[SimulationJob]) ->
        list[JobResult]`` run on the default executor.  Tests inject
        slow or counting runners here; production uses the
        :class:`~repro.parallel.ParallelRunner` + cache default.
    figure_runner:
        Optional override for figure requests: ``(figure_id) ->
        FigureResult``.  Defaults to the registry's reduced-scale
        (``fast=True``) driver.
    """

    def __init__(self, config: ServeConfig, job_runner=None, figure_runner=None):
        self.config = config
        #: The server's own always-on registry (``/metrics``).  It is
        #: deliberately separate from the global obs runtime, which
        #: stays inert/off unless the operator opted in.
        self.metrics = MetricsRegistry(enabled=True)
        self.queue = AdmissionQueue(
            config.queue_depth, config.retry_after_base, metrics=self.metrics
        )
        self.coalescer = Coalescer(metrics=self.metrics)
        self.cache = (
            ResultCache(config.cache_root) if config.cache_root is not None else None
        )
        #: Cross-process single-flight (prefork mode): claim records
        #: living next to the shared cache.  The in-process Coalescer
        #: above stays the fast path — claims only arbitrate between
        #: the leaders of *different* worker processes.
        self.claims = (
            ClaimRegistry(
                Path(config.cache_root) / "claims",
                ttl=config.claim_ttl,
                metrics=self.metrics,
                prefix="serve.claims",
            )
            if config.claims_enabled
            else None
        )
        #: Shared attempt-slot directory for serving-path fault rules
        #: (``FaultPlan._claim_marker``); None disables the hooks.
        self._fault_state = (
            Path(config.cache_root) / "fault_state"
            if config.faults is not None and config.cache_root is not None
            else None
        )
        self._job_runner = job_runner or self._run_specs
        self._figure_runner = figure_runner or self._run_figure
        #: ``path -> (method, handler)``; :data:`FIGURE_PREFIX` paths
        #: route to :meth:`_figure`.
        self._routes = {
            "/healthz": ("GET", self._healthz),
            "/readyz": ("GET", self._readyz),
            "/metrics": ("GET", self._metrics),
            "/v1/simulate": ("POST", self._simulate),
            "/v1/sweep": ("POST", self._sweep),
            "/v1/predict": ("POST", self._predict_route),
        }
        self.draining = False
        self._asgi_server: asyncio.AbstractServer | None = None
        self._stopped: asyncio.Event | None = None
        self._tasks: set[asyncio.Task] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._active_requests = 0
        #: Memoized figure payload bytes (figures are deterministic,
        #: so a computed figure never needs recomputing).
        self._figures: dict[str, bytes] = {}
        #: Prediction tier, loaded lazily on first use so a missing
        #: or stale table degrades to all-fallback, never a dead
        #: server.  ``_predict_error`` remembers why loading failed.
        self._predict = None
        self._predict_error: str | None = None
        self._predict_loaded = False

    # -- production compute defaults -----------------------------------------

    def _run_specs(self, specs: list[SimulationJob]) -> list[JobResult]:
        """Default job runner: fresh ParallelRunner, shared cache.

        A new runner per batch keeps per-batch stats/reports race-free
        when several batches compute concurrently on executor threads;
        the cache and pool settings come from the config.  The request
        deadline doubles as the runner's per-job watchdog timeout.
        """
        runner = ParallelRunner(
            jobs=self.config.jobs,
            cache=self.cache,
            timeout=self.config.deadline,
        )
        results = runner.run(specs)
        stats = runner.stats
        self.metrics.counter("serve.jobs.executed").inc(stats.executed)
        self.metrics.counter("serve.jobs.cache_hits").inc(stats.cache_hits)
        return results

    def _execute_specs(self, specs: list[SimulationJob]) -> list[JobResult]:
        """Executor-thread entry for job batches.

        Applies the serving-path fault hooks, then routes through the
        cross-process claim protocol when enabled, or straight to the
        job runner (the PR-4 single-process path, unchanged).
        """
        if self.claims is None:
            self._inject_serve_faults(specs)
            return self._job_runner(specs)
        return self._execute_claimed(specs)

    def _inject_serve_faults(self, specs) -> None:
        faults = self.config.faults
        if faults is not None and self._fault_state is not None:
            for spec in specs:
                faults.on_serve_job(spec, self._fault_state)

    def _execute_claimed(self, specs: list[SimulationJob]) -> list[JobResult]:
        """Cross-process single-flight execution of one batch.

        Runs synchronously on an executor thread.  Each round splits
        the still-unresolved specs three ways — already published
        (cache hit), claimed by us (we compute), claimed by a live
        peer (we poll) — until every spec has a result:

        * The cache is checked *before* acquiring, so a peer's publish
          resolves a waiter without ever contending for the claim.
        * :meth:`ClaimRegistry.acquire` transparently takes over stale
          claims, so a claimant that died mid-compute delays its
          waiters by at most the claim TTL — never forever.
        * Owned specs heartbeat while computing and are journaled to
          the publish log afterwards: the log is the cross-worker
          exactly-one-execution ledger the chaos suite audits.

        A *live* but wedged claimant is bounded by the request
        deadline (``JobTimeoutError`` → 504), matching the
        single-process hang story.
        """
        faults = self.config.faults
        results: dict[int, JobResult] = {}
        pending = list(enumerate(specs))
        deadline = (
            _monotonic() + self.config.deadline
            if self.config.deadline is not None
            else None
        )
        while pending:
            waiting: list[tuple[int, SimulationJob]] = []
            owned: list[tuple[int, SimulationJob]] = []
            claims = []
            for idx, spec in pending:
                cached = self.cache.get(spec)
                if cached is not None:
                    self.metrics.counter("serve.claims.peer_hits").inc()
                    self.metrics.counter("serve.jobs.cache_hits").inc()
                    results[idx] = cached
                    continue
                key = spec.cache_key()
                if faults is not None and faults.wants_claim_orphan(
                    spec, self._fault_state
                ):
                    self.claims.plant_orphan(key)
                claim = self.claims.acquire(key)
                if claim is None:
                    waiting.append((idx, spec))
                else:
                    owned.append((idx, spec))
                    claims.append(claim)
            if owned:
                try:
                    # Crash/hang injection fires *while holding the
                    # claims* — the scenario the takeover path exists
                    # for.  A killed worker leaves them orphaned.
                    self._inject_serve_faults([spec for _, spec in owned])
                    for claim in claims:
                        claim.keep_beating()
                    batch = self._job_runner([spec for _, spec in owned])
                    for (idx, spec), result in zip(owned, batch):
                        results[idx] = result
                        self.claims.record_publish(spec.cache_key())
                finally:
                    for claim in claims:
                        claim.release()
            pending = waiting
            if pending:
                if deadline is not None and _monotonic() >= deadline:
                    raise JobTimeoutError(
                        f"gave up waiting on {len(pending)} job(s) claimed "
                        f"by live peer process(es) after "
                        f"{self.config.deadline}s"
                    )
                _sleep(self.config.claim_poll)
        return [results[idx] for idx in range(len(specs))]

    def _run_figure(self, figure_id: str):
        return run_figure(
            figure_id,
            fast=True,
            jobs=self.config.jobs,
            cache=self.cache,
            engine=self.config.engine,
        )

    # -- lifecycle ------------------------------------------------------------

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the OS's choice)."""
        if self._asgi_server is not None and self._asgi_server.sockets:
            return self._asgi_server.sockets[0].getsockname()[1]
        return self.config.port

    async def start(self, sock=None) -> None:
        """Start listening — on ``config.host:port``, or on an
        already-bound socket (prefork workers inherit the parent's
        listening fd and pass it here)."""
        self._stopped = asyncio.Event()
        if sock is not None:
            self._asgi_server = await asyncio.start_server(
                self._on_connection, sock=sock
            )
        else:
            self._asgi_server = await asyncio.start_server(
                self._on_connection, self.config.host, self.config.port
            )

    def begin_drain(self) -> None:
        """Start a graceful drain (idempotent; the SIGTERM handler).

        Flips ``/readyz`` to 503, stops admitting compute work,
        finishes in-flight requests (bounded by ``drain_grace``), then
        releases :meth:`wait_stopped`.
        """
        if self.draining:
            return
        self.draining = True
        self.metrics.gauge("serve.draining").set(1)
        obs().emit(
            "serve.drain",
            f"drain started: {self._active_requests} request(s) in flight",
            inflight=self._active_requests,
        )
        task = asyncio.get_running_loop().create_task(self._drain())
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _drain(self) -> None:
        deadline = _monotonic() + self.config.drain_grace
        while _monotonic() < deadline:
            # In-flight = requests mid-handler plus unfinished compute
            # tasks (this drain task itself does not count).
            busy = self._active_requests > 0 or len(self._tasks) > 1
            if not busy:
                break
            await asyncio.sleep(0.02)
        assert self._stopped is not None
        self._stopped.set()

    async def wait_stopped(self) -> None:
        assert self._stopped is not None, "server not started"
        await self._stopped.wait()

    async def close(self) -> None:
        # Whatever the drain grace could not finish is cancelled *before*
        # the loop dies: cancelling a leader task settles its coalesced
        # followers with CoalesceCancelledError, so their handlers flush
        # a retryable 503 instead of dropping connections on the floor.
        pending = [task for task in self._tasks if not task.done()]
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        deadline = _monotonic() + 5.0
        while self._active_requests > 0 and _monotonic() < deadline:
            await asyncio.sleep(0.02)  # let handlers flush their 503s
        if self._asgi_server is not None:
            self._asgi_server.close()
            with suppress(Exception):
                await self._asgi_server.wait_closed()
        # Idle keep-alive connections are still parked in read_request;
        # cancel their handlers *while the loop lives* so each closes
        # its transport cleanly instead of being reaped by the GC.
        lingering = [task for task in self._conn_tasks if not task.done()]
        for task in lingering:
            task.cancel()
        if lingering:
            await asyncio.gather(*lingering, return_exceptions=True)

    # -- connection handling ---------------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        self.metrics.counter("serve.connections").inc()
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except BadRequestError as error:
                    status = 413 if isinstance(error, PayloadTooLargeError) else 400
                    await self._write(
                        writer, json_response(status, {"error": str(error)}), False
                    )
                    break
                if request is None:
                    break
                self._active_requests += 1
                try:
                    t0 = _monotonic()
                    response = await self._route(request)
                    self.metrics.counter("serve.requests").inc()
                    self.metrics.counter(
                        f"serve.responses.{response.status}"
                    ).inc()
                    self.metrics.histogram("serve.request_seconds").observe(
                        _monotonic() - t0
                    )
                    keep = request.keep_alive
                    await self._write(writer, response, keep)
                finally:
                    self._active_requests -= 1
                if not keep:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            # RuntimeError covers a handler reaped *after* its loop
            # closed (an idle keep-alive connection at shutdown) —
            # transport.close() would otherwise raise into the GC.
            with suppress(RuntimeError):
                writer.close()
            # A handler cancelled at stop can be waiting right here;
            # ending cancelled would make asyncio log the connection
            # task's CancelledError, so the wait ends quietly instead.
            with suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    async def _write(self, writer, response: HttpResponse, keep: bool) -> None:
        writer.write(render_response(response, keep))
        await writer.drain()

    # -- routing ---------------------------------------------------------------

    async def _route(self, request: HttpRequest) -> HttpResponse:
        o = obs()
        with o.span("serve.request", method=request.method, path=request.path) as span:
            try:
                response = await self._dispatch(request)
            except BadRequestError as error:
                response = json_response(400, {"error": str(error)})
            except Exception as error:
                # The one deliberately broad handler on the serving
                # path: any unplanned failure becomes a 500 response
                # (with the event logged) instead of a dropped
                # connection.
                self.metrics.counter("serve.errors").inc()
                o.emit(
                    "serve.error",
                    f"unhandled error serving {request.method} "
                    f"{request.path}: {error!r}",
                    level=WARNING,
                    error=repr(error),
                )
                response = json_response(
                    500, {"error": f"{type(error).__name__}: {error}"}
                )
            span.set(status=response.status)
        return response

    async def _dispatch(self, request: HttpRequest) -> HttpResponse:
        route = self._routes.get(request.path)
        if route is None and request.path.startswith(FIGURE_PREFIX):
            route = ("GET", self._figure)
        if route is None:
            return json_response(404, {"error": f"no route for {request.path}"})
        method, handler = route
        if request.method != method:
            return json_response(405, {"error": f"use {method}"})
        return await handler(request)

    async def _healthz(self, request: HttpRequest) -> HttpResponse:
        # pid identifies *which* worker answered — behind a prefork
        # fleet every fresh connection may land elsewhere.
        # model_version + loaded table id let fleet operators detect
        # stale-surrogate skew before byte-identity breaks.
        service = self._predict_service()
        return json_response(
            200,
            {
                "status": "ok",
                "pid": os.getpid(),
                "model_version": MODEL_VERSION,
                "predict_table": service.table_id if service is not None else None,
            },
        )

    async def _readyz(self, request: HttpRequest) -> HttpResponse:
        if self.draining:
            return json_response(503, {"ready": False, "draining": True})
        return json_response(200, {"ready": True, "draining": False})

    async def _metrics(self, request: HttpRequest) -> HttpResponse:
        o = obs()
        snapshot = {
            # Which worker's counters these are: behind a prefork
            # fleet every fresh connection may land elsewhere.
            "pid": os.getpid(),
            "serve": self.metrics.snapshot(),
            "obs": o.metrics.snapshot() if o.enabled else {},
        }
        return json_response(200, snapshot)

    # -- compute endpoints ------------------------------------------------------

    def _parse_spec(self, data) -> SimulationJob:
        if not isinstance(data, dict):
            raise BadRequestError("job spec must be a JSON object")
        try:
            return SimulationJob.from_dict(data)
        except (ValueError, TypeError) as error:
            raise BadRequestError(f"invalid job spec: {error}")

    async def _simulate(self, request: HttpRequest) -> HttpResponse:
        pieces = await self._compute([self._parse_spec(request.json())])
        if isinstance(pieces, HttpResponse):
            return pieces
        return HttpResponse(200, pieces[0])

    def _predict_service(self):
        """The loaded prediction tier, or None (lazy, load-once).

        Loading failures are remembered and warned about exactly once;
        the server keeps serving with every predict request routed to
        the fallback (reason ``table_error``).
        """
        if not self._predict_loaded:
            self._predict_loaded = True
            if self.config.predict_table is not None:
                from ..predict.service import PredictService
                from ..predict.tables import resolve_table

                try:
                    table = resolve_table(
                        self.config.predict_table, self.config.cache_root
                    )
                    self._predict = PredictService(table)
                except (OSError, ValueError) as error:
                    self._predict_error = str(error)
                    obs().emit(
                        "serve.predict.table_error",
                        f"prediction table "
                        f"{self.config.predict_table!r} failed to "
                        f"load; serving fallback only: {error}",
                        level=WARNING,
                        error=str(error),
                    )
        return self._predict

    async def _predict_route(self, request: HttpRequest) -> HttpResponse:
        """``POST /v1/predict``: surrogate when trustworthy, else the
        simulation fallback through :meth:`_compute`.

        A surrogate hit is computed synchronously from the in-memory
        table — it never enters the admission queue, is never shed,
        and keeps answering while the server drains.  A fallback body
        splices the ``/v1/simulate`` payload bytes verbatim, so its
        ``simulate`` member is byte-identical to what the simulation
        endpoint serves for the same job hash.
        """
        from ..predict.service import parse_query

        try:
            job, tolerance = parse_query(request.json())
        except ValueError as error:
            raise BadRequestError(str(error))
        service = self._predict_service()
        if service is None:
            verdict = (
                "fallback",
                "table_error" if self._predict_error is not None else "no_table",
                {},
            )
        else:
            verdict = service.resolve(job, tolerance)
        if verdict[0] == "surrogate":
            self.metrics.counter("serve.predict.hits").inc()
            return HttpResponse(200, canonical_json({"predict": verdict[1]}))
        _, reason, detail = verdict
        self.metrics.counter("serve.predict.fallbacks").inc()
        if reason == "out_of_range":
            self.metrics.counter("serve.predict.out_of_range").inc()
        pieces = await self._compute([job])
        if isinstance(pieces, HttpResponse):
            return pieces
        meta = {"source": "fallback", "reason": reason, **detail}
        return HttpResponse(
            200,
            b'{"predict":'
            + canonical_json(meta).rstrip(b"\n")
            + b',"simulate":'
            + pieces[0].rstrip(b"\n")
            + b"}\n",
        )

    async def _sweep(self, request: HttpRequest) -> HttpResponse:
        body = request.json()
        if not isinstance(body, dict) or not isinstance(body.get("jobs"), list):
            raise BadRequestError('sweep body must be {"jobs": [spec, ...]}')
        raw_specs = body["jobs"]
        if not raw_specs:
            raise BadRequestError("sweep needs at least one job spec")
        if len(raw_specs) > MAX_SWEEP_JOBS:
            raise BadRequestError(
                f"sweep of {len(raw_specs)} jobs exceeds the "
                f"{MAX_SWEEP_JOBS}-job limit"
            )
        pieces = await self._compute([self._parse_spec(data) for data in raw_specs])
        if isinstance(pieces, HttpResponse):
            return pieces
        # Splice the canonical per-job payloads into one canonical
        # body without re-encoding them (bytes equality with the
        # /v1/simulate payloads is part of the contract).
        joined = b",".join(piece.rstrip(b"\n") for piece in pieces)
        return HttpResponse(200, b'{"results":[' + joined + b"]}\n")

    async def _figure(self, request: HttpRequest) -> HttpResponse:
        figure_id = request.path.removeprefix(FIGURE_PREFIX)
        if figure_id not in figure_ids():
            return json_response(
                404,
                {"error": f"unknown figure {figure_id!r}", "known": figure_ids()},
            )
        cached = self._figures.get(figure_id)
        if cached is not None:
            self.metrics.counter("serve.figures.memo_hits").inc()
            return HttpResponse(200, cached)
        if self.draining:
            return self._draining_response()
        key = f"figure:{figure_id}"
        future, leader = self.coalescer.claim(key)
        if leader:
            loop = asyncio.get_running_loop()

            async def produce() -> list[bytes]:
                result = await loop.run_in_executor(
                    None, self._figure_runner, figure_id
                )
                body = figure_payload(result)
                self._figures[figure_id] = body
                return [body]

            self._lead_async([future], key, produce)
        pieces = await self._await_pieces([future], key)
        if isinstance(pieces, HttpResponse):
            return pieces
        return HttpResponse(200, pieces[0])

    # -- the one compute path: cache -> coalesce -> admit -> await ------------

    async def _compute(
        self, specs: list[SimulationJob]
    ) -> list[bytes] | HttpResponse:
        """Every job spec a request carries, as payload bytes.

        Looks each spec up in the cache first, on the event loop: a hit
        is its stored bytes spliced into the payload, and a request
        whose specs all hit is answered with no coalescer claim, no
        admission and no executor hop.  Only the misses go on: each is
        claimed once on the coalescer, the ones this request leads are
        admitted as one batch (one admission, keyed on the first led
        spec's hash) and run on the executor, and every miss's payload
        is awaited through :meth:`_await_pieces`.  Misses already in
        flight — a concurrent request on any route, or a duplicate
        within one sweep — coalesce for free.  Returns the payloads in
        spec order, or the draining / failure response.
        """
        if self.draining:
            return self._draining_response()
        pieces: list[bytes | None] = [None] * len(specs)
        if self.cache is not None:
            for i, spec in enumerate(specs):
                result = self.cache.get(spec)
                if result is not None:
                    pieces[i] = simulation_payload(spec, result)
        missed = [i for i, piece in enumerate(pieces) if piece is None]
        hits = len(specs) - len(missed)
        if hits:
            self.metrics.counter("serve.jobs.cache_hits").inc(hits)
        if not missed:
            return pieces
        claims = [self.coalescer.claim(specs[i].cache_key()) for i in missed]
        futures = [future for future, _ in claims]
        led = [i for i, (_, leader) in zip(missed, claims) if leader]
        key = specs[led[0] if led else missed[0]].cache_key()
        if led:
            led_specs = [specs[i] for i in led]
            loop = asyncio.get_running_loop()

            async def produce() -> list[bytes]:
                results = await loop.run_in_executor(
                    None, self._execute_specs, led_specs
                )
                return [
                    simulation_payload(spec, result)
                    for spec, result in zip(led_specs, results)
                ]

            self._lead_async(
                [future for future, leader in claims if leader], key, produce
            )
        computed = await self._await_pieces(futures, key)
        if isinstance(computed, HttpResponse):
            return computed
        for i, piece in zip(missed, computed):
            pieces[i] = piece
        return pieces

    def _lead_async(self, futures, admission_key: str, produce) -> None:
        """Admit then run ``produce`` as a tracked task; settle
        ``futures`` (one payload each, in order) when it finishes.

        Admission failure settles every future with the
        :class:`QueueFullError`, so a coalesced herd that arrives
        while the queue is full is shed as one — with one shared,
        deterministic ``Retry-After``.
        """
        try:
            admission = self.queue.admit(admission_key)
        except QueueFullError as error:
            for future in futures:
                if not future.done():
                    future.set_exception(error)
            return

        async def run() -> None:
            try:
                with admission:
                    payloads = await produce()
            except asyncio.CancelledError:
                # The leader task was cancelled mid-flight (drain-grace
                # expiry, shutdown).  A bare CancelledError set on the
                # shared future would unwind every follower's handler
                # and silently drop their connections — settle them
                # with a retryable error instead, then keep unwinding.
                cancelled = CoalesceCancelledError(
                    f"computation for {admission_key[:12]} was cancelled "
                    f"mid-flight; safe to retry"
                )
                for future in futures:
                    if not future.done():
                        future.set_exception(cancelled)
                raise
            except BaseException as error:  # settle followers, always
                for future in futures:
                    if not future.done():
                        future.set_exception(error)
            else:
                for future, payload in zip(futures, payloads):
                    if not future.done():
                        future.set_result(payload)

        task = asyncio.get_running_loop().create_task(run())
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _await_pieces(
        self, futures: list[asyncio.Future], key: str
    ) -> list[bytes] | HttpResponse:
        """Wait under the request deadline for every shared payload.

        The serving path's one failure mapping; ``key`` names the
        request in the 503/504 bodies and seeds the 503's jitter:

        * admission shed (:class:`QueueFullError`) → 429;
        * a computation cancelled mid-flight (a leader's
          :class:`CoalesceCancelledError`, or a shared future that was
          itself cancelled) → 503;
        * the deadline, or the runner's watchdog → 504.

        429 and 503 carry a deterministic, job-keyed ``Retry-After``
        (the shed batch's admission key for a 429), so retrying
        clients spread out instead of re-stampeding.  A cancellation
        of this handler itself still propagates.
        """
        try:
            return await asyncio.wait_for(
                asyncio.shield(asyncio.gather(*futures)), self.config.deadline
            )
        except QueueFullError as error:
            obs().emit(
                "serve.shed",
                f"queue full ({error.depth}/{error.limit}); "
                f"shed with Retry-After {error.retry_after:.3f}s",
                depth=error.depth,
                limit=error.limit,
            )
            return _retry_response(429, error.retry_after, error="admission queue full")
        except (CoalesceCancelledError, asyncio.CancelledError) as error:
            if isinstance(error, asyncio.CancelledError) and not any(
                future.cancelled() for future in futures
            ):
                raise
            self.metrics.counter("serve.cancelled").inc()
            return _retry_response(
                503,
                self.queue.retry_after(key),
                error="computation cancelled; safe to retry",
                key=key,
            )
        except (asyncio.TimeoutError, JobTimeoutError):
            self.metrics.counter("serve.timeouts").inc()
            return json_response(
                504,
                {
                    "error": "deadline exceeded",
                    "deadline": self.config.deadline,
                    "key": key,
                },
            )

    def _draining_response(self) -> HttpResponse:
        return json_response(
            503, {"error": "server is draining"}, headers={"connection": "close"}
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "draining" if self.draining else "serving"
        return (
            f"SimulationServer({state}, {self.host}:{self.port}, "
            f"queue={self.queue!r}, coalescer={self.coalescer!r})"
        )
