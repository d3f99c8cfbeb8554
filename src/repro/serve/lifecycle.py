"""Server lifecycle: startup, signal-driven graceful drain, shutdown.

:func:`serve_forever` is the blocking entry point the CLI uses.  On
SIGTERM (or SIGINT) the server *drains* rather than dies:

1. ``/readyz`` flips to 503 and compute endpoints stop admitting —
   a load balancer or client fleet sees the instance leave rotation.
2. In-flight requests finish (bounded by ``drain_grace``); completed
   jobs are already on disk via the write-through cache, so a request
   the drain cannot finish recomputes only its missing jobs next time.
3. The listener closes and the process exits 0.

:class:`BackgroundServer` runs the same server on a daemon thread
with its own event loop — the harness the loopback tests and the
``bench --predict`` target drive real sockets through without
subprocesses.
"""

from __future__ import annotations

import asyncio
import signal
import threading
from contextlib import suppress

from .config import ServeConfig
from .server import SimulationServer

__all__ = ["BackgroundServer", "serve_forever"]


async def _serve(
    config: ServeConfig,
    announce,
    install_signals: bool,
    sock=None,
    early_signals=(),
) -> int:
    server = SimulationServer(config)
    await server.start(sock=sock)
    loop = asyncio.get_running_loop()
    if install_signals:
        for signum in (signal.SIGTERM, signal.SIGINT):
            with suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, server.begin_drain)
    if early_signals:
        # A drain signal beat the event loop into existence (prefork
        # workers latch these during boot); honor it now — the server
        # still answers whatever slipped in, then exits 0.
        server.begin_drain()
    if announce is not None:
        announce(f"serving on http://{server.host}:{server.port}")
    try:
        await server.wait_stopped()
    finally:
        await server.close()
    if announce is not None:
        announce("drained; exiting")
    return 0


def serve_forever(
    config: ServeConfig, announce=None, sock=None, early_signals=()
) -> int:
    """Run the server until a signal drains it; returns the exit code.

    ``announce`` is called with human-readable status lines (the CLI
    passes a flushing ``print``; the bound port is announced so
    ``port=0`` callers can discover it).  ``sock`` is an already-bound
    listening socket to serve on instead of binding ``host:port`` —
    the prefork supervisor's workers pass their inherited fd this way.
    ``early_signals`` is non-empty when a drain signal was latched
    before the event loop existed (the worker boot shim); the server
    then starts already draining and exits 0 instead of dying to the
    signal's default action.

    With ``config.workers >= 2`` this entry point delegates to the
    prefork :func:`~repro.serve.supervisor.supervise` (unless a
    ``sock`` marks this process as already being a worker).
    """
    if config.workers >= 2 and sock is None:
        from .supervisor import supervise

        return supervise(config, announce=announce)
    return asyncio.run(
        _serve(
            config,
            announce,
            install_signals=True,
            sock=sock,
            early_signals=early_signals,
        )
    )


class BackgroundServer:
    """A server on a daemon thread, for loopback tests and benches.

    Usage::

        with BackgroundServer(config) as bg:
            client = ServeClient(bg.host, bg.port)
            ...

    ``server_kwargs`` (``job_runner``, ``figure_runner``) pass through
    to :class:`~repro.serve.server.SimulationServer`, so tests can
    inject counting or slow runners.  Exit drains the server (same
    path as SIGTERM) and joins the thread.
    """

    def __init__(self, config: ServeConfig, **server_kwargs) -> None:
        self.config = config
        self.server_kwargs = server_kwargs
        self.server: SimulationServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._port: int | None = None

    # -- thread body ----------------------------------------------------------

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            loop.close()

    async def _main(self) -> None:
        try:
            server = SimulationServer(self.config, **self.server_kwargs)
            await server.start()
        except BaseException as error:
            self._startup_error = error
            self._started.set()
            return
        self.server = server
        self._port = server.port
        self._started.set()
        try:
            await server.wait_stopped()
        finally:
            await server.close()

    # -- public API -----------------------------------------------------------

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30)
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        if self.server is None:
            raise RuntimeError("server did not start within 30s")
        return self

    def stop(self, timeout: float = 60.0) -> None:
        if self._loop is not None and self.server is not None:
            with suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self.server.begin_drain)
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        assert self._port is not None, "server not started"
        return self._port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"
