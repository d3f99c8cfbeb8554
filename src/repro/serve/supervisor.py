"""Prefork multi-worker serving: bind once, spawn N, respawn crashes.

The paper's subject — many independent periodic processes sharing a
resource — is exactly what a prefork server fleet is, and this module
applies the paper's own medicine to its failure handling: worker
respawns are spaced by *deterministic key-seeded jitter*
(:func:`~repro.parallel.runner.deterministic_jitter`), so a fleet of
crash-looping workers never thunders back in lockstep, yet every run
of the supervisor sleeps the same schedule.

Architecture::

    parent (Supervisor)                 workers (asyncio, one process each)
    ───────────────────                 ──────────────────────────────────
    bind host:port once  ──inherited──▶ asyncio.start_server(sock=fd)
    spawn N workers           fd        coalesce → admit → claims → pool
    monitor & respawn                   cross-process single-flight via
    SIGTERM → drain all                 ClaimRegistry next to the cache

* **One socket.** The parent binds (resolving ``port=0`` to a real
  port before any worker exists) and each worker inherits the
  listening fd via ``pass_fds`` + :data:`SOCKET_FD_ENV`; the kernel
  load-balances accepts between the workers' event loops.
* **Config by environment.** Workers are fresh interpreters running
  the :data:`WORKER_BOOT` shim (a signal latch, then
  :func:`worker_main`); they rebuild their
  :class:`~repro.serve.config.ServeConfig` (fault plan included) from
  JSON in :data:`CONFIG_ENV` — nothing is pickled, everything is
  inspectable with ``ps e``.
* **Crash-respawn with backoff.** A worker exiting outside a drain is
  respawned after ``restart_backoff * 2^n * jitter(slot, n)`` seconds
  (``n`` = consecutive crashes of that slot); after
  ``restart_limit`` consecutive crashes the slot is abandoned (crash
  loops must not melt the host).  A worker that stays up resets its
  slot's crash count.  Respawns are counted in
  ``serve.workers.restarts`` (supervisor registry *and* the global
  :mod:`repro.obs` runtime).
* **Coordinated drain.** SIGTERM/SIGINT to the parent forwards
  SIGTERM to every worker; each flips ``/readyz`` to 503, finishes
  in-flight requests, and exits 0 (the PR-4 drain, unchanged).  The
  parent reaps them (bounded by ``drain_grace`` plus margin,
  SIGKILL stragglers) and exits 0 iff every worker drained cleanly.

:class:`SupervisedServer` is the in-process harness mirroring
:class:`~repro.serve.lifecycle.BackgroundServer`: the supervisor runs
on a daemon thread (workers are still real subprocesses), so chaos
tests can kill workers, await respawns, and read supervisor counters
directly.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
from time import monotonic as _monotonic

from ..obs import WARNING, obs
from ..obs.metrics import MetricsRegistry
from ..parallel import SERVE_WORKER_ENV, deterministic_jitter
from .config import ServeConfig

__all__ = [
    "CONFIG_ENV",
    "SOCKET_FD_ENV",
    "WORKER_BOOT",
    "WORKER_SLOT_ENV",
    "SupervisedServer",
    "Supervisor",
    "supervise",
    "worker_main",
]

#: Worker environment: JSON-encoded ``ServeConfig.to_dict()``.
CONFIG_ENV = "REPRO_SERVE_CONFIG"

#: Worker environment: the inherited listening socket's fd number.
SOCKET_FD_ENV = "REPRO_SERVE_SOCKET_FD"

#: Worker environment: this worker's slot index (0..workers-1).
WORKER_SLOT_ENV = "REPRO_SERVE_WORKER_SLOT"

#: A worker must stay alive this long for its slot's consecutive-crash
#: counter to reset (seconds).
STABLE_AFTER = 2.0

#: The worker boot shim, run via ``python -c``.  It installs a signal
#: latch *before* the (slow) package imports, closing the window where
#: a SIGTERM arriving mid-boot — e.g. a fleet drain right after a
#: respawn — would kill the worker with the default action (exit
#: -SIGTERM) instead of draining it to exit 0.  Latched signals are
#: honored the moment the server is up.
WORKER_BOOT = (
    "import signal\n"
    "early = []\n"
    "for s in (signal.SIGTERM, signal.SIGINT):\n"
    "    signal.signal(s, lambda *a: early.append(a[0]))\n"
    "from repro.serve import supervisor\n"
    "raise SystemExit(supervisor.worker_main(early))\n"
)


def worker_main(early_signals=()) -> int:  # pragma: no cover - worker subprocess
    """Entry point inside one spawned worker process.

    Rebuilds the config from the environment, wraps the inherited
    listening fd, and runs the ordinary single-process serve loop
    (SIGTERM → drain → exit 0) on it.  ``early_signals`` is the boot
    shim's latch: signals that arrived before the event loop existed,
    replayed as an immediate drain once the server starts.
    """
    from .lifecycle import serve_forever

    config = ServeConfig.from_dict(json.loads(os.environ[CONFIG_ENV]))
    fd = int(os.environ[SOCKET_FD_ENV])
    sock = socket.socket(fileno=fd)
    slot = os.environ.get(WORKER_SLOT_ENV, "?")

    def announce(line: str) -> None:
        print(f"[worker {slot}] {line}", flush=True)

    return serve_forever(
        config, announce=announce, sock=sock, early_signals=early_signals
    )


class Supervisor:
    """The prefork parent: owns the socket, the workers, the respawns.

    Drive it with :meth:`run` (blocking, installs signal handlers —
    the CLI path) or ``start()``/``monitor()``/``drain()`` separately
    (the :class:`SupervisedServer` harness path).
    """

    def __init__(self, config: ServeConfig, announce=None) -> None:
        if config.workers < 1:
            raise ValueError("workers must be >= 1")
        self.config = config
        self.announce = announce or (lambda line: None)
        self.metrics = MetricsRegistry(enabled=True)
        self.restarts = 0
        self.abandoned = 0
        self._sock: socket.socket | None = None
        self._procs: list[subprocess.Popen | None] = [None] * config.workers
        self._crashes = [0] * config.workers
        self._spawned_at = [0.0] * config.workers
        self._draining = threading.Event()

    # -- socket ---------------------------------------------------------------

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0``); valid after start()."""
        if self._sock is not None:
            return self._sock.getsockname()[1]
        return self.config.port

    def _bind(self) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.config.host, self.config.port))
        sock.listen(128)
        self._sock = sock

    # -- workers --------------------------------------------------------------

    def _spawn(self, slot: int) -> None:
        assert self._sock is not None
        env = dict(os.environ)
        env[CONFIG_ENV] = json.dumps(self.config.to_dict(), sort_keys=True)
        env[SOCKET_FD_ENV] = str(self._sock.fileno())
        env[WORKER_SLOT_ENV] = str(slot)
        env[SERVE_WORKER_ENV] = "1"
        self._procs[slot] = subprocess.Popen(
            [sys.executable, "-c", WORKER_BOOT],
            pass_fds=(self._sock.fileno(),),
            env=env,
        )
        self._spawned_at[slot] = _monotonic()

    def kill_worker(self, slot: int, sig: int = signal.SIGKILL) -> int:
        """Send ``sig`` to one worker (chaos/testing); returns its pid."""
        proc = self._procs[slot]
        assert proc is not None, f"slot {slot} has no worker"
        proc.send_signal(sig)
        return proc.pid

    def worker_pids(self) -> list[int | None]:
        return [proc.pid if proc is not None else None for proc in self._procs]

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Bind the socket and spawn the full worker fleet."""
        self._bind()
        for slot in range(self.config.workers):
            self._spawn(slot)
        self.announce(
            f"supervisor: serving on http://{self.host}:{self.port} "
            f"with {self.config.workers} worker(s)"
        )

    def begin_drain(self) -> None:
        """Ask the monitor loop to stop and drain (idempotent)."""
        self._draining.set()

    def monitor(self, poll: float = 0.05) -> None:
        """Respawn crashed workers until a drain begins.

        The respawn delay is ``restart_backoff * 2^n *
        deterministic_jitter(slot-key, n)`` — exponential per
        consecutive crash, jittered so multiple crashed slots never
        respawn in lockstep, deterministic so tests can budget it.
        """
        while not self._draining.wait(poll):
            for slot, proc in enumerate(self._procs):
                if proc is None or proc.poll() is None:
                    if (
                        proc is not None
                        and self._crashes[slot]
                        and _monotonic() - self._spawned_at[slot] > STABLE_AFTER
                    ):
                        self._crashes[slot] = 0
                    continue
                self._reap_crash(slot, proc)
                if self._draining.is_set():
                    return

    def _reap_crash(self, slot: int, proc: subprocess.Popen) -> None:
        status = proc.returncode
        n = self._crashes[slot]
        if n >= self.config.restart_limit:
            self._procs[slot] = None
            self.abandoned += 1
            self.announce(
                f"supervisor: worker {slot} crash-looped "
                f"{n} time(s); abandoning the slot"
            )
            obs().emit(
                "serve.worker.abandoned",
                f"worker slot {slot} exceeded restart_limit="
                f"{self.config.restart_limit}",
                level=WARNING,
                slot=slot,
            )
            if all(p is None for p in self._procs):
                self.announce("supervisor: no workers left; draining")
                self.begin_drain()
            return
        delay = (
            self.config.restart_backoff
            * (2**n)
            * deterministic_jitter(f"serve-worker-{slot}", n)
        )
        self.announce(
            f"supervisor: worker {slot} (pid {proc.pid}) exited "
            f"status {status}; respawn #{n + 1} in {delay:.3f}s"
        )
        obs().emit(
            "serve.worker.restart",
            f"worker {slot} exited status {status}; respawning",
            level=WARNING,
            slot=slot,
            status=status,
            delay=delay,
        )
        # An interruptible sleep: a drain arriving mid-backoff wins.
        if self._draining.wait(delay):
            return
        # Spawn first and bump ``restarts`` last: a reader that sees it
        # move (``SupervisedServer.wait_respawn``) must also see the
        # new pid and the restart counters.
        self._spawn(slot)
        self._crashes[slot] = n + 1
        self.metrics.counter("serve.workers.restarts").inc()
        obs().metrics.counter("serve.workers.restarts").inc()
        self.restarts += 1

    def drain(self) -> int:
        """SIGTERM every worker, reap them, close the socket.

        Returns 0 iff every remaining worker exited 0 (the in-worker
        drain finished inside its grace); stragglers past
        ``drain_grace`` plus margin are SIGKILLed and count as
        failures.
        """
        self.announce("supervisor: draining workers")
        live = [proc for proc in self._procs if proc is not None]
        for proc in live:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        deadline = _monotonic() + self.config.drain_grace + 5.0
        exit_code = 0
        for proc in live:
            budget = max(0.0, deadline - _monotonic())
            try:
                status = proc.wait(timeout=budget)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                status = proc.returncode
            # Status -SIGTERM means the signal's *default* action fired:
            # the worker died before its very first instruction (the
            # boot shim's latch takes over within milliseconds), so it
            # held no connection, no claim, no in-flight work — that is
            # a clean drain of an empty worker.  Anything else nonzero
            # (including -SIGKILL for a wedged straggler) is a failure.
            if status not in (0, -signal.SIGTERM):
                exit_code = 1
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        self.announce(f"supervisor: drained; exiting {exit_code}")
        return exit_code

    def run(self, install_signals: bool = True) -> int:
        """Blocking entry point: start, monitor, drain on signal."""
        self.start()
        if install_signals:
            try:
                for signum in (signal.SIGTERM, signal.SIGINT):
                    signal.signal(signum, lambda *_: self.begin_drain())
            except ValueError:
                pass  # lint: allow-swallow — not the main thread; the
                # harness path drives begin_drain() directly instead.
        try:
            self.monitor()
        finally:
            code = self.drain()
        return code


def supervise(config: ServeConfig, announce=None) -> int:
    """Run the prefork supervisor until a signal drains it."""
    return Supervisor(config, announce=announce).run()


class SupervisedServer:
    """A prefork fleet with the supervisor on a daemon thread.

    The multi-process sibling of
    :class:`~repro.serve.lifecycle.BackgroundServer`: workers are real
    subprocesses accepting on a shared socket, but the supervisor's
    monitor loop runs in this process, so tests and the benchmark can
    ``kill_worker()``, ``wait_respawn()``, and read
    ``supervisor.restarts`` without scraping logs.

    Usage::

        with SupervisedServer(config) as fleet:
            client = ServeClient(fleet.host, fleet.port)
            ...
            fleet.kill_worker(0)
            fleet.wait_respawn(1)
    """

    def __init__(self, config: ServeConfig, announce=None) -> None:
        self.supervisor = Supervisor(config, announce=announce)
        self._thread: threading.Thread | None = None
        self.exit_code: int | None = None

    def start(self) -> "SupervisedServer":
        self.supervisor.start()

        def body() -> None:
            self.supervisor.monitor()
            self.exit_code = self.supervisor.drain()

        self._thread = threading.Thread(
            target=body, name="repro-supervisor", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 60.0) -> int | None:
        """Drain the fleet; returns the supervisor exit code."""
        self.supervisor.begin_drain()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
        return self.exit_code

    def kill_worker(self, slot: int = 0, sig: int = signal.SIGKILL) -> int:
        return self.supervisor.kill_worker(slot, sig)

    def wait_respawn(self, count: int = 1, timeout: float = 30.0) -> None:
        """Block until the supervisor has performed ``count`` respawns."""
        deadline = _monotonic() + timeout
        while self.supervisor.restarts < count:
            if _monotonic() >= deadline:
                raise TimeoutError(
                    f"only {self.supervisor.restarts}/{count} respawn(s) "
                    f"within {timeout}s"
                )
            threading.Event().wait(0.02)

    def __enter__(self) -> "SupervisedServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def host(self) -> str:
        return self.supervisor.host

    @property
    def port(self) -> int:
        return self.supervisor.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"


def main() -> int:
    """``python -m repro.serve.supervisor``: the worker entry.

    Only meaningful with the worker environment set; humans start
    fleets with ``python -m repro serve --workers N``.
    """
    if CONFIG_ENV in os.environ and SOCKET_FD_ENV in os.environ:
        return worker_main()
    print(
        "this module is the prefork worker entry point; "
        "start a fleet with: python -m repro serve --workers N",
        file=sys.stderr,
    )
    return 2


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    raise SystemExit(main())
