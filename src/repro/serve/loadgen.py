"""A deterministic load generator: the paper's client fleet, aimed at us.

The generator is literally the system the paper studies: N clients on
periodic timers whose inter-request interval is drawn uniformly from
``[period - jitter, period + jitter]`` — the simulator's
``[Tp - Tr, Tp + Tr]`` machinery pointed at our own server.  The
schedule derives from a :class:`~repro.rng.RandomSource` seeded by
the plan, so two runs of the same :class:`LoadPlan` issue the same
requests in the same order (and, against a warm cache, receive
byte-identical payloads — the determinism acceptance test).

Two execution modes:

* **virtual** (default) — ticks are replayed in schedule order as
  fast as the server answers; wall-clock-free and fully
  deterministic, the mode the tests use.
* **real** — one thread per client sleeps its jittered intervals and
  fires on time; this exercises genuine concurrency (coalescing,
  backpressure) at the cost of timing-dependent interleaving.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from time import monotonic as _monotonic
from time import sleep as _sleep

from ..obs.metrics import Histogram
from ..parallel.job import SimulationJob
from ..rng import RandomSource
from .client import ServeClient

__all__ = [
    "LATENCY_BUCKETS",
    "LoadPlan",
    "Tick",
    "build_schedule",
    "default_specs",
    "format_report",
    "run_chaos_load",
    "run_load",
]

#: Latency buckets for the report histogram (seconds) — finer at the
#: low end than the obs default, loopback requests are fast.
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)


def default_specs(count: int = 4, horizon: float = 5e3) -> tuple[dict, ...]:
    """Small, fast, cache-friendly job specs for smoke loads.

    Strongly jittered (``Tr`` well above critical), so the cascade
    run stays cheap whatever the horizon outcome.
    """
    return tuple(
        SimulationJob(
            n_nodes=10,
            tp=121.0,
            tc=0.11,
            tr=2.0,
            seed=seed,
            horizon=horizon,
            direction="up",
            engine="cascade",
        ).to_dict()
        for seed in range(1, count + 1)
    )


@dataclass(frozen=True)
class LoadPlan:
    """A seeded description of one load run.

    ``clients`` periodic clients fire for ``duration`` virtual
    seconds; each waits ``uniform(period - jitter, period + jitter)``
    between its requests (per-client streams spawn from ``seed``).
    Clients cycle through ``specs`` starting at their own offset, so
    neighbouring clients request the same jobs at different times —
    cache hits — and occasionally the same job at the same time —
    coalescing.

    ``retries`` is forwarded to each :class:`ServeClient`: with
    ``retries > 0`` the fleet honors 429/503 ``Retry-After`` hints
    (sleeping the server's own deterministic jitter) and re-sends
    over a dropped connection, instead of booking backpressure or a
    killed worker as terminal errors.
    """

    clients: int = 4
    period: float = 1.0
    jitter: float = 0.5
    duration: float = 10.0
    seed: int = 1
    specs: tuple[dict, ...] = field(default_factory=default_specs)
    real_time: bool = False
    retries: int = 0

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.period <= 0:
            raise ValueError("period must be positive")
        if not 0 <= self.jitter <= self.period:
            raise ValueError("jitter must be in [0, period]")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not self.specs:
            raise ValueError("specs must not be empty")
        # Validate every spec up front (and freeze dict specs into a
        # tuple if a caller handed us a list).
        object.__setattr__(
            self, "specs", tuple(dict(spec) for spec in self.specs)
        )
        for spec in self.specs:
            SimulationJob.from_dict(spec)


@dataclass(frozen=True)
class Tick:
    """One scheduled request: when, by whom, of what."""

    time: float
    client: int
    seq: int
    spec_index: int


def build_schedule(plan: LoadPlan) -> list[Tick]:
    """All ticks of a plan, in firing order — a pure function of it.

    Client ``i`` draws from stream ``spawn(i)`` of the plan's seed:
    an initial offset uniform on ``[0, period)`` (unsynchronized
    start, exactly like the simulator's), then jittered intervals.
    """
    base = RandomSource(plan.seed)
    ticks: list[Tick] = []
    for client in range(plan.clients):
        stream = base.spawn(client)
        t = stream.uniform(0.0, plan.period)
        seq = 0
        while t <= plan.duration:
            ticks.append(
                Tick(
                    time=t,
                    client=client,
                    seq=seq,
                    spec_index=(client + seq) % len(plan.specs),
                )
            )
            t += stream.uniform(
                plan.period - plan.jitter, plan.period + plan.jitter
            )
            seq += 1
    ticks.sort(key=lambda tick: (tick.time, tick.client))
    return ticks


def _counter(snapshot: dict, name: str) -> float:
    return float(snapshot.get("serve", {}).get(name, {}).get("value", 0.0))


def _issue(client: ServeClient, plan: LoadPlan, tick: Tick):
    """Fire one tick; returns (status, latency, key, body_sha, bytes)."""
    spec = plan.specs[tick.spec_index]
    key = SimulationJob.from_dict(spec).cache_key()
    t0 = _monotonic()
    try:
        response = client.simulate(spec)
    except OSError:
        return ("error", _monotonic() - t0, key, None, 0)
    latency = _monotonic() - t0
    sha = (
        hashlib.sha256(response.body).hexdigest()
        if response.status == 200
        else None
    )
    return (response.status, latency, key, sha, len(response.body))


def _run_virtual(plan: LoadPlan, host: str, port: int, schedule):
    records = []
    retried = 0
    with ServeClient(host, port, retries=plan.retries) as client:
        for tick in schedule:
            records.append(_issue(client, plan, tick))
        retried = client.retried
    return records, retried


def _run_real(plan: LoadPlan, host: str, port: int, schedule):
    per_client: dict[int, list[Tick]] = {}
    for tick in schedule:
        per_client.setdefault(tick.client, []).append(tick)
    results: dict[int, list] = {}
    retried_by_client: dict[int, int] = {}

    def worker(client_id: int, ticks: list[Tick]) -> None:
        mine: list = []
        start = _monotonic()
        with ServeClient(host, port, retries=plan.retries) as client:
            for tick in ticks:
                delay = tick.time - (_monotonic() - start)
                if delay > 0:
                    _sleep(delay)
                mine.append(_issue(client, plan, tick))
            retried_by_client[client_id] = client.retried
        results[client_id] = mine

    threads = [
        threading.Thread(target=worker, args=(cid, ticks), daemon=True)
        for cid, ticks in per_client.items()
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    records = [record for cid in sorted(results) for record in results[cid]]
    return records, sum(retried_by_client.values())


def run_load(plan: LoadPlan, host: str, port: int) -> dict:
    """Execute a plan against a live server; returns the load report.

    The report carries throughput, a latency histogram, per-status
    counts, the SHA-256 of each job's payload bytes (equal-for-equal
    asserted), and the server-side coalesce / cache / shed deltas
    scraped from ``/metrics`` around the run.  Those counters are one
    worker's (``server["pid"]``); when the before and after probes
    reach different workers of a fleet the deltas would mix two
    processes, so ``server`` is None instead.
    """
    schedule = build_schedule(plan)
    with ServeClient(host, port) as probe:
        before = probe.metrics()
    t0 = _monotonic()
    if plan.real_time:
        records, retried = _run_real(plan, host, port, schedule)
    else:
        records, retried = _run_virtual(plan, host, port, schedule)
    elapsed = _monotonic() - t0
    with ServeClient(host, port) as probe:
        after = probe.metrics()

    histogram = Histogram("loadgen.latency_seconds", buckets=LATENCY_BUCKETS)
    by_status: dict[str, int] = {}
    payload_sha: dict[str, str] = {}
    identical = True
    bytes_received = 0
    for status, latency, key, sha, size in records:
        by_status[str(status)] = by_status.get(str(status), 0) + 1
        histogram.observe(latency)
        bytes_received += size
        if sha is not None:
            if key in payload_sha and payload_sha[key] != sha:
                identical = False
            payload_sha.setdefault(key, sha)

    server_delta = None
    if before.get("pid") == after.get("pid"):
        server_delta = {"pid": after.get("pid")}
        for name, metric in (
            ("shed", "serve.shed"),
            ("coalesce_leaders", "serve.coalesce.leaders"),
            ("coalesce_followers", "serve.coalesce.followers"),
            ("jobs_executed", "serve.jobs.executed"),
            ("cache_hits", "serve.jobs.cache_hits"),
            ("timeouts", "serve.timeouts"),
        ):
            server_delta[name] = _counter(after, metric) - _counter(before, metric)
    return {
        "plan": {
            "clients": plan.clients,
            "period": plan.period,
            "jitter": plan.jitter,
            "duration": plan.duration,
            "seed": plan.seed,
            "specs": len(plan.specs),
            "mode": "real" if plan.real_time else "virtual",
            "retries": plan.retries,
        },
        "requests": len(records),
        "retried": retried,
        "by_status": dict(sorted(by_status.items())),
        "elapsed_seconds": round(elapsed, 4),
        "throughput_rps": round(len(records) / elapsed, 2) if elapsed > 0 else 0.0,
        "latency_seconds": histogram.as_dict(),
        "bytes_received": bytes_received,
        "payload_sha256": dict(sorted(payload_sha.items())),
        "identical_payloads_per_key": identical,
        "server": server_delta,
    }


def run_chaos_load(
    plan: LoadPlan,
    config,
    kills: int = 1,
    kill_after: float = 0.5,
) -> dict:
    """Run a load plan against a self-hosted prefork fleet under chaos.

    Starts a :class:`~repro.serve.supervisor.SupervisedServer` from
    ``config`` (``workers >= 2``; any serving-path
    :class:`~repro.parallel.FaultPlan` rides along in
    ``config.faults``), runs the plan against it while SIGKILLing
    ``kills`` worker(s) mid-run (round-robin over slots, the first
    after ``kill_after`` seconds), waits for each respawn, drains the
    fleet, and audits the claim ledger.

    The returned report is :func:`run_load`'s, extended with a
    ``chaos`` section: supervisor restarts, publish-log accounting
    (``exactly_once_per_key`` — the cross-worker single-flight
    invariant), whether any request was lost outright
    (``no_request_lost``: every record carries an HTTP status, none
    died as a transport error), and the drain exit code.
    """
    from pathlib import Path

    from ..parallel import ClaimRegistry
    from .supervisor import SupervisedServer

    if config.workers < 2:
        raise ValueError("chaos load needs workers >= 2")
    report_box: dict = {}
    with SupervisedServer(config) as fleet:
        _await_ready(fleet.host, fleet.port)

        def body() -> None:
            report_box["report"] = run_load(plan, fleet.host, fleet.port)

        load_thread = threading.Thread(target=body, daemon=True)
        load_thread.start()
        for kill in range(kills):
            _sleep(kill_after if kill == 0 else 0.2)
            if not load_thread.is_alive():
                break  # the load outran the chaos; stop killing
            fleet.kill_worker(kill % config.workers)
            fleet.wait_respawn(kill + 1, timeout=30.0)
        load_thread.join(timeout=600.0)
        restarts = fleet.supervisor.restarts
    report = report_box.get("report")
    if report is None:
        raise RuntimeError("chaos load produced no report")
    registry = ClaimRegistry(
        Path(config.cache_root) / "claims", ttl=config.claim_ttl
    )
    publishes = registry.publishes()
    keys = [key for key, _pid in publishes]
    report["chaos"] = {
        "workers": config.workers,
        "kills": kills,
        "restarts": restarts,
        "publishes": len(publishes),
        "distinct_published_keys": len(set(keys)),
        "exactly_once_per_key": len(keys) == len(set(keys)),
        "publisher_pids": sorted({pid for _key, pid in publishes}),
        "no_request_lost": "error" not in report["by_status"],
        "drain_exit_code": fleet.exit_code,
    }
    return report


def _await_ready(host: str, port: int, timeout: float = 30.0) -> None:
    """Poll ``/healthz`` until a worker answers (fleet startup)."""
    deadline = _monotonic() + timeout
    while True:
        try:
            with ServeClient(host, port, timeout=5.0) as probe:
                if probe.healthz().status == 200:
                    return
        except OSError:
            pass  # lint: allow-swallow — workers still booting
        if _monotonic() >= deadline:
            raise TimeoutError(f"no worker ready on {host}:{port}")
        _sleep(0.05)


def format_report(report: dict) -> str:
    """Render a load report for the terminal."""
    latency = report["latency_seconds"]
    lines = [
        f"loadgen: {report['plan']['clients']} client(s), "
        f"{report['requests']} request(s) over "
        f"{report['elapsed_seconds']:.3f}s "
        f"({report['plan']['mode']} time) -> "
        f"{report['throughput_rps']:.1f} req/s",
        f"  status counts: "
        + ", ".join(f"{k}: {v}" for k, v in report["by_status"].items()),
        f"  latency: mean {latency.get('mean', 0.0) * 1000:.2f} ms over "
        f"{latency.get('count', 0)} request(s)",
        _format_server(report["server"]),
        "  payloads identical per job: "
        + ("yes" if report["identical_payloads_per_key"] else "NO"),
    ]
    if report.get("retried"):
        lines.append(
            f"  client retries (Retry-After or dropped): {report['retried']}"
        )
    chaos = report.get("chaos")
    if chaos is not None:
        lines.append(
            f"  chaos: {chaos['workers']} worker(s), {chaos['kills']} "
            f"kill(s), {chaos['restarts']} respawn(s); "
            f"{chaos['publishes']} publish(es) over "
            f"{chaos['distinct_published_keys']} key(s) -> exactly-once "
            + ("held" if chaos["exactly_once_per_key"] else "VIOLATED")
            + f"; drain exit {chaos['drain_exit_code']}"
        )
    return "\n".join(lines)


def _format_server(server: dict | None) -> str:
    """The report's server line: one worker's deltas, or why none."""
    if server is None:
        return (
            "  server: no deltas (the /metrics probes before and after "
            "the run reached different workers)"
        )
    return (
        f"  server (worker pid {server['pid']}): executed "
        f"{server['jobs_executed']:g} job(s), "
        f"{server['cache_hits']:g} cache hit(s), "
        f"coalesced {server['coalesce_followers']:g} follower(s), "
        f"shed {server['shed']:g}"
    )
