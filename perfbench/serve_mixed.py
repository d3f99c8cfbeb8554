"""The ``serve-mixed`` workload: an open-loop request mix against a
2-worker prefork fleet (``serve --workers 2 --jobs 1``, claims on).

The mix, per request:

* ``warm``  — ``/v1/simulate`` on a hot set of specs filled during set-up
  (cache hits);
* ``cold``  — ``/v1/simulate`` on a fresh seed (the cascade engine runs and
  the result is written to the cache);
* ``sweep`` — ``/v1/sweep`` of a few fresh seeds on the batch engine;
* ``predict_hit`` — ``/v1/predict`` inside the calibration table built
  during set-up (answered by the surrogate);
* ``predict_fallback`` — ``/v1/predict`` outside the table's range on a
  fresh seed (falls back to a simulation).

Requests go out on a fixed schedule over one keep-alive connection
per worker, at a fixed offered rate.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

from common import (
    CORRUPT_ENV, median, now, percentile, proc_cpu_s, proc_peak_rss_mb, self_peak_rss_mb,
)
from loadgen import Connection, Request, pinned_connections, run_schedule
from reference import reference_work

#: Offered rate, requests per second.  Each worker spends about a
#: sixth of its time in requests; see README.md for why not half.
RATE = 120.0
#: Latency limit on p99; a failed request always misses it.
LIMIT_MS = 100.0
#: Serving processes in the fleet (``serve --workers``).
WORKERS = 2
#: Seconds between calls of the reference computation during a run.
REF_PERIOD = 0.5

MIX = (
    ("warm_sweep", 0.45),
    ("warm", 0.15),
    ("predict_hit", 0.21),
    ("cold", 0.10),
    ("predict_fallback", 0.05),
    ("sweep", 0.04),
)
HOT_SET = 32
SWEEP_SIZE = 6
SWEEP_HORIZON = 2e4
SIM = {"n_nodes": 20, "tp": 121.0, "tc": 0.11, "tr": 0.1, "horizon": 5000.0,
       "direction": "up", "engine": "cascade"}
#: The calibration study behind the predict table.  Its seeds are fixed
#: (not drawn from ``--seed``) so every run's table covers the same
#: region and in-region queries are surrogate hits.
TABLE = {"name": "serve-mixed", "n_nodes": (10, 12), "tp": (20.0,), "tc": (0.3,),
         "tr": (0.05, 0.1), "seed_start": 1, "seed_count": 4, "horizon": 40000.0,
         "engine": "batch"}
HIT_QUERIES = [
    {"n_nodes": n, "tp": 20.0, "tc": 0.3, "tr": round(0.05 + 0.01 * i, 2)}
    for n in (10, 11, 12) for i in range(6)
]
FALLBACK_TR = 0.2  # outside the table's Tr range


def _encode(payload) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


def mix_deck(count: int) -> list:
    """``count`` request kinds in the proportions of ``MIX`` (largest
    remainders round), so every run offers the same amount of each
    kind and only the order and the fresh seeds vary with ``--seed``."""
    shares = [(weight * count, kind) for kind, weight in MIX]
    whole = {kind: int(share) for share, kind in shares}
    spare = count - sum(whole.values())
    for share, kind in sorted(shares, key=lambda pair: int(pair[0]) - pair[0])[:spare]:
        whole[kind] += 1
    return [kind for kind, _ in MIX for _ in range(whole[kind])]


def merge(phases: list) -> dict:
    """Several schedule phases as one, for :meth:`ServeMixed.summarize`."""
    return {
        "requests": [r for p in phases for r in p["requests"]],
        "outcomes": [o for p in phases for o in p["outcomes"]],
        "elapsed": sum(p["elapsed"] for p in phases),
    }


class ServeMixed:
    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.fresh = 1 + (seed % 10_000) * 1_000_000  # next unused seed
        self.fleet = None
        self.server = None
        self.conns: list = []

    # -- set-up ------------------------------------------------------------------

    def setup(self, in_process: bool = False) -> dict:
        """Backend, calibration table, server start and readiness, hot set.

        ``in_process`` hosts one ``SimulationServer`` in this process
        (the traced run) instead of the prefork fleet.
        """
        from repro.campaign import CampaignSpec, LocalDispatcher
        from repro.core.batch import compiled_backend_available, default_backend
        from repro.parallel import ResultCache, SimulationJob
        from repro.predict.tables import build_table, save_table
        from repro.serve import BackgroundServer, ServeConfig, SupervisedServer

        self._job_cls = SimulationJob
        info = {"backend": default_backend(), "compiled_available": compiled_backend_available()}
        cache_root = os.path.join(self.workdir, "cache")
        spec = CampaignSpec(**TABLE)
        table = build_table(
            spec, ResultCache(cache_root), dispatcher=LocalDispatcher(jobs=1),
            checkpoint_root=os.path.join(self.workdir, "checkpoints"),
        )
        self.table = table
        table_path = str(save_table(table, cache_root))
        workers = 1 if in_process else WORKERS
        config = ServeConfig(
            port=0, workers=workers, jobs=1, claims=True,
            cache_root=cache_root, predict_table=table_path,
        )
        if in_process:
            self.server = BackgroundServer(config).start()
            host, port = self.server.host, self.server.port
        else:
            self.fleet = SupervisedServer(config).start()
            host, port = self.fleet.host, self.fleet.port
        self.conns = pinned_connections(host, port, workers)
        if in_process:
            self.conns.append(Connection(host, port))
        self.hot = [self._sim_spec(seed=1 + self.seed % 10_000 + k) for k in range(HOT_SET)]
        shuffle = random.Random(f"serve-mixed-{self.seed}-hot")
        self.hot_orders = [shuffle.sample(self.hot, HOT_SET) for _ in range(4)]
        self.warm_up()
        info["table_id"] = table["table_id"]
        return info

    def warm_up(self) -> None:
        """Fill the hot set and touch every route once on each process
        (the predict table loads lazily on first use)."""
        import threading

        share = HOT_SET // len(self.conns)
        plans = [
            [("/v1/sweep", {"jobs": self.hot[i * share:(i + 1) * share]}),
             ("/v1/sweep", {"jobs": [self._sim_spec(self._fresh_seed(), "batch")]}),
             ("/v1/predict", HIT_QUERIES[0])]
            for i in range(len(self.conns))
        ]
        statuses = []

        def send(conn, plan):
            statuses.extend(conn.request("POST", path, _encode(body))[0] for path, body in plan)

        threads = [threading.Thread(target=send, args=pair) for pair in zip(self.conns, plans)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        if len(statuses) != sum(map(len, plans)) or any(code != 200 for code in statuses):
            raise RuntimeError(f"warm-up failed: {statuses}")

    def _sim_spec(self, seed: int, engine: str = "cascade") -> dict:
        return {**SIM, "seed": seed, "engine": engine}

    def _fresh_seed(self) -> int:
        self.fresh += 1
        return self.fresh

    # -- the schedule ------------------------------------------------------------

    def schedule(self, rate: float, seconds: float, tag: str) -> list:
        rng = random.Random(f"serve-mixed-{self.seed}-{tag}")
        deck = mix_deck(max(1, int(rate * seconds)))
        rng.shuffle(deck)
        requests = []
        for i, kind in enumerate(deck):
            due = i / rate
            if kind == "warm":
                spec = rng.choice(self.hot)
                requests.append(Request(due, kind, "/v1/simulate", _encode(spec),
                                        f"sim:{spec['seed']}", 1, spec))
            elif kind == "cold":
                spec = self._sim_spec(self._fresh_seed())
                requests.append(Request(due, kind, "/v1/simulate", _encode(spec),
                                        f"sim:{spec['seed']}", 1, spec))
            elif kind == "warm_sweep":
                order = rng.randrange(len(self.hot_orders))
                specs = self.hot_orders[order]
                requests.append(Request(due, kind, "/v1/sweep", _encode({"jobs": specs}),
                                        f"warm_sweep:{order}", len(specs), specs))
            elif kind == "sweep":
                specs = [{**self._sim_spec(self._fresh_seed(), "batch"), "horizon": SWEEP_HORIZON}
                         for _ in range(SWEEP_SIZE)]
                requests.append(Request(due, kind, "/v1/sweep", _encode({"jobs": specs}),
                                        f"sweep:{specs[0]['seed']}", SWEEP_SIZE, specs))
            elif kind == "predict_hit":
                query = rng.choice(HIT_QUERIES)
                requests.append(Request(due, kind, "/v1/predict", _encode(query),
                                        "predict:" + _encode(query).decode(), 0, query))
            else:
                query = {"n_nodes": rng.choice((10, 11, 12)), "tp": 20.0, "tc": 0.3,
                         "tr": FALLBACK_TR, "seed": self._fresh_seed()}
                requests.append(Request(due, kind, "/v1/predict", _encode(query),
                                        "predict:" + _encode(query).decode(), 1, query))
        return requests

    def phase(self, rate: float, seconds: float, tag: str) -> dict:
        requests = self.schedule(rate, seconds, tag)
        t0 = now()
        outcomes, start, senders = run_schedule(self.conns, requests)
        end = max(o.done for o in outcomes)
        return {"requests": requests, "outcomes": outcomes, "elapsed": end - start,
                "wall": (t0, now()), "senders": senders}

    # -- metrics -----------------------------------------------------------------

    @staticmethod
    def summarize(phase: dict) -> dict:
        """Latency percentiles, goodput and jobs answered for one phase."""
        latencies = []
        by_kind: dict[str, list] = {}
        good = jobs = 0
        for req, out in zip(phase["requests"], phase["outcomes"]):
            ok = out.status == 200
            latency = out.latency_ms if ok else float("inf")
            latencies.append(latency)
            by_kind.setdefault(req.kind, []).append(latency)
            if ok:
                jobs += req.jobs
                good += latency <= LIMIT_MS
        late = [out.late_ms for out in phase["outcomes"]]
        return {
            "requests": len(latencies),
            "p50_ms": median(latencies),
            "p99_ms": percentile(latencies, 99.0),
            "goodput_rps": good / phase["elapsed"],
            "jobs": jobs,
            "jobs_per_s": jobs / phase["elapsed"],
            "late_mean_ms": sum(late) / len(late),
            "late_median_ms": median(late),
            "p50_by_kind_ms": {kind: median(v) for kind, v in sorted(by_kind.items())},
        }

    def measure(self, seconds: float) -> dict:
        import threading
        import time

        before = self.server_totals()
        cpu = self.fleet_cpu()
        # The reference runs on a thread of this process beside the
        # generator, so it samples the host while the fleet works.
        refs: list = []
        stop = threading.Event()

        def sample() -> None:
            while True:
                start = time.thread_time()
                reference_work()
                refs.append(time.thread_time() - start)
                if stop.wait(REF_PERIOD):
                    return

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            phase = self.phase(RATE, seconds, "fixed")
        finally:
            stop.set()
            sampler.join()
        cpu = {pid: spent - cpu.get(pid, 0.0) for pid, spent in self.fleet_cpu().items()}
        busy = self.server_totals() - before
        rss = self.peak_rss_mb()
        ok, gate_failed, gate_info = self.gate([phase])
        head = self.summarize(phase)
        # Request-seconds per process per second: an upper bound on how
        # busy each worker was.
        head["fleet_busy_frac"] = busy / (len(self.conns) * phase["elapsed"])
        head["fleet_cpu_s"] = cpu
        head["jobs_per_cpu_s"] = head["jobs"] / sum(cpu.values())
        head["reference_cpu_ms"] = median(refs) * 1000.0
        metrics = {
            "jobs_per_ref": (head["jobs_per_cpu_s"] * median(refs), "1/ref"),
            "peak_rss_mb": (rss, "MB"),
        }
        return {
            "correct": ok,
            "attempted": len(phase["requests"]),
            "failed": sum(o.status != 200 for o in phase["outcomes"]) + gate_failed,
            "metrics": metrics,
            "info": {"measured": head, "gate": gate_info, "limit_ms": LIMIT_MS, "rate": RATE},
        }

    def trace(self, seconds: float, tracing) -> dict:
        """Interleaved untraced and traced slices.

        Wrappers cannot reach fleet worker processes, so the traced
        run hosts one ``SimulationServer`` (fleet settings, claims on)
        in this process and offers it one worker's share of the rate.
        """
        import threading

        tracer = tracing.Tracer()
        slices = {False: [], True: []}
        for i in range(4):
            traced = i % 2 == 1
            if traced:
                start = self.conns[0].get_json("/metrics")["serve"]
                tracing.install(tracer)
            try:
                slices[traced].append(self.phase(RATE / WORKERS, seconds / 4, f"slice{i}"))
            finally:
                if traced:
                    tracer.uninstall()
                    after = self.conns[0].get_json("/metrics")["serve"]
                    # /metrics between slices is untraced; only deltas
                    # over traced slices count.
                    for name in ("serve.claims.peer_hits", "serve.request_seconds"):
                        field = "value" if name.endswith("hits") else "sum"
                        tracer.count(name, after.get(name, {}).get(field, 0.0)
                                     - start.get(name, {}).get(field, 0.0))
        phases = slices[False] + slices[True]
        ok, gate_failed, gate_info = self.gate(phases)
        skip = {threading.get_ident()}
        for phase in slices[True]:
            skip.update(phase["senders"])
        traced_wall = sum(p["wall"][1] - p["wall"][0] for p in slices[True])
        threads = {span[1] for span in tracer.spans} - skip
        balance = tracing.reconcile(tracer, {thread: traced_wall for thread in threads})
        values = tracing.layer_metrics(tracer, threads)
        head_u = self.summarize(merge(slices[False]))
        head_t = self.summarize(merge(slices[True]))
        values.update({
            "claims.peer_hits": tracer.counts["serve.claims.peer_hits"],
            "server.request_s": tracer.counts["serve.request_seconds"],
            "loadgen.late_ms": head_t["late_mean_ms"],
            "loadgen.sent": float(head_t["requests"]),
            "trace.wall_s": balance["wall_s"],
            "trace.unattributed_s": balance["unattributed_s"],
            "trace.traced_jobs_per_s": head_t["jobs_per_s"],
            "trace.untraced_jobs_per_s": head_u["jobs_per_s"],
            "trace.traced_p50_ms": head_t["p50_ms"],
            "trace.untraced_p50_ms": head_u["p50_ms"],
        })
        return {
            "correct": ok,
            "attempted": sum(len(p["requests"]) for p in phases),
            "failed": sum(o.status != 200 for p in phases for o in p["outcomes"]) + gate_failed,
            "values": values,
            "tracer": tracer,
            "artifact": {
                "host": "one in-process SimulationServer with the fleet's settings "
                        "(jobs=1, claims on) at one worker's share of the rate; wrappers "
                        "cannot reach fleet worker processes",
                "reconcile": balance,
                "reconcile_unit": "thread-seconds over the server's event-loop and "
                                  "executor threads during traced slices; unattributed "
                                  "includes idle time",
                "untraced": head_u, "traced": head_t, "gate": gate_info,
            },
        }

    def server_totals(self) -> float:
        """``serve.request_seconds`` summed over the serving processes."""
        return sum(
            conn.get_json("/metrics")["serve"].get("serve.request_seconds", {}).get("sum", 0.0)
            for conn in self.conns[: 1 if self.server is not None else WORKERS]
        )

    def fleet_cpu(self) -> dict:
        """CPU seconds so far of each fleet worker, by pid."""
        return {pid: proc_cpu_s(pid) for pid in self.fleet.supervisor.worker_pids() if pid}

    def peak_rss_mb(self) -> float:
        total = self_peak_rss_mb()
        if self.fleet is not None:
            total += sum(proc_peak_rss_mb(pid) for pid in self.fleet.supervisor.worker_pids() if pid)
        return total

    # -- correctness -------------------------------------------------------------

    def gate(self, phases: list) -> tuple[bool, int, dict]:
        """Identical bytes per key; sampled bodies equal direct computation."""
        from repro.parallel.job import run_job
        from repro.predict.service import PredictService, parse_query
        from repro.serve.http import canonical_json
        from repro.serve.server import simulation_payload

        seen: dict[str, str] = {}
        by_kind: dict[str, list] = {}
        divergent = 0
        for phase in phases:
            for req, out in zip(phase["requests"], phase["outcomes"]):
                if out.status != 200:
                    continue
                digest = hashlib.sha256(out.body).hexdigest()
                if seen.setdefault(req.key, digest) != digest:
                    divergent += 1
                by_kind.setdefault(req.kind, []).append((req, out))

        def payload(spec: dict) -> bytes:
            job = self._job_cls.from_dict(spec)
            return simulation_payload(job, run_job(job))

        service = PredictService(self.table)

        def expected(req) -> tuple[bytes, bool]:
            """The answer's bytes, and whether they are the whole body
            (a predict fallback ends with the simulate bytes)."""
            if req.kind in ("warm", "cold"):
                return payload(req.spec), True
            if req.kind in ("sweep", "warm_sweep"):
                joined = b",".join(payload(s).rstrip(b"\n") for s in req.spec)
                return b'{"results":[' + joined + b"]}\n", True
            job, tolerance = parse_query(req.spec)
            verdict = service.resolve(job, tolerance)
            if verdict[0] == "surrogate":
                return canonical_json({"predict": verdict[1]}), True
            sim = simulation_payload(job, run_job(job)).rstrip(b"\n")
            return b',"simulate":' + sim + b"}\n", False

        rng = random.Random(f"serve-mixed-gate-{self.seed}")
        samples = {"warm": 3, "warm_sweep": 1, "cold": 3, "sweep": 1, "predict_hit": 2,
                   "predict_fallback": 2}
        checked = 0
        mismatched = []
        for kind, count in samples.items():
            pool = by_kind.get(kind, [])
            for req, out in rng.sample(pool, min(count, len(pool))):
                checked += 1
                want, whole = expected(req)
                if os.environ.get(CORRUPT_ENV):
                    want = want + b" "
                if (out.body != want) if whole else not out.body.endswith(want):
                    mismatched.append(req.key)
        failures = divergent + len(mismatched)
        return failures == 0, failures, {
            "keys": len(seen), "divergent_bodies": divergent,
            "sampled": checked, "sample_mismatches": mismatched,
            "oracle": "simulation_payload(job, run_job(job)) computed in-process",
        }

    # -- teardown ----------------------------------------------------------------

    def teardown(self) -> None:
        for conn in self.conns:
            conn.close()
        if self.fleet is not None:
            self.fleet.stop()
            self.fleet = None
        if self.server is not None:
            self.server.stop()
            self.server = None
