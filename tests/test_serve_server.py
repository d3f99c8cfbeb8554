"""Loopback integration tests for the simulation server.

These drive real sockets through :class:`BackgroundServer` and state
the PR's acceptance criteria directly:

* determinism — server response bytes equal the direct
  ``ParallelRunner`` path's canonical payload, cold and warm;
* coalescing — 8 concurrent identical requests cost exactly one job
  execution and every caller receives identical bytes;
* backpressure — over the admission limit requests shed with 429 and
  a deterministic ``Retry-After``; past the deadline they answer 504;
  ``/v1/simulate``, ``/v1/sweep`` and the ``/v1/predict`` fallback
  share that path, so each is checked on all three routes;
* drain — ``/readyz`` flips to 503, in-flight work completes, and a
  stop with parked connections logs nothing.
"""

import threading
import time

import pytest

from repro.parallel import ParallelRunner, SimulationJob, deterministic_jitter
from repro.serve import (
    BackgroundServer,
    ServeClient,
    ServeConfig,
    simulation_payload,
)


def spec_dict(seed=1, horizon=1500.0, **overrides):
    base = dict(
        n_nodes=5,
        tp=121.0,
        tc=0.11,
        tr=2.0,
        seed=seed,
        horizon=horizon,
        direction="up",
        engine="cascade",
    )
    base.update(overrides)
    return SimulationJob(**base).to_dict()


#: The fields a ``/v1/predict`` query shares with a job spec.
PREDICT_FIELDS = (
    "n_nodes", "tp", "tc", "tr", "seed", "horizon", "direction", "engine",
)

#: The three routes that compute one job spec.
COMPUTE_ROUTES = ("simulate", "sweep", "predict")


def simulate_into(responses, bg, spec):
    """POST one spec on its own client (a thread target) and keep the
    response; the client's socket is closed on the way out."""
    with ServeClient(bg.host, bg.port, timeout=60) as client:
        responses.append(client.simulate(spec))


def post(client, route, spec):
    """POST one spec: bare, as a one-job sweep, or as a predict query
    (no table is loaded, so it falls back to the simulation path)."""
    if route == "simulate":
        return client.simulate(spec)
    if route == "sweep":
        return client.sweep([spec])
    return client.predict({name: spec[name] for name in PREDICT_FIELDS})


def config(tmp_path, **overrides):
    defaults = dict(port=0, cache_root=str(tmp_path / "cache"))
    defaults.update(overrides)
    return ServeConfig(**defaults)


class GatedRunner:
    """An injectable job runner that blocks until released.

    Lets a test hold a computation in flight (to pile followers onto
    the leader, fill the admission queue, or outlive a deadline) and
    then finish it for real, so payload bytes stay canonical.
    """

    def __init__(self):
        self.calls = []
        self.started = threading.Event()
        self.release = threading.Event()
        self._lock = threading.Lock()

    def __call__(self, specs):
        with self._lock:
            self.calls.append(list(specs))
        self.started.set()
        assert self.release.wait(timeout=30), "test never released the runner"
        return ParallelRunner(jobs=1).run(specs)


class TestEndpoints:
    def test_health_ready_metrics_and_errors(self, tmp_path):
        with BackgroundServer(config(tmp_path)) as bg:
            with ServeClient(bg.host, bg.port) as client:
                assert client.healthz().status == 200
                ready = client.readyz()
                assert ready.status == 200
                assert ready.json() == {"ready": True, "draining": False}
                assert "serve" in client.metrics()
                assert client.request("GET", "/nowhere").status == 404
                assert client.request("GET", "/v1/simulate").status == 405
                assert client.request("POST", "/healthz", {}).status == 405
                bad = client.request("POST", "/v1/simulate", {"junk": 1})
                assert bad.status == 400
                assert "invalid job spec" in bad.json()["error"]

    def test_unknown_figure_404_lists_known_ids(self, tmp_path):
        with BackgroundServer(config(tmp_path)) as bg:
            with ServeClient(bg.host, bg.port) as client:
                response = client.figure("fig99")
                assert response.status == 404
                assert "fig01" in response.json()["known"]

    def test_sweep_body_validation(self, tmp_path):
        with BackgroundServer(config(tmp_path)) as bg:
            with ServeClient(bg.host, bg.port) as client:
                assert client.request("POST", "/v1/sweep", {}).status == 400
                assert (
                    client.request("POST", "/v1/sweep", {"jobs": []}).status
                    == 400
                )


class TestDeterminism:
    def test_simulate_bytes_equal_direct_runner_path(self, tmp_path):
        spec = spec_dict(seed=11)
        job = SimulationJob.from_dict(spec)
        direct = simulation_payload(job, ParallelRunner(jobs=1).run([job])[0])
        with BackgroundServer(config(tmp_path)) as bg:
            with ServeClient(bg.host, bg.port) as client:
                cold = client.simulate(spec)
                warm = client.simulate(spec)
        assert cold.status == warm.status == 200
        assert cold.body == direct
        assert warm.body == direct  # warm (cached) bytes identical too

    def test_topology_field_threads_through_simulate(self, tmp_path):
        spec = spec_dict(seed=13, topology="ring", tr=0.5)
        job = SimulationJob.from_dict(spec)
        assert job.topology == "ring"
        direct = simulation_payload(job, ParallelRunner(jobs=1).run([job])[0])
        with BackgroundServer(config(tmp_path)) as bg:
            with ServeClient(bg.host, bg.port) as client:
                response = client.simulate(spec)
        assert response.status == 200
        assert response.body == direct

    def test_restarted_server_serves_identical_bytes_from_cache(self, tmp_path):
        spec = spec_dict(seed=12)
        cfg = config(tmp_path)
        with BackgroundServer(cfg) as bg:
            with ServeClient(bg.host, bg.port) as client:
                first = client.simulate(spec).body
        with BackgroundServer(cfg) as bg:
            with ServeClient(bg.host, bg.port) as client:
                second = client.simulate(spec).body
                executed = client.metrics()["serve"].get(
                    "serve.jobs.executed", {}
                )
        assert second == first
        assert executed.get("value", 0) == 0  # answered from cache

    @pytest.mark.parametrize("claims", [False, True])
    def test_a_repeated_request_counts_one_cache_hit(self, tmp_path, claims):
        # Every fleet of two or more workers runs the claims path, which
        # answers hits before the runner; loadgen reads this counter.
        spec = spec_dict(seed=13)
        with BackgroundServer(config(tmp_path, claims=claims)) as bg:
            with ServeClient(bg.host, bg.port) as client:
                first = client.simulate(spec).body
                second = client.simulate(spec).body
                metrics = client.metrics()["serve"]
        assert second == first
        assert metrics["serve.jobs.cache_hits"]["value"] == 1
        assert metrics["serve.jobs.executed"]["value"] == 1

    def test_sweep_splices_the_exact_simulate_payloads(self, tmp_path):
        specs = [spec_dict(seed=21), spec_dict(seed=22)]
        jobs = [SimulationJob.from_dict(s) for s in specs]
        results = ParallelRunner(jobs=1).run(jobs)
        pieces = [
            simulation_payload(job, result).rstrip(b"\n")
            for job, result in zip(jobs, results)
        ]
        expected = b'{"results":[' + b",".join(pieces) + b"]}\n"
        with BackgroundServer(config(tmp_path)) as bg:
            with ServeClient(bg.host, bg.port) as client:
                response = client.sweep(specs)
        assert response.status == 200
        assert response.body == expected


def wait_for_followers(bg, count):
    """Block until ``count`` requests have coalesced behind leaders."""
    with ServeClient(bg.host, bg.port) as probe:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            followers = (
                probe.metrics()["serve"]
                .get("serve.coalesce.followers", {})
                .get("value", 0)
            )
            if followers >= count:
                return
            time.sleep(0.01)
    pytest.fail("followers never piled up behind the leader")


class TestCoalescing:
    def test_eight_concurrent_identical_requests_run_one_job(self, tmp_path):
        runner = GatedRunner()
        spec = spec_dict(seed=31)
        herd = 8
        with BackgroundServer(config(tmp_path), job_runner=runner) as bg:
            responses = [None] * herd

            def fire(i):
                with ServeClient(bg.host, bg.port, timeout=60) as client:
                    responses[i] = client.simulate(spec)

            threads = [
                threading.Thread(target=fire, args=(i,)) for i in range(herd)
            ]
            for thread in threads:
                thread.start()
            # Release the (single) computation only once every other
            # request has coalesced behind the leader.
            assert runner.started.wait(timeout=30)
            wait_for_followers(bg, herd - 1)
            runner.release.set()
            for thread in threads:
                thread.join(timeout=60)

        assert len(runner.calls) == 1  # exactly one job execution
        assert all(r is not None and r.status == 200 for r in responses)
        bodies = {r.body for r in responses}
        assert len(bodies) == 1  # identical bytes to every caller

    def test_simulate_sweep_and_predict_share_one_computation(self, tmp_path):
        runner = GatedRunner()
        spec = spec_dict(seed=32)
        with BackgroundServer(config(tmp_path), job_runner=runner) as bg:
            responses = {}

            def fire(route):
                with ServeClient(bg.host, bg.port, timeout=60) as client:
                    responses[route] = post(client, route, spec)

            threads = [
                threading.Thread(target=fire, args=(route,))
                for route in COMPUTE_ROUTES
            ]
            for thread in threads:
                thread.start()
            assert runner.started.wait(timeout=30)
            wait_for_followers(bg, len(COMPUTE_ROUTES) - 1)
            runner.release.set()
            for thread in threads:
                thread.join(timeout=60)

        assert runner.calls == [[SimulationJob.from_dict(spec)]]
        assert {r.status for r in responses.values()} == {200}
        body = responses["simulate"].body.rstrip(b"\n")
        assert responses["sweep"].body == b'{"results":[' + body + b"]}\n"
        predicted = responses["predict"].body
        assert predicted.endswith(b',"simulate":' + body + b"}\n")
        assert responses["predict"].json()["predict"]["source"] == "fallback"


class TestBackpressure:
    @pytest.mark.parametrize("route", COMPUTE_ROUTES)
    def test_queue_full_sheds_429_with_deterministic_retry_after(
        self, tmp_path, route
    ):
        runner = GatedRunner()
        cfg = config(tmp_path, queue_depth=1, retry_after_base=2.0)
        blocker, shed_spec = spec_dict(seed=41), spec_dict(seed=42)
        with BackgroundServer(cfg, job_runner=runner) as bg:
            holder_response = []
            holder = threading.Thread(
                target=simulate_into, args=(holder_response, bg, blocker)
            )
            holder.start()
            assert runner.started.wait(timeout=30)
            with ServeClient(bg.host, bg.port) as client:
                shed = post(client, route, shed_spec)
            runner.release.set()
            holder.join(timeout=60)

        assert shed.status == 429
        expected = 2.0 * deterministic_jitter(
            SimulationJob.from_dict(shed_spec).cache_key(), 0
        )
        assert shed.headers["retry-after"] == f"{expected:.3f}"
        assert shed.json()["retry_after"] == round(expected, 3)
        assert holder_response[0].status == 200  # the admitted one finished

    @pytest.mark.parametrize("route", COMPUTE_ROUTES)
    def test_deadline_overrun_answers_504(self, tmp_path, route):
        runner = GatedRunner()
        cfg = config(tmp_path, deadline=0.2)
        spec = spec_dict(seed=51)
        with BackgroundServer(cfg, job_runner=runner) as bg:
            with ServeClient(bg.host, bg.port, timeout=60) as client:
                response = post(client, route, spec)
                metrics = client.metrics()["serve"]
            runner.release.set()
        assert response.status == 504
        assert response.json()["deadline"] == 0.2
        assert response.json()["key"] == SimulationJob.from_dict(spec).cache_key()
        assert metrics["serve.timeouts"]["value"] >= 1


class TestDrain:
    def test_drain_flips_readyz_and_completes_inflight(self, tmp_path):
        runner = GatedRunner()
        with BackgroundServer(config(tmp_path), job_runner=runner) as bg:
            inflight_response = []
            inflight = threading.Thread(
                target=simulate_into,
                args=(inflight_response, bg, spec_dict(seed=61)),
            )
            inflight.start()
            assert runner.started.wait(timeout=30)

            bg._loop.call_soon_threadsafe(bg.server.begin_drain)
            with ServeClient(bg.host, bg.port) as client:
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    ready = client.readyz()
                    if ready.status == 503:
                        break
                    time.sleep(0.01)
                assert ready.status == 503
                assert ready.json()["draining"] is True
                # New compute work is refused while draining...
                refused = client.simulate(spec_dict(seed=62))
                assert refused.status == 503

            # ...but the in-flight request still completes.
            runner.release.set()
            inflight.join(timeout=60)
        assert inflight_response[0].status == 200
        assert len(runner.calls) == 1

    def test_stop_with_parked_connections_logs_nothing(self, tmp_path):
        # A stop cancels every connection handler; one cancelled while
        # closing a hung-up connection must still end quietly.  The
        # race lands on most rounds, so a few rounds catch a regression.
        for _ in range(10):
            recorded = []
            bg = BackgroundServer(config(tmp_path)).start()
            bg._loop.call_soon_threadsafe(
                bg._loop.set_exception_handler,
                lambda loop, context: recorded.append(context),
            )
            parked = ServeClient(bg.host, bg.port)
            hung_up = ServeClient(bg.host, bg.port)
            assert parked.healthz().status == hung_up.healthz().status == 200
            hung_up.close()
            bg.stop()
            parked.close()
            assert recorded == []


class TestBatchEngine:
    """engine="batch" through the serving layer, byte for byte."""

    def test_batch_simulate_bytes_equal_direct_runner_path(self, tmp_path):
        spec = spec_dict(seed=31, engine="batch")
        job = SimulationJob.from_dict(spec)
        direct = simulation_payload(job, ParallelRunner(jobs=1).run([job])[0])
        with BackgroundServer(config(tmp_path)) as bg:
            with ServeClient(bg.host, bg.port) as client:
                served = client.simulate(spec)
        assert served.status == 200
        assert served.body == direct

    def test_batch_figure_bytes_equal_cascade_figure_bytes(self, tmp_path):
        from repro.experiments.registry import run_figure
        from repro.serve import figure_payload

        direct = figure_payload(run_figure("fig10", fast=True, jobs=1))
        with BackgroundServer(config(tmp_path, engine="batch")) as bg:
            with ServeClient(bg.host, bg.port) as client:
                served = client.figure("fig10")
        assert served.status == 200
        assert served.body == direct

    def test_batch_figure_survives_restart_from_warm_cache(self, tmp_path):
        cfg = config(tmp_path, engine="batch")
        with BackgroundServer(cfg) as bg:
            with ServeClient(bg.host, bg.port) as client:
                first = client.figure("fig10")
        # A fresh process (new server, same cache dir) must serve the
        # identical bytes, now assembled from the warm job cache.
        with BackgroundServer(cfg) as bg:
            with ServeClient(bg.host, bg.port) as client:
                second = client.figure("fig10")
        assert first.status == second.status == 200
        assert second.body == first.body

    def test_batch_sweep_specs_splice_identically(self, tmp_path):
        specs = [
            spec_dict(seed=41, engine="batch"),
            spec_dict(seed=42, engine="batch"),
        ]
        jobs = [SimulationJob.from_dict(s) for s in specs]
        results = ParallelRunner(jobs=1).run(jobs)
        pieces = [
            simulation_payload(job, result).rstrip(b"\n")
            for job, result in zip(jobs, results)
        ]
        expected = b'{"results":[' + b",".join(pieces) + b"]}\n"
        with BackgroundServer(config(tmp_path)) as bg:
            with ServeClient(bg.host, bg.port) as client:
                response = client.sweep(specs)
        assert response.status == 200
        assert response.body == expected


class TestCancellationPropagation:
    """A cancelled leader must settle its followers retryably.

    Regression for the ``Coalescer`` retire path: before PR-7, a
    leader task cancelled mid-flight (drain-grace expiry, shutdown)
    set a bare ``CancelledError`` on the shared future, unwinding
    every follower's handler and silently dropping their connections.
    Now followers receive :class:`CoalesceCancelledError` and answer
    a retryable 503 with the deterministic job-keyed Retry-After.
    """

    def test_cancelled_leader_settles_followers_with_coalesce_error(
        self, tmp_path
    ):
        import asyncio

        from repro.serve import CoalesceCancelledError, SimulationServer

        async def go():
            server = SimulationServer(config(tmp_path))
            loop = asyncio.get_running_loop()
            futures = [loop.create_future() for _ in range(3)]
            started = asyncio.Event()

            async def produce():
                started.set()
                await asyncio.sleep(60)

            server._lead_async(futures, "ab" * 32, produce)
            await started.wait()
            (task,) = server._tasks
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            return futures

        futures = asyncio.run(go())
        for future in futures:
            error = future.exception()
            assert isinstance(error, CoalesceCancelledError)
            assert "safe to retry" in str(error)

    def test_awaiter_maps_cancellation_to_retryable_503(self, tmp_path):
        import asyncio

        from repro.parallel import deterministic_jitter
        from repro.serve import CoalesceCancelledError, SimulationServer

        async def go():
            server = SimulationServer(config(tmp_path))
            loop = asyncio.get_running_loop()
            settled = loop.create_future()
            settled.set_exception(CoalesceCancelledError("boom"))
            first = await server._await_pieces([settled], "k1")
            torn = loop.create_future()
            torn.cancel()
            second = await server._await_pieces([torn], "k1")
            return server, first, second

        server, first, second = asyncio.run(go())
        for response in (first, second):
            assert response.status == 503
            assert "retry-after" in response.headers
            assert b"safe to retry" in response.body
        # Retry-After is the queue's deterministic job-keyed jitter.
        expected = server.config.retry_after_base * deterministic_jitter("k1", 0)
        assert float(first.headers["retry-after"]) == pytest.approx(
            expected, abs=1e-3
        )
        assert first.headers["retry-after"] == second.headers["retry-after"]
        assert server.metrics.counter("serve.cancelled").value == 2
