"""Lifecycle tests: the SIGTERM drain contract, end to end.

The drain acceptance criterion — a SIGTERM'd server flips ``/readyz``,
finishes in-flight work, and **exits 0** — is stated about a real
process, so the core test here spawns ``python -m repro serve`` as a
subprocess and signals it.  (The readyz-flip and in-flight-completion
halves are also covered in-process in ``test_serve_server.py``.)
"""

import os
import signal
import subprocess
import sys
import time

from repro.serve import BackgroundServer, ServeClient, ServeConfig

REPO_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def spawn_server(tmp_path, *extra_args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(REPO_SRC)
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--cache-root",
            str(tmp_path / "cache"),
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=str(tmp_path),
    )


class TestSigtermDrain:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        proc = spawn_server(tmp_path)
        try:
            announce = proc.stdout.readline().strip()
            assert announce.startswith("serving on http://")
            port = int(announce.rsplit(":", 1)[1])
            client = ServeClient("127.0.0.1", port)
            assert client.healthz().status == 200
            assert client.readyz().status == 200
            client.close()

            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert "drained; exiting" in out

    def test_sigterm_mid_request_completes_it_first(self, tmp_path):
        proc = spawn_server(tmp_path)
        try:
            announce = proc.stdout.readline().strip()
            port = int(announce.rsplit(":", 1)[1])
            import threading

            from repro.parallel import SimulationJob

            spec = SimulationJob(
                n_nodes=5,
                tp=121.0,
                tc=0.11,
                tr=2.0,
                seed=71,
                horizon=2000.0,
                direction="up",
                engine="cascade",
            ).to_dict()
            responses = []

            def fire():
                with ServeClient("127.0.0.1", port, timeout=60) as client:
                    responses.append(client.simulate(spec))

            thread = threading.Thread(target=fire)
            thread.start()
            time.sleep(0.05)  # let the request reach the server
            proc.send_signal(signal.SIGTERM)
            thread.join(timeout=60)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        # The in-flight request was either fully served before the
        # drain completed, or never reached compute (the race between
        # connect and SIGTERM) and was refused as draining — but it
        # was not dropped on the floor.
        assert responses and responses[0].status in (200, 503)


class TestBackgroundServer:
    def test_start_stop_and_port_discovery(self, tmp_path):
        config = ServeConfig(port=0, cache_root=str(tmp_path / "cache"))
        bg = BackgroundServer(config)
        bg.start()
        try:
            assert bg.port != 0
            assert bg.url == f"http://{bg.host}:{bg.port}"
            with ServeClient(bg.host, bg.port) as client:
                assert client.healthz().status == 200
        finally:
            bg.stop()
        assert not bg._thread.is_alive()

    def test_context_manager_drains_on_exit(self, tmp_path):
        config = ServeConfig(port=0, cache_root=str(tmp_path / "cache"))
        with BackgroundServer(config) as bg:
            thread = bg._thread
        assert not thread.is_alive()


class GatedRunner:
    """A job runner that blocks until the test releases it."""

    def __init__(self):
        import threading

        self.started = threading.Event()
        self.release = threading.Event()

    def __call__(self, specs):
        from repro.parallel import ParallelRunner

        self.started.set()
        assert self.release.wait(timeout=30), "test never released the runner"
        return ParallelRunner(jobs=1).run(specs)


def _spec(seed=61):
    from repro.parallel import SimulationJob

    return SimulationJob(
        n_nodes=5,
        tp=121.0,
        tc=0.11,
        tr=2.0,
        seed=seed,
        horizon=1500.0,
        direction="up",
        engine="cascade",
    ).to_dict()


class TestStopUnderLoad:
    """``BackgroundServer.stop()`` with requests still in flight."""

    def test_stop_completes_inflight_request_first(self, tmp_path):
        import threading

        runner = GatedRunner()
        config = ServeConfig(port=0, cache_root=str(tmp_path / "cache"))
        bg = BackgroundServer(config, job_runner=runner).start()
        responses = []

        def fire():
            with ServeClient(bg.host, bg.port, timeout=60) as client:
                responses.append(client.simulate(_spec()))

        thread = threading.Thread(target=fire)
        thread.start()
        assert runner.started.wait(timeout=30)
        stopper = threading.Thread(target=bg.stop)
        stopper.start()
        time.sleep(0.1)  # the drain is now waiting on the gated job
        runner.release.set()
        thread.join(timeout=60)
        stopper.join(timeout=60)
        assert not bg._thread.is_alive()
        assert responses and responses[0].status == 200

    def test_drain_grace_expiry_answers_retryable_503_not_a_dropped_socket(
        self, tmp_path
    ):
        import threading

        runner = GatedRunner()
        config = ServeConfig(
            port=0, cache_root=str(tmp_path / "cache"), drain_grace=0.2
        )
        bg = BackgroundServer(config, job_runner=runner).start()
        responses = []
        try:
            def fire():
                with ServeClient(bg.host, bg.port, timeout=60) as client:
                    responses.append(client.simulate(_spec(seed=62)))

            thread = threading.Thread(target=fire)
            thread.start()
            assert runner.started.wait(timeout=30)
            bg.stop()  # grace expires with the job still gated
            thread.join(timeout=60)
        finally:
            runner.release.set()  # let the executor thread exit
        assert responses, "the in-flight request was dropped outright"
        response = responses[0]
        assert response.status == 503
        assert "cancelled" in response.json()["error"]
        assert response.retry_after is not None  # deterministic, retryable

    def test_drain_racing_new_connections_refuses_503_draining(self, tmp_path):
        import threading

        runner = GatedRunner()
        config = ServeConfig(port=0, cache_root=str(tmp_path / "cache"))
        bg = BackgroundServer(config, job_runner=runner).start()
        inflight = []

        def fire():
            with ServeClient(bg.host, bg.port, timeout=60) as client:
                inflight.append(client.simulate(_spec(seed=63)))

        thread = threading.Thread(target=fire)
        thread.start()
        assert runner.started.wait(timeout=30)
        stopper = threading.Thread(target=bg.stop)
        stopper.start()
        # A brand-new connection arriving mid-drain is refused
        # crisply: 503 draining, connection: close — never queued
        # behind a drain that will not admit it.
        deadline = time.monotonic() + 10.0
        while True:
            with ServeClient(bg.host, bg.port, timeout=10) as late:
                ready = late.readyz()
                if ready.status == 503:
                    refused = late.simulate(_spec(seed=64))
                    break
            assert time.monotonic() < deadline, "drain never flipped readyz"
            time.sleep(0.02)
        assert refused.status == 503
        assert refused.json()["error"] == "server is draining"
        runner.release.set()
        thread.join(timeout=60)
        stopper.join(timeout=60)
        assert inflight and inflight[0].status == 200  # drained, not dropped
