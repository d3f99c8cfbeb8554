"""Unit tests for the ServeClient Retry-After retry policy.

A scripted stub HTTP server answers a fixed sequence of responses, so
the tests pin down exactly which statuses retry (429/503 with a
Retry-After), which never do (504, hintless errors), how the sleeps
follow the server's hint (capped), that a connection dropped after
the request went out draws on the same budget, and that ``retries=0``
preserves surface-the-error behavior.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.serve import ServeClient
from repro.serve.client import RETRYABLE_STATUSES


#: A script step that reads the request and hangs up without answering.
DROP = "drop"


class ScriptedServer:
    """Answers a scripted list of (status, headers, body) responses.

    A :data:`DROP` step closes the connection instead of answering.
    Once the script is exhausted every request answers 200 ``{}``.
    """

    def __init__(self, script):
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def _reply(self):
                length = int(self.headers.get("Content-Length") or 0)
                self.rfile.read(length)
                with outer._lock:
                    outer.requests.append(self.path)
                    step = outer.script.pop(0) if outer.script else None
                if step == DROP:
                    self.close_connection = True
                    return
                status, headers, body = step or (200, {}, b"{}")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                for name, value in headers.items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(body)

            do_GET = do_POST = _reply

            def log_message(self, *args):
                pass

        self.script = list(script)
        self.requests = []
        self._lock = threading.Lock()
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=10)

    @property
    def port(self):
        return self._httpd.server_address[1]


def shed(retry_after, status=429):
    body = json.dumps({"error": "queue full"}).encode()
    return (status, {"Retry-After": f"{retry_after:.3f}"}, body)


@pytest.fixture
def sleeps(monkeypatch):
    """Record the client's retry sleeps instead of performing them."""
    recorded = []
    monkeypatch.setattr(
        "repro.serve.client._sleep", lambda seconds: recorded.append(seconds)
    )
    return recorded


class TestRetryPolicy:
    def test_429_with_hint_retries_until_success(self, sleeps):
        with ScriptedServer([shed(0.25), shed(0.5)]) as stub:
            with ServeClient("127.0.0.1", stub.port, retries=3) as client:
                response = client.request("GET", "/thing")
        assert response.status == 200
        assert sleeps == [0.25, 0.5]
        assert client.retried == 2
        assert len(stub.requests) == 3

    def test_503_is_retryable_504_is_not(self, sleeps):
        assert 429 in RETRYABLE_STATUSES and 503 in RETRYABLE_STATUSES
        assert 504 not in RETRYABLE_STATUSES
        with ScriptedServer([shed(0.1, status=503)]) as stub:
            with ServeClient("127.0.0.1", stub.port, retries=2) as client:
                assert client.request("GET", "/x").status == 200
        assert sleeps == [0.1]
        with ScriptedServer([shed(0.1, status=504)]) as stub:
            with ServeClient("127.0.0.1", stub.port, retries=2) as client:
                # A deadline exceeded once will be exceeded again —
                # surfaced immediately, no sleep burned.
                assert client.request("GET", "/x").status == 504
        assert sleeps == [0.1]  # unchanged: the 504 never slept

    def test_retries_exhausted_returns_last_error(self, sleeps):
        with ScriptedServer([shed(0.1)] * 5) as stub:
            with ServeClient("127.0.0.1", stub.port, retries=2) as client:
                response = client.request("GET", "/x")
        assert response.status == 429
        assert client.retried == 2
        assert len(stub.requests) == 3  # initial + 2 retries, then stop

    def test_no_hint_means_no_retry(self, sleeps):
        body = json.dumps({"error": "queue full"}).encode()
        with ScriptedServer([(429, {}, body)]) as stub:
            with ServeClient("127.0.0.1", stub.port, retries=3) as client:
                response = client.request("GET", "/x")
        assert response.status == 429
        assert sleeps == []
        assert client.retried == 0

    def test_retries_zero_surfaces_backpressure(self, sleeps):
        with ScriptedServer([shed(0.1)]) as stub:
            with ServeClient("127.0.0.1", stub.port) as client:
                response = client.request("GET", "/x")
        assert response.status == 429
        assert response.retry_after == pytest.approx(0.1)
        assert sleeps == []

    def test_hint_is_capped_at_max_retry_after(self, sleeps):
        with ScriptedServer([shed(120.0)]) as stub:
            with ServeClient(
                "127.0.0.1", stub.port, retries=1, max_retry_after=2.0
            ) as client:
                assert client.request("GET", "/x").status == 200
        assert sleeps == [2.0]

    def test_retry_resends_the_same_payload(self, sleeps):
        with ScriptedServer([shed(0.05)]) as stub:
            with ServeClient("127.0.0.1", stub.port, retries=1) as client:
                response = client.request("POST", "/v1/simulate", {"seed": 9})
        assert response.status == 200
        assert stub.requests == ["/v1/simulate", "/v1/simulate"]


class TestDroppedConnections:
    """A peer that hangs up after the request went out (a worker killed
    mid-request) is retried from the ``retries`` budget; every route
    is idempotent by content hash, so re-sending is safe."""

    def test_two_dropped_exchanges_retry_to_success(self, sleeps):
        # Each exchange reconnects once on its own, so two dropped
        # exchanges are four dropped connections.
        with ScriptedServer([DROP] * 4) as stub:
            with ServeClient("127.0.0.1", stub.port, retries=2) as client:
                response = client.request("POST", "/v1/simulate", {"seed": 9})
        assert response.status == 200
        assert client.retried == 2
        assert stub.requests == ["/v1/simulate"] * 5
        assert sleeps == []  # no hint to honor: re-sent at once

    def test_retries_zero_keeps_the_single_reconnect(self, sleeps):
        with ScriptedServer([DROP]) as stub:
            with ServeClient("127.0.0.1", stub.port) as client:
                assert client.request("GET", "/x").status == 200
        with ScriptedServer([DROP] * 2) as stub:
            with ServeClient("127.0.0.1", stub.port) as client:
                with pytest.raises(ConnectionResetError):
                    client.request("GET", "/x")
        assert client.retried == 0

    def test_drops_and_sheds_share_one_budget(self, sleeps):
        with ScriptedServer([DROP, DROP, shed(0.1), DROP, DROP]) as stub:
            with ServeClient("127.0.0.1", stub.port, retries=2) as client:
                with pytest.raises(ConnectionResetError):
                    client.request("GET", "/x")
        assert client.retried == 2
        assert sleeps == [0.1]

    def test_refused_connect_is_not_retried(self):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        with ServeClient("127.0.0.1", dead_port, retries=3) as client:
            with pytest.raises(ConnectionRefusedError):
                client.healthz()
        assert client.retried == 0


class TestConnectTimeout:
    """The connect budget is distinct from the read budget."""

    def test_connected_socket_carries_the_read_timeout(self):
        with ScriptedServer([]) as stub:
            with ServeClient(
                "127.0.0.1", stub.port, timeout=33.0, connect_timeout=0.5
            ) as client:
                assert client.request("GET", "/x").status == 200
                # The handshake budget applied only to connect(); the
                # established socket waits the full read timeout.
                assert client._conn.sock.gettimeout() == 33.0

    def test_default_keeps_single_timeout_behavior(self):
        with ScriptedServer([]) as stub:
            with ServeClient("127.0.0.1", stub.port, timeout=7.0) as client:
                assert client.request("GET", "/x").status == 200
                assert client._conn.sock.gettimeout() == 7.0

    def test_dead_endpoint_fails_within_the_connect_budget(self):
        import socket
        import time

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        client = ServeClient(
            "127.0.0.1", dead_port, timeout=60.0, connect_timeout=1.0
        )
        started = time.monotonic()
        with pytest.raises(OSError):
            client.healthz()
        # Refused or timed out — either way the wait is bounded by the
        # connect budget (plus slack), never the 60 s read timeout.
        assert time.monotonic() - started < 10.0
        client.close()
