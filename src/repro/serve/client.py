"""A stdlib client for the simulation-serving API.

Thin, synchronous, dependency-free: one persistent
``http.client.HTTPConnection`` per :class:`ServeClient` (keep-alive —
the load generator's periodic clients reuse their connection exactly
like long-lived routing peers reuse a session), JSON in/out, and the
raw response bytes preserved so byte-identity can be asserted
end-to-end.

Backpressure-aware by choice: the server sheds with ``429`` (queue
full) or ``503`` (draining / computation cancelled) and a
*deterministic jittered* ``Retry-After`` — construct the client with
``retries > 0`` and it honors that hint instead of surfacing the
error, sleeping exactly what the server prescribed (bounded
attempts, no client-side randomness, so a retrying fleet inherits
the server's anti-synchronization jitter and a rerun retries on the
same schedule).
"""

from __future__ import annotations

import http.client
import json
from dataclasses import dataclass, field
from time import sleep as _sleep

__all__ = ["RETRYABLE_STATUSES", "ApiResponse", "ServeClient"]

#: Statuses that carry a Retry-After worth honoring: 429 (admission
#: queue full) and 503 (draining, or a computation cancelled
#: mid-flight).  504 is excluded — a deadline exceeded once will
#: likely be exceeded again.
RETRYABLE_STATUSES = (429, 503)

#: A peer that dropped the connection after the request went out: a
#: hang-up before answering (``RemoteDisconnected`` is a reset), a
#: reset, or a broken pipe.  Every route is idempotent by content
#: hash, so re-sending is safe.  A refused connect is not among them:
#: a dead endpoint still fails fast.
_DROPPED = (ConnectionResetError, BrokenPipeError)


@dataclass
class ApiResponse:
    """One API exchange: status, selected headers, raw body bytes."""

    status: int
    headers: dict[str, str]
    body: bytes

    def json(self):
        """The body decoded as JSON (raises ValueError on junk)."""
        return json.loads(self.body.decode("utf-8"))

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def retry_after(self) -> float | None:
        """The Retry-After hint in seconds, when the server sent one."""
        value = self.headers.get("retry-after")
        return float(value) if value is not None else None


@dataclass
class ServeClient:
    """Synchronous client for one server, with connection reuse.

    Not thread-safe: give each load-generating client its own
    instance (exactly what :mod:`repro.serve.loadgen` does).

    Construct with ``retries > 0`` to honor 429/503 ``Retry-After``
    hints: each such response sleeps the server's (deterministic,
    job-keyed) hint and re-sends, up to ``retries`` extra attempts;
    the last response is returned either way.  A connection dropped
    after the request went out also re-sends from the same budget, at
    once.  ``retries=0`` (the default) surfaces backpressure and
    drops, never absorbs them.

    ``connect_timeout`` (optional) bounds only the TCP handshake,
    separately from the read ``timeout``: set it when the cost of a
    dead endpoint must be seconds, not a whole server deadline — the
    campaign dispatcher does.
    """

    host: str = "127.0.0.1"
    port: int = 8793
    timeout: float = 60.0
    connect_timeout: float | None = None
    retries: int = 0
    max_retry_after: float = 60.0
    retried: int = field(default=0, init=False)
    _conn: http.client.HTTPConnection | None = field(
        default=None, init=False, repr=False
    )

    # -- plumbing -------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            if self.connect_timeout is not None:
                # Distinct connect vs read budgets: the TCP handshake
                # to a dead or unroutable endpoint fails within
                # ``connect_timeout`` (fail fast — a campaign shard
                # must not hang for a full compute ``timeout`` just to
                # learn a host is gone), while an established
                # connection still waits ``timeout`` for the server's
                # long-running simulation response.
                conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.connect_timeout
                )
                conn.connect()
                if conn.sock is not None:
                    conn.sock.settimeout(self.timeout)
                self._conn = conn
            else:
                self._conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def request(
        self, method: str, path: str, payload=None
    ) -> ApiResponse:
        """One request, honoring Retry-After when ``retries > 0``.

        A 429/503 carrying a ``Retry-After`` header sleeps exactly
        the server's hint (capped at ``max_retry_after``) and
        re-sends; a dropped connection re-sends at once.  Both draw
        on one budget of ``retries`` extra attempts; the final
        response — success or not — is returned, and the final drop
        is raised.  Retries performed are counted in :attr:`retried`.
        """
        attempt = 0
        while True:
            last = attempt == self.retries
            try:
                response = self._exchange(method, path, payload)
            except _DROPPED:
                if last:
                    raise
            else:
                hint = response.retry_after
                if last or response.status not in RETRYABLE_STATUSES or hint is None:
                    return response
                _sleep(min(hint, self.max_retry_after))
            attempt += 1
            self.retried += 1

    def _exchange(
        self, method: str, path: str, payload=None
    ) -> ApiResponse:
        """One exchange; reconnects once if the kept-alive peer hung up."""
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                raw = conn.getresponse()
                data = raw.read()
                response = ApiResponse(
                    status=raw.status,
                    headers={k.lower(): v for k, v in raw.getheaders()},
                    body=data,
                )
                if raw.will_close:
                    self.close()
                return response
            except (
                http.client.HTTPException,
                ConnectionError,
                BrokenPipeError,
            ):
                # A server that closed the idle keep-alive connection
                # is routine; retry exactly once on a fresh socket.
                self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    # -- the API --------------------------------------------------------------

    def healthz(self) -> ApiResponse:
        return self.request("GET", "/healthz")

    def readyz(self) -> ApiResponse:
        return self.request("GET", "/readyz")

    def metrics(self) -> dict:
        """The server's metric snapshot (raises on non-200)."""
        response = self.request("GET", "/metrics")
        if not response.ok:
            raise RuntimeError(f"/metrics returned {response.status}")
        return response.json()

    def simulate(self, spec: dict) -> ApiResponse:
        """POST one SimulationJob spec dict to ``/v1/simulate``."""
        return self.request("POST", "/v1/simulate", payload=spec)

    def predict(self, query: dict) -> ApiResponse:
        """POST one prediction query to ``/v1/predict``."""
        return self.request("POST", "/v1/predict", payload=query)

    def sweep(self, specs: list[dict]) -> ApiResponse:
        """POST a batch of spec dicts to ``/v1/sweep``."""
        return self.request("POST", "/v1/sweep", payload={"jobs": list(specs)})

    def figure(self, figure_id: str) -> ApiResponse:
        """GET one reduced-scale figure reproduction."""
        return self.request("GET", f"/v1/figures/{figure_id}")
