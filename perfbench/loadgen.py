"""Open-loop request generator over a fixed set of keep-alive connections.

Requests carry a due time on a fixed schedule.  Each connection has
one sender thread; a free sender takes the next request in schedule
order, waits until it is due, and sends it.  When every connection is
busy the request waits, so its latency — measured from when it was
due, not from when it was sent — includes the stall (no coordinated
omission).  How far behind schedule requests were sent is recorded
as the generator's lateness.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass

from common import now


@dataclass
class Request:
    due: float  # seconds after the schedule starts
    kind: str
    path: str
    body: bytes
    key: str  # requests with equal keys must get identical bytes
    jobs: int  # simulation results a 200 answer carries
    spec: object = None  # what the gate needs to recompute the answer


@dataclass
class Outcome:
    due: float
    sent: float
    done: float
    status: int  # 0 for a connection error
    body: bytes

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def late_ms(self) -> float:
        return max(0.0, self.sent - self.due) * 1000.0


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host, self.port, self.timeout = host, port, timeout
        self.conn: http.client.HTTPConnection | None = None
        self.pid: int | None = None  # the serving process, once pinned

    def request(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        if self.conn is None:
            self.conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""
        if response.will_close:
            self.close()
        return response.status, data

    def get_json(self, path: str) -> dict:
        status, body = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(body)

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def pinned_connections(host: str, port: int, workers: int, timeout: float = 60.0) -> list:
    """One connection per serving process, checked by ``/healthz`` pid.

    Prefork workers share one listening socket, so which worker
    accepts a connection is up to the kernel; reconnecting until the
    pids differ makes every run spread its load the same way.  Doubles
    as the readiness wait: it returns once every process answers.
    """
    conns: list[Connection] = []
    pids: set[int] = set()
    deadline = now() + timeout
    while len(conns) < workers:
        if now() > deadline:
            for conn in conns:
                conn.close()
            raise RuntimeError(f"could not reach {workers} distinct serving process(es)")
        conn = Connection(host, port)
        try:
            pid = conn.get_json("/healthz")["pid"]
        except (RuntimeError, ValueError, KeyError):
            pid = None
        if pid is None or pid in pids:
            conn.close()
            time.sleep(0.01)
            continue
        pids.add(pid)
        conn.pid = pid
        conns.append(conn)
    return conns


def run_schedule(conns: list, requests: list) -> tuple[list, float, list]:
    """Send ``requests`` on schedule; returns (outcomes, start, sender thread ids).

    Blocks until every request has been answered (or failed).
    """
    outcomes: list[Outcome | None] = [None] * len(requests)
    lock = threading.Lock()
    cursor = [0]
    start = now() + 0.01
    idents: list[int] = []

    def sender(conn: Connection) -> None:
        idents.append(threading.get_ident())
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(requests):
                return
            req = requests[index]
            due = start + req.due
            wait = due - now()
            if wait > 0:
                time.sleep(wait)
            sent = now()
            status, body = conn.request("POST", req.path, req.body)
            outcomes[index] = Outcome(due, sent, now(), status, body)

    threads = [threading.Thread(target=sender, args=(conn,), daemon=True) for conn in conns]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170.0)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("load generator did not finish its schedule")
    return outcomes, start, idents
