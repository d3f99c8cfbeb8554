"""A minimal HTTP/1.1 layer for the serving subsystem.

The serving layer follows the repository's zero-dependency rule the
same way ``repro.net`` does for packets: rather than pulling in a web
framework, this module hand-rolls the small slice of HTTP/1.1 the API
actually needs — request-line + header parsing, ``Content-Length``
bodies, keep-alive connection reuse, and canonical JSON responses.

Two properties matter to the rest of the package:

* **Bounded parsing.**  Header blocks and bodies are size-capped, so a
  misbehaving client can cost at most ``MAX_HEADER_BYTES +
  MAX_BODY_BYTES`` of memory per connection, never an unbounded read.
* **Canonical bodies.**  :func:`canonical_json` is the single encoder
  for every payload the server emits, so "the same simulation result"
  is always the same bytes — the property the coalescing and
  determinism guarantees are stated in terms of.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from email.utils import formatdate

# Wall-clock reads are legitimate here (HTTP Date headers are defined
# as wall time); ``repro/serve`` is on the repro.tools.lint wall-clock
# allowlist.
from time import time as _wall_time

__all__ = [
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "BadRequestError",
    "HttpRequest",
    "HttpResponse",
    "PayloadTooLargeError",
    "canonical_json",
    "json_response",
    "read_request",
    "render_response",
]

#: Upper bound on the request line + header block, in bytes.
MAX_HEADER_BYTES = 16 * 1024

#: Upper bound on a request body, in bytes (job specs are tiny; a
#: sweep of a few thousand specs still fits comfortably).
MAX_BODY_BYTES = 1024 * 1024

#: Reason phrases for the status codes the API actually uses.
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class BadRequestError(Exception):
    """The bytes on the wire are not a parseable HTTP/1.1 request."""


class PayloadTooLargeError(BadRequestError):
    """Headers or body exceeded the configured size caps."""


@dataclass
class HttpRequest:
    """One parsed request: method, split path, headers, raw body."""

    method: str
    target: str
    headers: dict[str, str]
    body: bytes

    @property
    def path(self) -> str:
        """The target without its query string."""
        return self.target.split("?", 1)[0]

    @property
    def query(self) -> dict[str, str]:
        """Query parameters as a plain dict (last value wins)."""
        if "?" not in self.target:
            return {}
        params: dict[str, str] = {}
        for pair in self.target.split("?", 1)[1].split("&"):
            if not pair:
                continue
            key, _, value = pair.partition("=")
            params[key] = value
        return params

    @property
    def keep_alive(self) -> bool:
        """Whether the connection survives this exchange (HTTP/1.1
        default: yes, unless the client said ``Connection: close``)."""
        return self.headers.get("connection", "").lower() != "close"

    def json(self):
        """The body decoded as JSON (:class:`BadRequestError` on junk)."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise BadRequestError(f"request body is not valid JSON: {error}")


@dataclass
class HttpResponse:
    """One response about to be serialized onto the wire."""

    status: int
    body: bytes
    headers: dict[str, str] = field(default_factory=dict)
    content_type: str = "application/json"


def canonical_json(payload) -> bytes:
    """The one JSON encoding every response body goes through.

    Sorted keys and fixed separators make equal payloads equal bytes —
    across requests, across server restarts, and across the direct
    ``ParallelRunner`` path (the byte-identity acceptance test).
    """
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def json_response(
    status: int, payload, headers: dict[str, str] | None = None
) -> HttpResponse:
    """Build a canonical-JSON response."""
    return HttpResponse(
        status=status, body=canonical_json(payload), headers=dict(headers or {})
    )


async def read_request(reader: asyncio.StreamReader) -> HttpRequest | None:
    """Parse one request off the stream; None on clean EOF.

    Raises :class:`BadRequestError` (or its
    :class:`PayloadTooLargeError` subclass) on malformed or oversized
    input — the connection handler turns those into 400/413 and closes.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean EOF between requests (keep-alive close)
        raise BadRequestError("connection closed mid-request")
    except asyncio.LimitOverrunError:
        raise PayloadTooLargeError(
            f"header block exceeds {MAX_HEADER_BYTES} bytes"
        )
    if len(head) > MAX_HEADER_BYTES:
        raise PayloadTooLargeError(
            f"header block exceeds {MAX_HEADER_BYTES} bytes"
        )
    try:
        lines = head.decode("latin-1").split("\r\n")
        method, target, version = lines[0].split(" ", 2)
    except (UnicodeDecodeError, ValueError):
        raise BadRequestError("malformed request line")
    if not version.startswith("HTTP/1."):
        raise BadRequestError(f"unsupported protocol version {version!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise BadRequestError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise BadRequestError(f"bad Content-Length {length_text!r}")
    if length < 0:
        raise BadRequestError("negative Content-Length")
    if length > MAX_BODY_BYTES:
        raise PayloadTooLargeError(f"body exceeds {MAX_BODY_BYTES} bytes")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise BadRequestError("connection closed mid-body")
    return HttpRequest(method=method.upper(), target=target, headers=headers, body=body)


def render_response(response: HttpResponse, keep_alive: bool) -> bytes:
    """Serialize a response, headers first, body verbatim."""
    reason = REASONS.get(response.status, "Unknown")
    lines = [f"HTTP/1.1 {response.status} {reason}"]
    headers = {
        "content-type": response.content_type,
        "content-length": str(len(response.body)),
        "date": formatdate(_wall_time(), usegmt=True),
        "connection": "keep-alive" if keep_alive else "close",
    }
    headers.update({k.lower(): v for k, v in response.headers.items()})
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + response.body
