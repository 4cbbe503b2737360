"""Coordinator wire format: the JSON-over-HTTP contract, in one place.

Both ends of the coordinator speak exactly what this module defines —
the server (:mod:`repro.campaign.coordinator.server`) parses requests
with it, the client (:mod:`repro.campaign.coordinator.client`) builds
them with it — so the contract cannot drift between the two.

The protocol is deliberately small: JSON bodies over HTTP/1.1 with
``Content-Length`` framing (chunked transfer is rejected — a
coordinator request is never large enough to stream).  Mutation verbs
are ``POST``; views are ``GET``::

    POST /v1/publish    {"campaign": {...}, "leases": [<lease doc>, ...]}
    POST /v1/claim      {"worker": str, "ttl": float}  -> {"lease": doc|null}
                        {..., "group": n} -> {"leases": [<lease doc>, ...]}
    POST /v1/heartbeat  {"key": str, "worker": str, "ttl": float} -> {"ok": bool}
    POST /v1/complete   {"key": str, "worker": str} -> {"ok": bool}
                        {"keys": [str, ...], "worker": str} -> {"ok": [bool, ...]}
    POST /v1/release    {"key": str, "worker": str} -> {"ok": true}
    GET  /v1/health     liveness + wire schema version
    GET  /v1/campaign   the published campaign description
    GET  /v1/leases     {"leases": [<lease doc>, ...]}
    GET  /v1/counts     {"pending": n, "leased": n, "done": n}
    GET  /v1/status     dashboard_data() over the board (live JSON)
    GET  /v1/metrics    MetricsRegistry snapshot
    GET  /v1/runlog?n=K the coordinator run log's last K events
    GET  /v1/report?kind=K  latest published analysis report (404 until
                            ``campaign analyze`` saved one; kind defaults
                            to ``report``)

A ``group`` claim hands over up to ``n`` runnable leases of one
trajectory group, a ``heartbeat`` extends every lease of the key's group
the worker holds, and a ``keys`` completion settles a group in one
request — so a worker pays one claim and one complete per trajectory,
not per point.

Lease documents are :meth:`repro.campaign.leases.Lease.to_doc` output,
verbatim — the board file and the wire share one schema, which is what
makes file and HTTP campaigns merge bit-identically.

Errors are ``{"error": msg, "kind": "board" | "http"}``: *board* errors
are lease-protocol failures the caller maps back to
:class:`~repro.campaign.leases.LeaseBoardError`; *http* errors are
transport misuse (bad route, torn body, oversized request) and get 4xx
statuses with a clean JSON body rather than a dropped connection.
"""

from __future__ import annotations

import json

__all__ = [
    "WIRE_SCHEMA",
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "MAX_REQUEST_LINE",
    "CORRELATION_HEADER",
    "REASONS",
    "WireError",
    "dumps",
    "loads",
    "error_doc",
    "str_field",
    "num_field",
    "str_list_field",
    "list_field",
    "dict_field",
]

#: Version of this wire contract; served by ``GET /v1/health`` so a
#: client can refuse to talk across an incompatible upgrade.  2: group
#: claims and completions, lease documents carry their trajectory.
WIRE_SCHEMA = 2

#: Hard cap on request bodies.  The largest legitimate request is a
#: ``publish`` of a full factorial campaign — a few hundred KiB — so
#: anything past 4 MiB is a bug or abuse and is rejected with 413.
MAX_BODY_BYTES = 4 << 20

#: Caps on the HTTP envelope itself (431 past either).
MAX_HEADER_BYTES = 16 * 1024
MAX_REQUEST_LINE = 8 * 1024

#: Requests and responses carry the correlation id in this header; the
#: coordinator echoes it back and stamps it on its run-log events, so a
#: worker-side failure can be joined to the coordinator's audit trail.
CORRELATION_HEADER = "X-Correlation-ID"

#: The status lines this protocol actually uses.
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    411: "Length Required",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


class WireError(Exception):
    """A protocol violation, carrying the HTTP status to answer with.

    ``kind`` distinguishes transport misuse (``"http"``) from lease
    protocol failures (``"board"``); the client re-raises the latter as
    :class:`~repro.campaign.leases.LeaseBoardError`.
    """

    def __init__(self, status: int, message: str, kind: str = "http") -> None:
        super().__init__(message)
        self.status = status
        self.kind = kind

    def to_doc(self) -> dict:
        return error_doc(str(self), kind=self.kind)


def error_doc(message: str, kind: str = "http") -> dict:
    return {"error": message, "kind": kind}


def dumps(doc: dict) -> bytes:
    """Canonical UTF-8 JSON bytes (sorted keys, compact separators)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def loads(body: bytes) -> dict:
    """Parse a request/response body; a non-object or torn body is a 400."""
    if not body:
        raise WireError(400, "empty request body (expected a JSON object)")
    try:
        doc = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise WireError(400, f"unparseable JSON body: {exc}") from None
    if not isinstance(doc, dict):
        raise WireError(400, "request body must be a JSON object")
    return doc


# -- field validators (server-side request checking) -----------------------
def str_field(doc: dict, name: str) -> str:
    value = doc.get(name)
    if not isinstance(value, str) or not value:
        raise WireError(400, f"field {name!r} must be a non-empty string")
    return value


def num_field(doc: dict, name: str, default: float | None = None) -> float:
    value = doc.get(name, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WireError(400, f"field {name!r} must be a number")
    return float(value)


def str_list_field(doc: dict, name: str) -> list[str]:
    value = doc.get(name)
    if not isinstance(value, list) or not all(isinstance(v, str) and v for v in value):
        raise WireError(400, f"field {name!r} must be a list of non-empty strings")
    return value


def list_field(doc: dict, name: str) -> list:
    value = doc.get(name)
    if not isinstance(value, list):
        raise WireError(400, f"field {name!r} must be a list")
    return value


def dict_field(doc: dict, name: str) -> dict:
    value = doc.get(name)
    if not isinstance(value, dict):
        raise WireError(400, f"field {name!r} must be a JSON object")
    return value
