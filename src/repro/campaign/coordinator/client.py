"""``HttpBoardClient``: the lease board spoken over HTTP.

A thin, blocking, stdlib-only (:mod:`http.client`) implementation of
:class:`~repro.campaign.board.Board` against a running
:class:`~repro.campaign.coordinator.server.CoordinatorServer`.  Workers
are synchronous loops — claim, execute for seconds-to-minutes,
complete — so a blocking client with one keep-alive connection is the
right shape; the coordinator end is where concurrency lives.

Failure mapping keeps worker code backend-agnostic:

* lease-protocol failures the server reports (``kind: "board"``) are
  re-raised as :class:`~repro.campaign.leases.LeaseBoardError`, exactly
  what the file board raises;
* transport failures (unreachable coordinator, torn response) raise
  :class:`HttpBoardError`, a ``LeaseBoardError`` subclass, so existing
  ``except LeaseBoardError`` call sites (the CLI, tests) already handle
  them.  Requests retry once over a fresh connection before giving up —
  a coordinator restart mid-campaign costs workers one reconnect, not
  the campaign.

Each client stamps every request with a correlation id
(``<worker-guess>-<seq>`` under a random session prefix) that the
coordinator echoes back and records in its run log, joining worker-side
and coordinator-side audit trails.

A client instance is not thread-safe (one underlying connection); give
each worker thread its own.
"""

from __future__ import annotations

import http.client
import itertools
import uuid
from urllib.parse import urlsplit

from ..board import Board
from ..leases import Lease, LeaseBoardError
from . import wire

__all__ = ["HttpBoardClient", "HttpBoardError"]


class HttpBoardError(LeaseBoardError):
    """The coordinator is unreachable or answered with transport misuse."""


class HttpBoardClient(Board):
    """A :class:`~repro.campaign.board.Board` backed by a coordinator URL.

    Parameters
    ----------
    url:
        ``http://HOST:PORT`` (an optional path prefix is honoured, for
        a coordinator mounted behind a reverse proxy).
    timeout:
        Per-request socket timeout in seconds.
    retries:
        Extra attempts over a fresh connection after a transport error.
    """

    def __init__(self, url: str, *, timeout: float = 30.0, retries: int = 1) -> None:
        split = urlsplit(url if "//" in url else "http://" + url)
        if split.scheme not in ("http", "https"):
            raise ValueError(f"unsupported board URL scheme {split.scheme!r}")
        if not split.hostname:
            raise ValueError(f"no host in board URL {url!r}")
        self.url = url
        self.scheme = split.scheme
        self.host = split.hostname
        self.port = split.port or (443 if split.scheme == "https" else 80)
        self.prefix = split.path.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self._conn: http.client.HTTPConnection | None = None
        self._corr_prefix = uuid.uuid4().hex[:8]
        self._corr_seq = itertools.count(1)

    def describe(self) -> str:
        return f"http board {self.url}"

    # -- transport ------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            factory = (
                http.client.HTTPSConnection if self.scheme == "https"
                else http.client.HTTPConnection
            )
            self._conn = factory(self.host, self.port, timeout=self.timeout)
        return self._conn

    def _drop_connection(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None

    def close(self) -> None:
        """Drop the keep-alive connection (idempotent)."""
        self._drop_connection()

    def __enter__(self) -> "HttpBoardClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request(self, method: str, path: str, doc: dict | None = None) -> dict:
        """One round trip; returns the parsed response document.

        Transport errors retry ``self.retries`` times over a fresh
        connection.  ``complete``/``release``/``heartbeat`` are
        absorbing, so a retry is harmless.  ``claim`` is not idempotent:
        when the coordinator applied a claim whose answer was lost, the
        retry hands this worker the *next* group, and the first stays
        held in its name until the deadline passes — then it is
        reclaimable like any crashed worker's, ``attempts`` + 1.
        """
        body = wire.dumps(doc) if doc is not None else None
        corr = f"{self._corr_prefix}-{next(self._corr_seq)}"
        headers = {wire.CORRELATION_HEADER: corr, "Accept": "application/json"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        last_error: Exception | None = None
        for _attempt in range(self.retries + 1):
            conn = self._connection()
            try:
                conn.request(method, self.prefix + path, body=body, headers=headers)
                response = conn.getresponse()
                payload = response.read()
            except (ConnectionError, http.client.HTTPException, OSError, TimeoutError) as exc:
                last_error = exc
                self._drop_connection()
                continue
            if response.will_close:
                self._drop_connection()
            try:
                answer = wire.loads(payload)
            except wire.WireError as exc:
                raise HttpBoardError(
                    f"coordinator at {self.url} answered unparseable JSON "
                    f"(status {response.status}): {exc}"
                ) from None
            if response.status >= 400:
                message = answer.get("error", f"HTTP {response.status}")
                if answer.get("kind") == "board":
                    raise LeaseBoardError(message)
                raise HttpBoardError(
                    f"coordinator at {self.url} rejected {method} {path}: "
                    f"{message} (HTTP {response.status})"
                )
            return answer
        raise HttpBoardError(
            f"coordinator at {self.url} unreachable after "
            f"{self.retries + 1} attempt(s): {last_error}"
        )

    # -- the Board protocol ---------------------------------------------
    def publish(self, campaign: dict, leases: list[Lease]) -> None:
        self._request(
            "POST", "/v1/publish",
            {"campaign": campaign, "leases": [lease.to_doc() for lease in leases]},
        )

    def claim(self, worker: str, ttl: float = 300.0, group: int = 0):
        request = {"worker": worker, "ttl": ttl}
        if group > 0:
            request["group"] = group
            answer = self._request("POST", "/v1/claim", request)
            return [Lease.from_doc(doc) for doc in answer.get("leases", [])]
        doc = self._request("POST", "/v1/claim", request).get("lease")
        return None if doc is None else Lease.from_doc(doc)

    def heartbeat(self, key: str, worker: str, ttl: float = 300.0) -> bool:
        answer = self._request(
            "POST", "/v1/heartbeat", {"key": key, "worker": worker, "ttl": ttl}
        )
        return bool(answer.get("ok"))

    def complete(self, key, worker: str):
        if isinstance(key, str):
            answer = self._request("POST", "/v1/complete", {"key": key, "worker": worker})
            return bool(answer.get("ok"))
        answer = self._request("POST", "/v1/complete", {"keys": list(key), "worker": worker})
        return [bool(ok) for ok in answer.get("ok", [])]

    def release(self, key: str, worker: str) -> None:
        self._request("POST", "/v1/release", {"key": key, "worker": worker})

    def campaign(self) -> dict:
        return self._request("GET", "/v1/campaign")

    def leases(self) -> list[Lease]:
        answer = self._request("GET", "/v1/leases")
        return [Lease.from_doc(doc) for doc in answer.get("leases", [])]

    def counts(self) -> dict[str, int]:
        # one GET instead of shipping every lease document back
        return {str(k): int(v) for k, v in self._request("GET", "/v1/counts").items()}

    # -- coordinator views beyond the Board protocol ---------------------
    def health(self) -> dict:
        return self._request("GET", "/v1/health")

    def status(self) -> dict:
        """The coordinator's live dashboard document (board-side view)."""
        return self._request("GET", "/v1/status")

    def metrics(self) -> dict:
        """The coordinator process's MetricsRegistry snapshot."""
        return self._request("GET", "/v1/metrics")

    def runlog_tail(self, n: int = 100) -> list[dict]:
        """The last ``n`` events of the coordinator's audit run log."""
        answer = self._request("GET", f"/v1/runlog?n={int(n)}")
        return list(answer.get("events", []))

    def report(self, kind: str = "report") -> dict:
        """The latest published analysis report of one kind.

        Raises :class:`HttpBoardError` (404) until the coordinator was
        started with ``--reports`` and a ``campaign analyze`` run has
        saved that report.
        """
        return self._request("GET", f"/v1/report?kind={kind}")
