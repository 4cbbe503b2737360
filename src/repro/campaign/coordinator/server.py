"""The asyncio HTTP campaign coordinator.

One :class:`CoordinatorServer` process replaces the shared-filesystem
lease file for campaigns whose workers share nothing but a network: it
owns a :class:`~repro.campaign.board.Board` (by default a
:class:`~repro.campaign.leases.LeaseBoard` over a local state file, so
restarts reload in-flight campaigns for free) and serves the lease
protocol plus read-only views over plain HTTP/1.1 — stdlib only, no
framework.

Concurrency model (as deliberately boring as the file board's):

* requests are parsed asynchronously, but every board mutation is a
  synchronous call made between awaits — the event loop serializes
  them, so two racing ``claim`` requests can never observe the same
  board state and double-assign a key;
* liveness stays lease expiry: the coordinator's clock (injectable for
  tests) decides TTL reclamation exactly as the file board does, so a
  worker crash costs one TTL over HTTP too;
* state survives restarts because the backing board is the persistence:
  kill the coordinator, start it on the same state file, and every
  lease — held, expired, or done — is where it was.

Observability is the repo's usual plumbing: every request increments
``coordinator.requests`` (by route) in the global
:class:`~repro.instrument.metrics.MetricsRegistry`, every mutation is
appended to a :class:`~repro.instrument.runlog.RunLog` with the
caller's correlation id, and ``GET /v1/status|metrics|leases|runlog``
serve live JSON mid-campaign.

Wall-clock reads here are real coordination time (lease deadlines, log
timestamps), hence the ``noqa: REP104`` markers; tests inject ``now``.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from ...instrument.metrics import REGISTRY
from ...instrument.runlog import RunLog
from ..board import Board
from ..dashboard import dashboard_data
from ..leases import Lease, LeaseBoard, LeaseBoardError
from . import wire

__all__ = ["CoordinatorServer", "CoordinatorThread"]


class CoordinatorServer:
    """The coordinator: a board served over asyncio HTTP.

    Parameters
    ----------
    board:
        The backing :class:`~repro.campaign.board.Board`, or a state
        file path to open a :class:`~repro.campaign.leases.LeaseBoard`
        over (the restart-survival story).
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    now:
        Clock for TTL decisions and log timestamps; tests inject a fake.
        Only consulted when the server constructs its own ``LeaseBoard``
        (a pre-built board keeps the clock it was built with).
    runlog:
        Coordinator audit log; defaults to an in-memory
        :class:`~repro.instrument.runlog.RunLog` (served by
        ``GET /v1/runlog``).  Pass a file-backed one to persist it.
    max_body, read_timeout:
        Request hygiene: bodies over ``max_body`` bytes are rejected
        with 413; a connection idle or stalled past ``read_timeout``
        seconds mid-request is answered 408 and dropped.
    report_dir:
        Directory holding published analysis reports
        (``<kind>-latest.json``, as written by
        :func:`~repro.campaign.analytics.run_analysis` into
        ``<store>/reports``).  When set, ``GET /v1/report?kind=K``
        serves the latest document read-only; when unset the endpoint
        answers 404.
    """

    def __init__(
        self,
        board: Board | str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        now=None,
        runlog: RunLog | None = None,
        max_body: int = wire.MAX_BODY_BYTES,
        read_timeout: float = 30.0,
        report_dir: str | Path | None = None,
    ) -> None:
        self._now = now if now is not None else time.time  # noqa: REP104 — lease deadlines
        if not isinstance(board, Board):
            board = LeaseBoard(board, now=self._now)
        self.board = board
        self.host = host
        self.port = port
        self.runlog = runlog if runlog is not None else RunLog(None, now=self._now)
        self.runlog.context.setdefault("role", "coordinator")
        self.max_body = max_body
        self.read_timeout = read_timeout
        self.report_dir = Path(report_dir) if report_dir is not None else None
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task] = set()

    # -- lifecycle ------------------------------------------------------
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def start(self) -> None:
        """Bind and start accepting; resolves :attr:`port` when it was 0."""
        self._server = await asyncio.start_server(self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.runlog.log("coordinator_start", url=self.url, board=self.board.describe())

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
            self.runlog.log("coordinator_stop", url=self.url)
        # wait_closed() covers the listener only; drop the established
        # keep-alive connections too, so stop() leaves no pending tasks
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    # -- one connection -------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except wire.WireError as exc:
                    # protocol misuse: answer cleanly, then drop the
                    # connection (framing can no longer be trusted)
                    REGISTRY.counter("coordinator.http_errors").increment(status=exc.status)
                    writer.write(self._format_response(exc.status, exc.to_doc(), close=True))
                    await writer.drain()
                    break
                if request is None:  # clean EOF between requests
                    break
                method, path, query, headers, body = request
                corr = headers.get(wire.CORRELATION_HEADER.lower())
                status, doc = self._dispatch(method, path, query, body, corr)
                writer.write(self._format_response(status, doc, corr=corr))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass  # peer vanished or stop() cancelled us; lease TTLs recover
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader):
        """Parse one HTTP/1.1 request; None on clean EOF before a request."""
        try:
            line = await asyncio.wait_for(reader.readline(), self.read_timeout)
        except asyncio.TimeoutError:
            raise wire.WireError(408, "timed out waiting for a request line") from None
        if not line:
            return None
        if len(line) > wire.MAX_REQUEST_LINE:
            raise wire.WireError(431, "request line too long")
        parts = line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
            raise wire.WireError(400, "malformed HTTP request line")
        method, target = parts[0], parts[1]
        split = urlsplit(target)
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}

        headers: dict[str, str] = {}
        header_bytes = 0
        while True:
            try:
                raw = await asyncio.wait_for(reader.readline(), self.read_timeout)
            except asyncio.TimeoutError:
                raise wire.WireError(408, "timed out reading headers") from None
            if raw in (b"\r\n", b"\n"):
                break
            if not raw:
                raise wire.WireError(400, "connection closed mid-headers")
            header_bytes += len(raw)
            if header_bytes > wire.MAX_HEADER_BYTES:
                raise wire.WireError(431, f"headers over {wire.MAX_HEADER_BYTES} byte limit")
            name, sep, value = raw.decode("latin-1").partition(":")
            if not sep:
                raise wire.WireError(400, f"malformed header line {raw[:64]!r}")
            headers[name.strip().lower()] = value.strip()

        body = b""
        if "transfer-encoding" in headers:
            raise wire.WireError(411, "chunked bodies not supported; send Content-Length")
        length = headers.get("content-length")
        if length is not None:
            try:
                n = int(length)
            except ValueError:
                raise wire.WireError(400, f"unparseable Content-Length {length!r}") from None
            if n < 0:
                raise wire.WireError(400, "negative Content-Length")
            if n > self.max_body:
                raise wire.WireError(413, f"request body over {self.max_body} byte limit")
            try:
                body = await asyncio.wait_for(reader.readexactly(n), self.read_timeout)
            except asyncio.IncompleteReadError as exc:
                raise wire.WireError(
                    400,
                    f"torn request body: got {len(exc.partial)} of {n} declared bytes",
                ) from None
            except asyncio.TimeoutError:
                raise wire.WireError(408, "timed out reading the request body") from None
        return method, split.path, query, headers, body

    def _format_response(self, status, doc, corr=None, close=False) -> bytes:
        payload = wire.dumps(doc)
        head = [
            f"HTTP/1.1 {status} {wire.REASONS.get(status, 'Error')}",
            "Content-Type: application/json",
            f"Content-Length: {len(payload)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        if corr:
            head.append(f"{wire.CORRELATION_HEADER}: {corr}")
        return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload

    # -- routing --------------------------------------------------------
    #: route table: (method, path) -> handler attribute.  Mutations POST,
    #: views GET; a known path with the wrong method answers 405.
    ROUTES = {
        ("POST", "/v1/publish"): "_do_publish",
        ("POST", "/v1/claim"): "_do_claim",
        ("POST", "/v1/heartbeat"): "_do_heartbeat",
        ("POST", "/v1/complete"): "_do_complete",
        ("POST", "/v1/release"): "_do_release",
        ("GET", "/v1/health"): "_get_health",
        ("GET", "/v1/campaign"): "_get_campaign",
        ("GET", "/v1/leases"): "_get_leases",
        ("GET", "/v1/counts"): "_get_counts",
        ("GET", "/v1/status"): "_get_status",
        ("GET", "/v1/metrics"): "_get_metrics",
        ("GET", "/v1/runlog"): "_get_runlog",
        ("GET", "/v1/report"): "_get_report",
    }

    def _dispatch(self, method, path, query, body, corr):
        """Route one parsed request; returns ``(status, response doc)``.

        Handlers run synchronously (no awaits), which is the
        double-assignment guarantee: the event loop cannot interleave
        two mutations.
        """
        name = self.ROUTES.get((method, path))
        if name is None:
            known_paths = {p for _, p in self.ROUTES}
            status = 405 if path in known_paths else 404
            REGISTRY.counter("coordinator.http_errors").increment(status=status)
            return status, wire.error_doc(
                f"method {method} not allowed for {path}" if status == 405
                else f"unknown endpoint {path}"
            )
        REGISTRY.counter("coordinator.requests").increment(route=path.rsplit("/", 1)[-1])
        try:
            doc = wire.loads(body) if method == "POST" else {}
            return 200, getattr(self, name)(doc, query, corr)
        except wire.WireError as exc:
            REGISTRY.counter("coordinator.http_errors").increment(status=exc.status)
            return exc.status, exc.to_doc()
        except LeaseBoardError as exc:
            # lease-protocol failure (e.g. nothing published yet): a
            # board-kind error the client maps back to LeaseBoardError
            return 409, wire.error_doc(str(exc), kind="board")
        except Exception as exc:  # a handler bug must not kill the server
            REGISTRY.counter("coordinator.http_errors").increment(status=500)
            self.runlog.log("coordinator_error", error=f"{type(exc).__name__}: {exc}")
            return 500, wire.error_doc(f"{type(exc).__name__}: {exc}")

    # -- mutation handlers ----------------------------------------------
    def _do_publish(self, doc, query, corr):
        campaign = wire.dict_field(doc, "campaign")
        lease_docs = wire.list_field(doc, "leases")
        try:
            leases = [Lease.from_doc(entry) for entry in lease_docs]
        except (KeyError, TypeError) as exc:
            raise wire.WireError(400, f"malformed lease document: {exc}") from None
        self.board.publish(campaign, leases)
        self.runlog.log("publish", leases=len(leases), correlation=corr)
        return {"ok": True, "leases": len(leases)}

    def _do_claim(self, doc, query, corr):
        worker = wire.str_field(doc, "worker")
        ttl = wire.num_field(doc, "ttl", 300.0)
        group = int(wire.num_field(doc, "group", 0))
        claimed = self.board.claim(worker, ttl=ttl, group=max(group, 1))
        for lease in claimed:
            self.runlog.log(
                "claim", key=lease.key, worker=worker,
                attempt=lease.attempts, correlation=corr,
            )
        if group > 0:
            return {"leases": [lease.to_doc() for lease in claimed]}
        return {"lease": claimed[0].to_doc() if claimed else None}

    def _do_heartbeat(self, doc, query, corr):
        key = wire.str_field(doc, "key")
        worker = wire.str_field(doc, "worker")
        ttl = wire.num_field(doc, "ttl", 300.0)
        ok = self.board.heartbeat(key, worker, ttl=ttl)
        self.runlog.log("heartbeat", key=key, worker=worker, ok=ok, correlation=corr)
        return {"ok": ok}

    def _do_complete(self, doc, query, corr):
        worker = wire.str_field(doc, "worker")
        group = "keys" in doc
        keys = wire.str_list_field(doc, "keys") if group else [wire.str_field(doc, "key")]
        settled = self.board.complete(keys, worker)
        for key, ok in zip(keys, settled):
            self.runlog.log("complete", key=key, worker=worker, ok=ok, correlation=corr)
        return {"ok": settled if group else settled[0]}

    def _do_release(self, doc, query, corr):
        key = wire.str_field(doc, "key")
        worker = wire.str_field(doc, "worker")
        self.board.release(key, worker)
        self.runlog.log("release", key=key, worker=worker, correlation=corr)
        return {"ok": True}

    # -- view handlers ---------------------------------------------------
    def _get_health(self, doc, query, corr):
        return {"ok": True, "schema": wire.WIRE_SCHEMA, "board": self.board.describe()}

    def _get_campaign(self, doc, query, corr):
        return self.board.campaign()

    def _get_leases(self, doc, query, corr):
        return {"leases": [lease.to_doc() for lease in self.board.leases()]}

    def _get_counts(self, doc, query, corr):
        return self.board.counts()

    def _get_status(self, doc, query, corr):
        try:
            return dashboard_data(None, self.board, now=self._now())
        except LeaseBoardError:
            return dashboard_data(None, None, now=self._now())  # nothing published yet

    def _get_metrics(self, doc, query, corr):
        return REGISTRY.snapshot()

    def _get_runlog(self, doc, query, corr):
        try:
            n = int(query.get("n", 100))
        except ValueError:
            raise wire.WireError(400, "query parameter 'n' must be an integer") from None
        events = self.runlog.events[-max(n, 0):] if n else []
        return {"events": events}

    def _get_report(self, doc, query, corr):
        """Serve the latest published analysis report, read-only.

        ``kind`` selects the analyzer (default ``report``); the bytes
        come straight from the canonical JSON ``run_analysis`` saved, so
        what the endpoint serves is exactly what the byte-identity
        contract covers.
        """
        if self.report_dir is None:
            raise wire.WireError(404, "coordinator started without --reports")
        kind = query.get("kind", "report")
        if not kind.isidentifier():  # path-traversal hygiene before building the name
            raise wire.WireError(400, f"invalid report kind {kind!r}")
        path = self.report_dir / f"{kind}-latest.json"
        if not path.is_file():
            raise wire.WireError(404, f"no {kind!r} report published yet")
        try:
            return json.loads(path.read_text())
        except ValueError as exc:
            raise wire.WireError(500, f"saved {kind!r} report is unreadable: {exc}") from None


class CoordinatorThread:
    """Run a :class:`CoordinatorServer` on a daemon thread.

    The embedding idiom for tests and in-process tooling::

        with CoordinatorThread(tmp_path / "board.json") as coord:
            client = HttpBoardClient(coord.url)
            ...

    The CLI (``repro campaign coordinator``) runs the server on the
    main thread instead; this helper exists so a synchronous caller can
    stand a live coordinator up without touching asyncio.
    """

    def __init__(self, board: Board | str | Path, **kw) -> None:
        self.server = CoordinatorServer(board, **kw)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return self.server.url

    def __enter__(self) -> "CoordinatorThread":
        started = threading.Event()
        failure: list[BaseException] = []
        self._loop = asyncio.new_event_loop()

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            try:
                self._loop.run_until_complete(self.server.start())
            except BaseException as exc:  # bind failure: surface in __enter__
                failure.append(exc)
                started.set()
                return
            started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(target=run, name="repro-coordinator", daemon=True)
        self._thread.start()
        if not started.wait(timeout=10.0):
            raise RuntimeError("coordinator failed to start within 10 s")
        if failure:
            raise failure[0]
        return self

    def __exit__(self, *exc_info) -> None:
        if self._loop is None:
            return
        future = asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop)
        try:
            future.result(timeout=10.0)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
            self._loop.close()
            self._loop = None
