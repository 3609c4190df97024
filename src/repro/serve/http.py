"""Stdlib JSON/HTTP frontend of the corroboration service.

A thin :mod:`http.server` layer over :class:`~repro.serve.service
.CorroborationService` — no framework, no new dependencies.  Routes:

* ``GET /healthz`` — liveness plus store counters.
* ``GET /statusz`` — the full status snapshot: ledger row counts,
  last-refresh epoch and age, ingest/quarantine totals, request counts
  and latency quantiles (JSON).
* ``GET /metrics`` — Prometheus text exposition (format 0.0.4) of the
  service's metrics registry plus point-in-time serving gauges.
* ``GET /facts/<id>`` — one fact's votes, label, probability, provenance.
* ``GET /sources/<id>/trust`` — one source's current trust + trajectory.
* ``POST /votes`` — body ``{"votes": [{"fact","source","vote"}, ...]}``
  with optional ``"on_error"`` / ``"refresh"``; ingests the batch and (by
  default) refreshes, returning the batch id, the ingest report and the
  refresh decision.

An ``<id>`` is one percent-encoded path segment (``/facts/caf%C3%A9``,
``/sources/s%2F1/trust``), so any id ``POST /votes`` accepts reads back.

Error responses are always JSON with an ``error`` message and a stable
``reason`` code: ``not_found``, ``method_not_allowed`` (with the
``allow`` list), ``length_required``, ``bad_request``, ``bad_json``,
``request_timeout`` (a body that stalls for :data:`BODY_TIMEOUT_S`),
``payload_too_large``, ``internal_error``, or an ingest reason code from
:mod:`repro.resilience.errors`.  What http.server rejects before any
route runs answers the same way (:data:`STDLIB_ERROR_REASONS`), and
closes the connection: ``bad_request`` (a request line it cannot parse),
``uri_too_long``, ``headers_too_large``, ``not_implemented`` (a method
with no handler, such as ``FOO``, or ``HEAD``, whose answer omits the
body) and ``http_version_not_supported``.  A request that carries a
body the handler did not read (a ``POST /votes`` rejected before its
body parse, or a body sent to any other route) closes its connection
after the answer, so a keep-alive client never has those bytes parsed as
its next request.

Every answer leaves in one write, headers and body together, on a socket
with ``TCP_NODELAY`` set: a body written after its headers would wait for
the client's delayed ACK (~40 ms) under Nagle's algorithm.  Only the
``100 Continue`` interim answer to ``Expect: 100-continue`` is a write of
its own, sent before the body is read.

Fault tolerance (see ``docs/serving.md`` — "Serving under failure"):

* ``GET /healthz`` returns **503** whenever the service state machine is
  not ``healthy`` (``degraded`` / ``draining``), so orchestrators can
  gate on it; the JSON body always carries the state, the breaker
  snapshot and the last-good epoch.
* ``POST /votes`` can answer **429** (reason ``backlog_full`` /
  ``refresh_debt``) with a ``Retry-After`` header when admission control
  rejects the write, or **503** (reason ``draining``) during graceful
  drain — both typed :class:`~repro.serve.service.ServeRejected`
  rejections, never raw 500s.
* A refresh that fails *after* the batch committed answers **503**
  (reason ``refresh_failed``) whose body still acknowledges the batch
  (``batch_id`` et al.) — the votes are durable; only the labels lag.
  While the breaker is open the refresh is skipped instead: **200** with
  ``"stale": true``.
* A failed run-ledger write never fails the request: the ledger counts
  it and warns once (:meth:`repro.obs.JsonlRunLog.emit`), and
  ``/metrics`` exports the count as ``repro_serve_telemetry_errors``.

Every request runs under a **trace ID** (honouring a well-formed incoming
``X-Trace-Id`` header, generating one otherwise) that is echoed back in
the ``X-Trace-Id`` response header, bound for the duration of the request
via :func:`repro.obs.trace_scope` — so the service's refresh/query spans
and the store's ingest records carry it — and stamped into the
``serve_request`` run-ledger record and the slow-request WARNING.

Thread-safety is the service's lock (``ThreadingHTTPServer`` handles each
request on its own thread; every handler call funnels through the
service).  Each handled request emits per-route latency observations and
one ``serve_request`` run-ledger record — the service's request log —
carrying the client address and a wall-clock ``ts``.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs import get_logger
from repro.obs.context import coerce_trace_id, new_trace_id, trace_scope
from repro.obs.prom import PROMETHEUS_CONTENT_TYPE
from repro.resilience.errors import ErrorPolicy, IngestError
from repro.serve.service import (
    CorroborationService,
    RefreshFailure,
    ServeRejected,
)

logger = get_logger("repro.serve")

#: Cap on accepted request bodies (a vote batch, not a bulk import).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Longest a ``POST /votes`` body may stall mid-read: below the SIGTERM
#: drain's 10 s wait, so a client that stops sending cannot pin shutdown.
#: Only the body read is timed — idle keep-alive connections are not.
BODY_TIMEOUT_S = 5.0

#: Route templates the handler serves: (method, template) — used both for
#: dispatch bookkeeping and for bounded-cardinality per-route metrics
#: (fact/source IDs never become metric names).
ROUTES = (
    ("GET", "/healthz"),
    ("GET", "/statusz"),
    ("GET", "/metrics"),
    ("GET", "/facts/<id>"),
    ("GET", "/sources/<id>/trust"),
    ("POST", "/votes"),
)

#: The ``reason`` of each answer http.server gives before any route runs
#: (:meth:`CorroborationRequestHandler.send_error`).
STDLIB_ERROR_REASONS = {
    400: "bad_request",
    414: "uri_too_long",
    431: "headers_too_large",
    501: "not_implemented",
    505: "http_version_not_supported",
}


def _segments(path: str) -> list[str]:
    """The non-empty segments of a raw request path, each percent-decoded.

    Splitting before decoding keeps an encoded ``/`` (``%2F``) inside its
    id: ``/sources/s%2F1/trust`` is the source ``s/1``.
    """
    return [urllib.parse.unquote(p) for p in path.split("/") if p]


class CorroborationRequestHandler(BaseHTTPRequestHandler):
    """One request → one service call → one JSON (or exposition) document."""

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"
    # A request line too malformed to name its version still gets a status
    # line (the stdlib default, HTTP/0.9, would send the body alone).
    default_request_version = "HTTP/1.0"
    # TCP_NODELAY on each accepted socket: an answer is one write, so no
    # small segment waits on Nagle's algorithm.
    disable_nagle_algorithm = True
    service: CorroborationService  # set by make_server on the class
    slow_ms: float | None = None
    _retry_after: float | None = None

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Route http.server's own access lines through the repro logger.

        The ``serve_request`` ledger records supersede these, so they stay
        at DEBUG — but they are never silently discarded: ``--log-level
        debug`` surfaces them on stderr like any other library output.
        """
        logger.debug("%s %s", self.address_string(), format % args)

    def log_error(self, format: str, *args) -> None:  # noqa: A002
        """http.server-level errors (bad request line, timeouts) at ERROR."""
        logger.error("%s %s", self.address_string(), format % args)

    def send_error(
        self, code: int, message: str | None = None, explain: str | None = None
    ) -> None:
        """Answer http.server's own rejections as JSON through :meth:`_send`.

        The stdlib calls this before any route runs, for a request it
        cannot parse (a bad request line or version, an over-long line, too
        many headers) or a method with no ``do_*``; ``explain`` is unused.
        """
        message = message or self.responses[code][0]
        self.log_error("code %d, message %s", code, message)
        # Reset what a previous request on this connection may have left.
        self._trace_id = new_trace_id()
        self._retry_after = None
        self.close_connection = True
        payload = {
            "error": message,
            "reason": STDLIB_ERROR_REASONS.get(code, "bad_request"),
        }
        self._answer(code, payload, f"the {code} answer")

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Trace-Id", self._trace_id)
        if self.close_connection:
            self.send_header("Connection", "close")
        if self._retry_after is not None:
            # Whole seconds per RFC 9110, and never 0 (which some clients
            # read as "retry immediately" and hammer).
            self.send_header(
                "Retry-After", str(max(1, round(self._retry_after)))
            )
        # One write, one segment: end_headers() would send the header block
        # alone, and Nagle's algorithm would then hold the body until the
        # client's delayed ACK of it (~40 ms).  An HTTP/0.9 answer buffers
        # no head; a HEAD answer announces its body's length, never the body.
        if self.command == "HEAD":
            body = b""
        head = getattr(self, "_headers_buffer", None)
        self._headers_buffer = []
        self.wfile.write(b"".join([*head, b"\r\n", body]) if head else body)

    def _answer(self, status: int, payload: dict | str, what: str) -> None:
        """Send ``payload``; a client gone mid-response is a warning."""
        if isinstance(payload, str):
            body, content_type = payload.encode(), PROMETHEUS_CONTENT_TYPE
        else:
            body, content_type = json.dumps(payload).encode(), "application/json"
        try:
            self._send(status, body, content_type)
        except OSError as exc:
            # Never let a broken pipe take the handler thread down
            # invisibly.
            logger.warning(
                "client disconnected during %s (trace %s): %s",
                what,
                self._trace_id,
                exc,
            )

    def _observe(
        self,
        method: str,
        path: str,
        template: str,
        status: int,
        seconds: float,
    ) -> None:
        slow = (
            self.slow_ms is not None and seconds * 1000.0 >= self.slow_ms
        )
        obs = self.service.obs
        if obs.enabled:
            obs.metrics.inc("serve.requests")
            obs.metrics.observe("serve.request_seconds", seconds)
            obs.metrics.inc(f"serve.requests_by_route.{method} {template}")
            obs.metrics.inc(f"serve.responses_by_status.{status // 100}xx")
            if status >= 500:
                obs.metrics.inc("serve.errors")
            if slow:
                obs.metrics.inc("serve.slow_requests")
            obs.runlog.emit(
                "serve_request",
                request_method=method,
                path=path,
                status=status,
                seconds=seconds,
                client=self.address_string(),
                ts=round(time.time(), 6),
                trace_id=self._trace_id,
            )
        if slow:
            logger.warning(
                "slow request trace=%s %s %s -> %d in %.1f ms "
                "(threshold %.1f ms)",
                self._trace_id,
                method,
                path,
                status,
                seconds * 1000.0,
                self.slow_ms,
            )

    def _handle(self, method: str) -> None:
        server = self.server
        track = isinstance(server, CorroborationHTTPServer)
        if track:
            server.request_started()
        try:
            self._handle_tracked(method)
        finally:
            if track:
                server.request_finished()

    def _handle_tracked(self, method: str) -> None:
        started = time.perf_counter()
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        self._trace_id = coerce_trace_id(self.headers.get("X-Trace-Id"))
        self._retry_after: float | None = None
        self._body_read = False
        template = path
        with trace_scope(self._trace_id):
            try:
                status, payload, template = self._route(method, path)
            except ServeRejected as exc:
                # Typed backpressure: 429 (admission) / 503 (draining),
                # with a Retry-After hint for well-behaved clients.
                self._retry_after = exc.retry_after
                status, payload = exc.status, {
                    "error": str(exc),
                    "reason": exc.reason,
                    "retry_after": exc.retry_after,
                }
            except IngestError as exc:
                status, payload = 400, {
                    "error": str(exc),
                    "reason": exc.reason,
                    "location": exc.location,
                }
            except Exception as exc:  # noqa: BLE001 — a handler must answer
                logger.exception(
                    "unhandled error serving %s %s (trace %s)",
                    method,
                    path,
                    self._trace_id,
                )
                status, payload = 500, {
                    "error": f"{type(exc).__name__}: {exc}",
                    "reason": "internal_error",
                }
            if not self._body_read and (
                self.headers.get("Content-Length", "0") != "0"
                or "Transfer-Encoding" in self.headers
            ):
                # The body is still on the socket, where a keep-alive
                # connection would parse it as the next request.
                self.close_connection = True
            # Telemetry lands *before* the response bytes: once a client
            # has read its answer, the matching serve_request record and
            # counters are already durable — so a client (or CI curl)
            # may read the ledger immediately.  The recorded latency
            # excludes only the final socket write.
            self._observe(
                method, path, template, status, time.perf_counter() - started
            )
            self._answer(status, payload, f"{method} {path}")

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _allowed_methods(self, path: str) -> list[str]:
        """HTTP methods with a route at ``path`` (template-matched)."""
        parts = _segments(path)
        allowed = []
        for method, template in ROUTES:
            t_parts = [p for p in template.split("/") if p]
            if len(t_parts) != len(parts):
                continue
            if all(
                t.startswith("<") or t == p for t, p in zip(t_parts, parts)
            ):
                allowed.append(method)
        return allowed

    def _route(self, method: str, path: str) -> tuple[int, dict | str, str]:
        """Dispatch; returns ``(status, payload, route_template)``."""
        service = self.service
        parts = _segments(path)
        if method == "GET":
            if path == "/healthz":
                payload = service.healthz()
                # Orchestrators gate on the status code: anything but a
                # healthy state machine is a 503 (body carries details).
                status = 200 if payload["status"] == "healthy" else 503
                return status, payload, "/healthz"
            if path == "/statusz":
                return 200, service.statusz(), "/statusz"
            if path == "/metrics":
                return 200, service.prometheus_text(), "/metrics"
            if len(parts) == 2 and parts[0] == "facts":
                record = service.fact(parts[1])
                if record is None:
                    return 404, {
                        "error": f"unknown fact {parts[1]!r}",
                        "reason": "not_found",
                    }, "/facts/<id>"
                return 200, record, "/facts/<id>"
            if len(parts) == 3 and parts[0] == "sources" and parts[2] == "trust":
                record = service.source_trust(parts[1])
                if record is None:
                    return 404, {
                        "error": f"unknown source {parts[1]!r}",
                        "reason": "not_found",
                    }, "/sources/<id>/trust"
                return 200, record, "/sources/<id>/trust"
        elif method == "POST" and path == "/votes":
            status, payload = self._post_votes()
            return status, payload, "/votes"
        allowed = self._allowed_methods(path)
        if allowed and method not in allowed:
            return 405, {
                "error": f"method {method} not allowed for {path}",
                "reason": "method_not_allowed",
                "allow": allowed,
            }, path
        return 404, {
            "error": f"no route for {method} {path}",
            "reason": "not_found",
        }, path

    def _post_votes(self) -> tuple[int, dict]:
        raw_length = self.headers.get("Content-Length")
        if raw_length is None:
            return 411, {
                "error": "POST /votes requires a Content-Length header",
                "reason": "length_required",
            }
        try:
            length = int(raw_length)
        except ValueError:
            return 400, {
                "error": f"invalid Content-Length {raw_length!r}",
                "reason": "bad_request",
            }
        if length <= 0:
            return 400, {
                "error": "POST /votes requires a JSON body",
                "reason": "bad_request",
            }
        if length > MAX_BODY_BYTES:
            return 413, {
                "error": f"body exceeds {MAX_BODY_BYTES} bytes",
                "reason": "payload_too_large",
            }
        self.connection.settimeout(BODY_TIMEOUT_S)
        try:
            body = self.rfile.read(length)
        except TimeoutError:
            # The socket file cannot be read again after a timeout; the
            # unread body closes the connection.
            return 408, {
                "error": f"body stalled for {BODY_TIMEOUT_S} s",
                "reason": "request_timeout",
            }
        finally:
            self.connection.settimeout(None)
        self._body_read = True
        try:
            document = json.loads(body)
        except (ValueError, RecursionError) as exc:
            # ValueError covers malformed JSON, a body that is not UTF-8
            # and an integer past Python's digit limit; RecursionError a
            # body nested deeper than the parser's stack.
            return 400, {
                "error": f"invalid JSON body: {exc}",
                "reason": "bad_json",
            }
        if not isinstance(document, dict) or not isinstance(
            document.get("votes"), list
        ):
            return 400, {
                "error": 'body must be {"votes": [...]}',
                "reason": "bad_request",
            }
        try:
            on_error = ErrorPolicy.coerce(document.get("on_error", "strict"))
        except (TypeError, ValueError) as exc:
            return 400, {"error": str(exc), "reason": "bad_request"}
        refresh = document.get("refresh", True)
        if not isinstance(refresh, bool):
            return 400, {
                "error": f'"refresh" must be true or false, not {refresh!r}',
                "reason": "bad_request",
            }
        batch, outcome = self.service.apply_votes(
            document["votes"], on_error=on_error, refresh=refresh
        )
        payload = {
            "batch_id": batch.batch_id,
            "new_facts": list(batch.new_facts),
            "new_sources": list(batch.new_sources),
            "votes_added": batch.votes_added,
            "report": batch.report.to_record(),
            "refresh": None if outcome is None else outcome.to_record(),
            "trace_id": self._trace_id,
        }
        if isinstance(outcome, RefreshFailure):
            # The batch committed (it is acknowledged above — clients
            # must NOT retry it) but the labels lag: a typed 503 tells
            # the caller when to nudge the next refresh.
            self._retry_after = outcome.retry_after
            payload.update(
                error=outcome.error,
                reason=outcome.reason,
                retry_after=outcome.retry_after,
                stale=True,
            )
            return 503, payload
        if outcome is not None and outcome.action == "skipped":
            # Breaker open: accepted, but labels are stale until a probe
            # refresh succeeds.
            payload["stale"] = True
        return 200, payload

    def do_GET(self) -> None:  # noqa: N802 — http.server contract
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._handle("POST")

    # Unknown-but-real methods answer a JSON 405 instead of the stdlib's
    # bare 501 ("Unsupported method").
    def do_PUT(self) -> None:  # noqa: N802
        self._handle("PUT")

    def do_DELETE(self) -> None:  # noqa: N802
        self._handle("DELETE")

    def do_PATCH(self) -> None:  # noqa: N802
        self._handle("PATCH")


class CorroborationHTTPServer(ThreadingHTTPServer):
    """Threaded server with in-flight request accounting.

    Graceful drain needs to know when the last in-flight request has
    finished: handler threads are daemonic (a keep-alive connection must
    not pin shutdown forever), so the handler brackets each request with
    :meth:`request_started` / :meth:`request_finished` and the drain
    path blocks on :meth:`wait_idle` before closing the run ledger and
    exiting.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._active = 0
        self._idle = threading.Condition()

    def request_started(self) -> None:
        with self._idle:
            self._active += 1

    def request_finished(self) -> None:
        with self._idle:
            self._active -= 1
            if self._active <= 0:
                self._idle.notify_all()

    def wait_idle(self, timeout: float = 10.0) -> bool:
        """Block until no request is in flight; False on timeout."""
        deadline = time.monotonic() + timeout
        with self._idle:
            while self._active > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
            return True


def make_server(
    service: CorroborationService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    slow_ms: float | None = None,
) -> CorroborationHTTPServer:
    """A ready-to-``serve_forever`` HTTP server bound to ``service``.

    ``port=0`` binds an ephemeral port (tests); read it back from
    ``server.server_address``.  Requests at or above ``slow_ms``
    milliseconds are counted in ``serve.slow_requests`` and logged at
    WARNING through the ``repro.serve`` logger.
    """
    handler = type(
        "BoundHandler",
        (CorroborationRequestHandler,),
        {"service": service, "slow_ms": slow_ms},
    )
    return CorroborationHTTPServer((host, port), handler)
