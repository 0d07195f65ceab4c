"""Stdlib-only asyncio HTTP ingress in front of the solving service.

:class:`HttpIngress` exposes a :class:`~repro.serving.service.SolveService`
— or a :class:`~repro.serving.replicas.ReplicaSet` — over HTTP/1.1 on a
loopback (or any) interface, speaking the versioned JSON wire schemas of
:mod:`repro.serving.wire`:

====================================  =======================================
``POST /v1/solve``                    one request or ``{"requests": [...]}``
                                      batch; ``?wait=false`` returns 202 +
                                      job id(s) instead of blocking
``GET /v1/jobs/{id}``                 poll a ``wait=false`` submission
``GET /healthz``                      liveness + admission state (503 while
                                      draining)
``GET /metrics``                      metrics snapshot (JSON, or Prometheus
                                      text with ``?format=prometheus``)
``GET /v1/replicas``                  replica routing/health table
``POST /v1/replicas/{id}/eject``      force a replica out of placement
``POST /v1/replicas/{id}/restore``    return it to placement
``POST /v1/drain``                    stop admission, wait for in-flight work
====================================  =======================================

Error mapping is structural, not ad hoc: every failure becomes a
``wire.error_document`` whose ``code`` fixes the HTTP status via
``wire.ERROR_STATUS`` — malformed payloads → 400 (nothing admitted),
queue-full backpressure and the transport's own ``max_inflight`` cap → 429
with ``Retry-After``, draining/stopped → 503 with ``Retry-After``, and a
request shed on deadline → 504 carrying the full wire response (status
``"shed"``) so the client sees exactly what the in-process caller would.

The server is a deliberately small HTTP/1.1 implementation on asyncio
streams (keep-alive, ``Content-Length`` bodies only) — no third-party
runtime dependency, and small enough that the conformance suite in
``tests/test_transport_conformance.py`` is the spec.  The same module
provides :class:`HttpServiceClient`, a blocking stdlib client used by the
tests, the CLI load generator, and the over-the-wire benchmark cells.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

import numpy as np

from ..errors import (
    InvalidInstanceError,
    QueueFullError,
    ReplicaUnavailableError,
    ServiceError,
    ServiceShutdownError,
    WireFormatError,
)
from . import wire
from .policy import BackoffPolicy, FailurePolicy
from .requests import JobStatus, SolveRequest, SolveResponse

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 501: "Not Implemented",
    503: "Service Unavailable", 504: "Gateway Timeout",
}

#: Fallback Retry-After seconds for transient rejections (used when no
#: drain-time estimate is available from the admitting queue).
RETRY_AFTER_SECONDS = {"queue_full": 1, "too_many_inflight": 1,
                       "shutting_down": 5, "replica_unavailable": 5}

#: Load-related rejections advertise the queue's estimated drain time as
#: their Retry-After, clamped to this range — honest enough to spread a
#: thundering herd, bounded enough that a stale estimate can't park
#: clients for minutes.
RETRY_AFTER_MIN_SECONDS = 1
RETRY_AFTER_MAX_SECONDS = 30

#: Error codes whose Retry-After tracks the backlog drain estimate when
#: one is available: overload rejections (queue full, inflight cap) and
#: the draining lifecycle, where "come back once the backlog clears" is
#: the honest answer.  Other lifecycle codes keep their constants.
_DRAIN_RETRY_CODES = frozenset({"queue_full", "too_many_inflight", "shutting_down"})

#: Backwards-compatible alias (the overload subset predates draining
#: joining the estimate-backed codes).
_LOAD_RETRY_CODES = _DRAIN_RETRY_CODES


def retry_after_hint(code: str, drain_seconds: Optional[float] = None) -> Optional[int]:
    """Retry-After seconds to advertise for an error ``code``.

    For drain-tracking codes (queue full, inflight cap, draining) with a
    known queue drain estimate, returns the estimate rounded up and
    clamped to ``[RETRY_AFTER_MIN_SECONDS, RETRY_AFTER_MAX_SECONDS]``;
    otherwise the static :data:`RETRY_AFTER_SECONDS` fallback (``None``
    for codes that should not carry the header at all).  A ``nan`` or
    negative estimate is rejected as unusable (falls back to the static
    hint) rather than leaking into the header.
    """
    if code not in _DRAIN_RETRY_CODES or drain_seconds is None:
        return RETRY_AFTER_SECONDS.get(code)
    drain = float(drain_seconds)
    if math.isnan(drain) or drain < 0:
        return RETRY_AFTER_SECONDS.get(code)
    return max(
        RETRY_AFTER_MIN_SECONDS,
        math.ceil(min(RETRY_AFTER_MAX_SECONDS, drain)),
    )


class _JobTable:
    """Transport-side request tracker: admission cap + ``/v1/jobs`` polling.

    Every admitted request is *pending* until its response arrives; the
    pending count backs the ingress ``max_inflight`` cap.  Responses to
    ``wait=false`` submissions are retained (bounded, oldest evicted) so
    clients can poll and re-fetch them idempotently.
    """

    def __init__(self, max_retained: int = 4096) -> None:
        self._lock = threading.Lock()
        self._pending: set = set()
        self._done: "OrderedDict[int, SolveResponse]" = OrderedDict()
        self.max_retained = int(max_retained)

    def register(self, request_id: int) -> None:
        with self._lock:
            self._pending.add(request_id)

    def resolve(self, request_id: int, response: SolveResponse, *, retain: bool) -> None:
        with self._lock:
            self._pending.discard(request_id)
            if retain:
                self._done[request_id] = response
                while len(self._done) > self.max_retained:
                    self._done.popitem(last=False)

    def lookup(self, request_id: int) -> Optional[Tuple[JobStatus, Optional[SolveResponse]]]:
        with self._lock:
            if request_id in self._pending:
                return JobStatus.QUEUED, None
            response = self._done.get(request_id)
        if response is None:
            return None
        return response.status, response

    @property
    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)

    @property
    def retained_count(self) -> int:
        with self._lock:
            return len(self._done)


class HttpIngress:
    """HTTP front end for a ``SolveService`` or ``ReplicaSet`` backend.

    The backend's lifecycle is owned by the caller: :meth:`close` stops the
    HTTP listener (and its connections) but does not shut the backend down,
    so a drain can be sequenced (backend drains while /healthz reports 503,
    then the listener goes away).

    Use either ``asyncio.run(ingress.serve_async())`` (foreground, e.g. the
    CLI) or :meth:`start_in_thread` (tests, benchmarks) + :meth:`close`.
    """

    def __init__(
        self,
        backend,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: Optional[int] = None,
        max_body_bytes: int = 256 * 1024 * 1024,
        max_retained_jobs: int = 4096,
    ) -> None:
        self.backend = backend
        self.host = host
        self._requested_port = int(port)
        self.max_inflight = max_inflight
        self.max_body_bytes = int(max_body_bytes)
        self.jobs = _JobTable(max_retained_jobs)
        self._port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._startup_error: Optional[BaseException] = None
        self._conn_tasks: set = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        if self._port is None:
            raise RuntimeError("server not started")
        return self._port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def serve_async(self, *, ready: Optional[threading.Event] = None) -> None:
        """Bind and serve until :meth:`close` (or task cancellation)."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        # Every connection from the moment it is accepted: one accepted
        # while the server stops may never reach its handler, and its
        # transport must still be closed before the loop is.
        writers: "weakref.WeakSet[asyncio.StreamWriter]" = weakref.WeakSet()

        def _accepted(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
            writers.add(writer)
            return self._handle_connection(reader, writer)

        try:
            server = await asyncio.start_server(
                _accepted, self.host, self._requested_port
            )
        except BaseException as exc:
            self._startup_error = exc
            if ready is not None:
                ready.set()
            raise
        self._port = server.sockets[0].getsockname()[1]
        if ready is not None:
            ready.set()
        try:
            await self._stop_event.wait()
        finally:
            server.close()
            await server.wait_closed()
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(*self._conn_tasks, return_exceptions=True)
            for writer in list(writers):
                if not writer.transport.is_closing():
                    writer.transport.abort()
            # writer.close() tears transports down via call_soon; yield a
            # few loop iterations so those callbacks run before asyncio.run
            # closes the loop with them still pending (ResourceWarning).
            for _ in range(3):
                await asyncio.sleep(0)

    def start_in_thread(self) -> "HttpIngress":
        """Run the server on a dedicated event-loop thread; returns once bound."""
        ready = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self.serve_async(ready=ready)),
            name="repro-http-ingress",
            daemon=True,
        )
        self._thread.start()
        ready.wait()
        if self._startup_error is not None:
            self._thread.join(timeout=5)
            raise self._startup_error
        return self

    def close(self) -> None:
        """Stop the listener and tear down open connections."""
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def __enter__(self) -> "HttpIngress":
        return self.start_in_thread()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                parsed = await self._read_request(reader, writer)
                if parsed is None:
                    break
                method, target, headers, body = parsed
                keep_alive = headers.get("connection", "keep-alive").lower() != "close"
                status, document, extra = await self._dispatch(method, target, body)
                self._write(writer, status, document, extra, keep_alive=keep_alive)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass
        except asyncio.CancelledError:
            # Deliberate teardown (close() cancels lingering keep-alive
            # connections).  Swallow rather than re-raise: asyncio's stream
            # wrapper task would otherwise log the cancellation as an
            # "exception was never retrieved" error at shutdown.
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        try:
            blob = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean EOF between keep-alive requests
            raise
        head = blob.decode("latin-1")
        request_line, *header_lines = head.split("\r\n")
        parts = request_line.split(" ")
        if len(parts) != 3:
            self._write(writer, 400, wire.error_document(
                "bad_request", f"malformed request line {request_line!r}"), {},
                keep_alive=False)
            await writer.drain()
            return None
        method, target, _version = parts
        headers: Dict[str, str] = {}
        for line in header_lines:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        if "chunked" in headers.get("transfer-encoding", "").lower():
            self._write(writer, 501, wire.error_document(
                "bad_request", "chunked request bodies are not supported; "
                "send Content-Length"), {}, keep_alive=False)
            await writer.drain()
            return None
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            length = -1
        if length < 0:
            self._write(writer, 400, wire.error_document(
                "bad_request",
                f"malformed Content-Length {headers.get('content-length')!r}"),
                {}, keep_alive=False)
            await writer.drain()
            return None
        if length > self.max_body_bytes:
            self._write(writer, 413, wire.error_document(
                "payload_too_large",
                f"request body of {length} bytes exceeds the "
                f"{self.max_body_bytes}-byte limit"), {}, keep_alive=False)
            await writer.drain()
            return None
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    def _write(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        document: Any,
        extra_headers: Dict[str, str],
        *,
        keep_alive: bool,
    ) -> None:
        if isinstance(document, str):
            payload = document.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            payload = json.dumps(document).encode("utf-8")
            content_type = "application/json"
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        lines += [f"{k}: {v}" for k, v in extra_headers.items()]
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _dispatch(self, method: str, target: str, body: bytes) -> Tuple[int, Any, Dict[str, str]]:
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        try:
            if path == "/healthz" and method == "GET":
                return self._healthz()
            if path == "/metrics" and method == "GET":
                return self._metrics(query)
            if path == "/v1/solve":
                if method != "POST":
                    return self._error("method_not_allowed", f"{method} not allowed on {path}")
                return await self._solve(body, query)
            if path.startswith("/v1/jobs/") and method == "GET":
                return self._job(path[len("/v1/jobs/"):])
            if path == "/v1/replicas" and method == "GET":
                return self._replicas()
            if path.startswith("/v1/replicas/") and method == "POST":
                return self._replica_action(path[len("/v1/replicas/"):], body)
            if path == "/v1/drain" and method == "POST":
                return await self._drain_backend(body)
            return self._error("not_found", f"no route for {method} {split.path}")
        except Exception as exc:  # noqa: BLE001 — the wire must answer, not hang up
            return self._map_exception(exc)

    def _map_exception(self, exc: BaseException) -> Tuple[int, Any, Dict[str, str]]:
        """Structural exception → wire error mapping, shared by every
        transport flavour (HTTP dispatch, framed dispatch, push admission)."""
        if isinstance(exc, WireFormatError):
            return self._error("bad_request", str(exc))
        if isinstance(exc, InvalidInstanceError):
            return self._error("invalid_instance", str(exc))
        if isinstance(exc, QueueFullError):
            return self._error("queue_full", str(exc))
        if isinstance(exc, ReplicaUnavailableError):
            return self._error("replica_unavailable", str(exc))
        if isinstance(exc, ServiceShutdownError):
            return self._error("shutting_down", str(exc))
        if isinstance(exc, KeyError):
            return self._error("not_found", str(exc.args[0]) if exc.args else "not found")
        return self._error("internal", f"{type(exc).__name__}: {exc}")

    def _error(self, code: str, message: str) -> Tuple[int, Any, Dict[str, str]]:
        retry_after = retry_after_hint(code, self._drain_estimate(code))
        headers = {} if retry_after is None else {"Retry-After": str(retry_after)}
        return (
            wire.ERROR_STATUS[code],
            wire.error_document(code, message, retry_after=retry_after),
            headers,
        )

    def _drain_estimate(self, code: str) -> Optional[float]:
        """The admitting queue's estimated drain time, when the backend
        exposes one and the code is drain-tracking (429s and draining 503s
        advertise how long the backlog actually takes to clear, not a
        constant)."""
        if code not in _DRAIN_RETRY_CODES:
            return None
        estimate = getattr(self.backend, "estimated_drain_seconds", None)
        if not callable(estimate):
            return None
        try:
            return estimate()
        except Exception:  # noqa: BLE001 — a hint, never worth a 500
            return None

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def _healthz(self) -> Tuple[int, Any, Dict[str, str]]:
        accepting = bool(self.backend.accepting)
        doc = {
            "status": "ok" if accepting else "draining",
            "accepting": accepting,
            "inflight": int(self.backend.inflight),
            "queue_depth": int(self.backend.queue_depth),
            "pending_jobs": self.jobs.pending_count,
            "retained_jobs": self.jobs.retained_count,
        }
        if hasattr(self.backend, "replica_rows"):
            doc["replicas"] = self.backend.replica_rows()
        if accepting:
            return 200, doc, {}
        retry_after = retry_after_hint("shutting_down", self._drain_estimate("shutting_down"))
        headers = {} if retry_after is None else {"Retry-After": str(retry_after)}
        return 503, doc, headers

    def _metrics(self, query: Dict[str, str]) -> Tuple[int, Any, Dict[str, str]]:
        snapshot = self.backend.metrics()
        if query.get("format") == "prometheus":
            return 200, snapshot.as_prometheus(), {}
        doc = {
            "schema": wire.WIRE_SCHEMA,
            "version": wire.WIRE_VERSION,
            "metrics": snapshot.as_dict(),
        }
        if hasattr(self.backend, "replica_rows"):
            doc["replicas"] = self.backend.replica_rows()
        return 200, doc, {}

    def _admit(self, request: SolveRequest, *, retain: bool) -> Tuple[int, "Future[SolveResponse]"]:
        """Admission-check + submit + track one decoded request.

        Returns ``(request_id, handoff)`` where ``handoff`` resolves with
        the response.  The backend's single ``on_response`` registration
        feeds both the job table and the handoff, so there is no window in
        which a fast completion could slip between two registrations.
        """
        if (
            self.max_inflight is not None
            and self.jobs.pending_count >= self.max_inflight
        ):
            raise QueueFullError(
                f"transport has {self.jobs.pending_count} requests in flight "
                f"(max_inflight={self.max_inflight}); retry later"
            )
        request_id = self.backend.submit_request(request, block=False)
        self.jobs.register(request_id)
        handoff: "Future[SolveResponse]" = Future()

        def _on_response(response: SolveResponse) -> None:
            self.jobs.resolve(request_id, response, retain=retain)
            try:
                handoff.set_result(response)
            except Exception:  # noqa: BLE001 — waiter gone (connection
                pass           # cancelled at teardown); the job table kept it

        self.backend.on_response(request_id, _on_response)
        return request_id, handoff

    async def _solve(self, body: bytes, query: Dict[str, str]) -> Tuple[int, Any, Dict[str, str]]:
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireFormatError(f"request body is not valid JSON: {exc}") from exc
        is_batch, requests = wire.decode_solve_payload(payload)
        wait = query.get("wait", "true").lower() not in ("false", "0", "no")

        if not is_batch:
            request_id, handoff = self._admit(requests[0], retain=not wait)
            if not wait:
                return 202, {"schema": wire.WIRE_SCHEMA, "version": wire.WIRE_VERSION,
                             "request_id": request_id,
                             "status": JobStatus.QUEUED.value}, {}
            response = await asyncio.wrap_future(handoff)
            return wire.response_http_status(response), wire.encode_response(response), {}

        # Batch: admit item by item.  Admission is not transactional across
        # items (an admitted request cannot be un-submitted), so items that
        # fail admission come back as per-item "rejected" entries — unless
        # *nothing* was admitted, in which case the whole batch answers
        # with the admission error (429/503) and nothing is in flight.
        admitted: List[Tuple[Optional[Tuple[int, "Future[SolveResponse]"]], Optional[ServiceError]]] = []
        for request in requests:
            try:
                admitted.append((self._admit(request, retain=not wait), None))
            except (QueueFullError, ServiceShutdownError, ReplicaUnavailableError) as exc:
                admitted.append((None, exc))
        if all(entry is None for entry, _ in admitted):
            raise admitted[0][1]
        if not wait:
            return 202, {
                "schema": wire.WIRE_SCHEMA, "version": wire.WIRE_VERSION,
                "request_ids": [entry[0] if entry else None for entry, _ in admitted],
                "rejected": [
                    {"index": index,
                     "error": wire.error_document(self._code_for(exc), str(exc))["error"]}
                    for index, (entry, exc) in enumerate(admitted) if entry is None
                ],
            }, {}
        items: List[Any] = []
        done = 0
        failed = 0
        for entry, exc in admitted:
            if entry is None:
                failed += 1
                items.append({
                    "status": "rejected",
                    "error": wire.error_document(self._code_for(exc), str(exc))["error"],
                })
                continue
            _, handoff = entry
            response = await asyncio.wrap_future(handoff)
            if response.status is JobStatus.DONE:
                done += 1
            else:
                failed += 1
            items.append(wire.encode_response(response))
        return 200, {
            "schema": wire.WIRE_SCHEMA, "version": wire.WIRE_VERSION,
            "responses": items, "completed": done, "errors": failed,
        }, {}

    @staticmethod
    def _code_for(exc: BaseException) -> str:
        if isinstance(exc, QueueFullError):
            return "queue_full"
        if isinstance(exc, ReplicaUnavailableError):
            return "replica_unavailable"
        return "shutting_down"

    def _job(self, raw_id: str) -> Tuple[int, Any, Dict[str, str]]:
        try:
            request_id = int(raw_id)
        except ValueError:
            raise WireFormatError(f"job id must be an integer, got {raw_id!r}") from None
        entry = self.jobs.lookup(request_id)
        if entry is None:
            return self._error("not_found", f"unknown job id {request_id}")
        status, response = entry
        return 200, wire.job_document(request_id, status, response), {}

    def _replicas(self) -> Tuple[int, Any, Dict[str, str]]:
        if not hasattr(self.backend, "replica_rows"):
            return self._error("not_found", "this endpoint fronts a single service, not a replica set")
        return 200, {"schema": wire.WIRE_SCHEMA, "version": wire.WIRE_VERSION,
                     "replicas": self.backend.replica_rows()}, {}

    def _replica_action(self, tail: str, body: bytes) -> Tuple[int, Any, Dict[str, str]]:
        if not hasattr(self.backend, "eject"):
            return self._error("not_found", "this endpoint fronts a single service, not a replica set")
        raw_id, _, action = tail.partition("/")
        try:
            replica_id = int(raw_id)
        except ValueError:
            raise WireFormatError(f"replica id must be an integer, got {raw_id!r}") from None
        if action == "eject":
            if body.strip():
                try:
                    options = json.loads(body.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise WireFormatError(
                        f"eject body is not valid JSON: {exc}"
                    ) from exc
            else:
                options = {}
            drain = bool(options.get("drain", True)) if isinstance(options, dict) else True
            self.backend.eject(replica_id, drain=drain)
        elif action == "restore":
            try:
                self.backend.restore(replica_id)
            except ServiceError as exc:
                return self._error("bad_request", str(exc))
        else:
            return self._error("not_found", f"unknown replica action {action!r}")
        return 200, {"schema": wire.WIRE_SCHEMA, "version": wire.WIRE_VERSION,
                     "replicas": self.backend.replica_rows()}, {}

    async def _drain_backend(self, body: bytes) -> Tuple[int, Any, Dict[str, str]]:
        """``POST /v1/drain``: operator-initiated drain of the backend.

        Stops admission and waits (up to the optional ``timeout`` in the
        body) for in-flight work to finish — the remote half of
        ``SolveService.drain``, which is what a supervisor's
        :class:`~repro.serving.handles.ProcessReplicaHandle` calls to eject
        a child replica without losing its accepted jobs.
        """
        options: Any = {}
        if body.strip():
            try:
                options = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise WireFormatError(f"drain body is not valid JSON: {exc}") from exc
        if not isinstance(options, dict):
            raise WireFormatError("drain body must be a JSON object")
        timeout = options.get("timeout")
        if timeout is not None and (
            isinstance(timeout, bool) or not isinstance(timeout, (int, float)) or timeout < 0
        ):
            raise WireFormatError(f"field 'timeout' must be a number >= 0, got {timeout!r}")
        loop = asyncio.get_running_loop()
        # drain() blocks on worker completion — keep it off the event loop.
        drained = await loop.run_in_executor(None, lambda: self.backend.drain(timeout))
        return 200, {
            "schema": wire.WIRE_SCHEMA, "version": wire.WIRE_VERSION,
            "drained": bool(drained),
            "accepting": bool(self.backend.accepting),
            "inflight": int(self.backend.inflight),
            "queue_depth": int(self.backend.queue_depth),
        }, {}


# ----------------------------------------------------------------------
# blocking clients (tests, CLI load generator, over-the-wire bench cells)
# ----------------------------------------------------------------------
class ServiceClientBase:
    """Transport-agnostic half of the blocking service clients.

    Subclasses provide :meth:`request` (one round trip returning
    ``(status, headers, decoded body)``) and :meth:`close`; everything
    else — endpoint helpers, error mapping, and the opt-in 429 retry
    policy — lives here, so the HTTP client and the framed client expose
    the exact same surface over different byte streams.

    Busy retries (off by default: ``busy_retries=0``) honor the server's
    ``Retry-After`` hint on 429 answers with capped exponential backoff
    and multiplicative jitter: attempt *k* sleeps
    ``min(cap, hint * 2**k) * (1 + U[0, jitter])``, capped again at
    ``busy_backoff_cap``.  Only whole-request admission rejections are
    retried — raw :meth:`request` calls never retry, so callers counting
    429s (or asserting immediate backpressure) see the wire as-is.

    The retry curve is one :class:`~repro.serving.policy.BackoffPolicy` —
    the same implementation that paces reconnects and breaker windows.
    Pass ``policy=`` (a :class:`~repro.serving.policy.FailurePolicy`) to
    source both the request timeout and the retry curve from a shared
    policy object instead of the individual knobs.
    """

    def __init__(
        self,
        *,
        timeout: float = 120.0,
        busy_retries: int = 0,
        busy_backoff_base: float = 0.1,
        busy_backoff_cap: float = 30.0,
        busy_jitter: float = 0.25,
        policy: Optional[FailurePolicy] = None,
        _sleep: Callable[[float], None] = time.sleep,
        _rng: Optional[random.Random] = None,
    ) -> None:
        self.policy = policy
        if policy is not None:
            self.timeout = policy.request_timeout
            self._busy_backoff = policy.retry_backoff
        else:
            self.timeout = timeout
            self._busy_backoff = BackoffPolicy(
                base=float(busy_backoff_base),
                cap=float(busy_backoff_cap),
                multiplier=2.0,
                jitter=float(busy_jitter),
            )
        self.busy_retries = int(busy_retries)
        self.busy_backoff_base = self._busy_backoff.base
        self.busy_backoff_cap = self._busy_backoff.cap
        self.busy_jitter = self._busy_backoff.jitter
        self._sleep = _sleep
        self._rng = _rng if _rng is not None else random.Random()

    # -- transport hooks -----------------------------------------------
    def request(
        self, method: str, path: str, payload: Any = None
    ) -> Tuple[int, Dict[str, str], Any]:
        """One round trip; returns ``(status, headers, decoded body)``."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    # -- busy-retry policy ---------------------------------------------
    @staticmethod
    def _retry_after_hint(headers: Dict[str, str], document: Any) -> Optional[float]:
        value = headers.get("retry-after")
        if value is not None:
            try:
                return float(value)
            except ValueError:
                pass
        error = document.get("error") if isinstance(document, dict) else None
        if isinstance(error, dict):
            seconds = error.get("retry_after_seconds")
            if isinstance(seconds, (int, float)) and not isinstance(seconds, bool):
                return float(seconds)
        return None

    def _busy_delay(self, attempt: int, retry_after: Optional[float]) -> float:
        return self._busy_backoff.delay(attempt, hint=retry_after, rng=self._rng)

    def _send_with_retry(
        self, send: Callable[[], Tuple[int, Dict[str, str], Any]]
    ) -> Tuple[int, Dict[str, str], Any]:
        attempt = 0
        while True:
            status, headers, body = send()
            if status != 429 or attempt >= self.busy_retries:
                return status, headers, body
            self._sleep(self._busy_delay(attempt, self._retry_after_hint(headers, body)))
            attempt += 1

    # -- error mapping -------------------------------------------------
    @staticmethod
    def _raise_for_error(status: int, document: Any) -> None:
        error = document.get("error") if isinstance(document, dict) else None
        if error is None:
            raise ServiceError(f"HTTP {status} with unstructured body: {document!r}")
        code, message = error.get("code"), error.get("message", "")
        if code in ("queue_full", "too_many_inflight"):
            raise QueueFullError(message)
        if code in ("shutting_down", "replica_unavailable"):
            raise ServiceShutdownError(message)
        if code in ("bad_request", "invalid_instance", "payload_too_large"):
            raise WireFormatError(message)
        if code == "not_found":
            raise KeyError(message)
        raise ServiceError(f"{code}: {message}")

    def __enter__(self) -> "ServiceClientBase":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- endpoints -----------------------------------------------------
    def solve(
        self,
        function,
        labels,
        *,
        algorithm: Optional[str] = None,
        audit: Optional[bool] = None,
        priority: int = 0,
        timeout: Optional[float] = None,
        params: Optional[Dict[str, Any]] = None,
    ) -> SolveResponse:
        """Blocking single solve; returns the decoded wire response.

        Terminal non-DONE outcomes (shed, failed, cancelled) come back as a
        ``SolveResponse`` with that status — exactly what the in-process
        ``SolveService.solve`` returns — not as an exception.
        """
        document: Dict[str, Any] = {"function": np.asarray(function).tolist(),
                                    "labels": np.asarray(labels).tolist()}
        if algorithm is not None:
            document["algorithm"] = algorithm
        if audit is not None:
            document["audit"] = audit
        if priority:
            document["priority"] = priority
        if timeout is not None:
            document["timeout"] = timeout
        if params:
            document["params"] = params
        status, _, body = self._send_with_retry(
            lambda: self.request("POST", "/v1/solve", document)
        )
        if isinstance(body, dict) and "request_id" in body and "cost" in body:
            return wire.decode_response(body)
        self._raise_for_error(status, body)
        raise RuntimeError("unreachable")

    def submit(self, document: Dict[str, Any]) -> int:
        """Non-blocking single submission (``?wait=false``); returns the job id."""
        status, _, body = self._send_with_retry(
            lambda: self.request("POST", "/v1/solve?wait=false", document)
        )
        if status != 202:
            self._raise_for_error(status, body)
        return int(body["request_id"])

    def solve_batch(self, documents: List[Dict[str, Any]]) -> Dict[str, Any]:
        """Blocking batch solve; returns the raw batch document."""
        status, _, body = self._send_with_retry(
            lambda: self.request("POST", "/v1/solve", {"requests": documents})
        )
        if status != 200:
            self._raise_for_error(status, body)
        return body

    def job(self, request_id: int) -> Dict[str, Any]:
        status, _, body = self.request("GET", f"/v1/jobs/{request_id}")
        if status != 200:
            self._raise_for_error(status, body)
        return body

    def wait_for_job(self, request_id: int, *, timeout: float = 120.0, poll: float = 0.01) -> SolveResponse:
        """Poll ``/v1/jobs/{id}`` until the job reaches a terminal status."""
        import time as _time

        deadline = _time.monotonic() + timeout
        while True:
            document = self.job(request_id)
            if "response" in document:
                return wire.decode_response(document["response"])
            if _time.monotonic() >= deadline:
                raise TimeoutError(f"job {request_id} still {document['status']} after {timeout}s")
            _time.sleep(poll)

    def healthz(self) -> Tuple[int, Dict[str, Any]]:
        status, _, body = self.request("GET", "/healthz")
        return status, body

    def metrics(self, *, format: Optional[str] = None) -> Any:
        path = "/metrics" if format is None else f"/metrics?format={format}"
        status, _, body = self.request("GET", path)
        if status != 200:
            self._raise_for_error(status, body)
        return body

    def replicas(self) -> List[Dict[str, Any]]:
        status, _, body = self.request("GET", "/v1/replicas")
        if status != 200:
            self._raise_for_error(status, body)
        return body["replicas"]

    def eject(self, replica_id: int, *, drain: bool = True) -> List[Dict[str, Any]]:
        status, _, body = self.request(
            "POST", f"/v1/replicas/{replica_id}/eject", {"drain": drain}
        )
        if status != 200:
            self._raise_for_error(status, body)
        return body["replicas"]

    def restore(self, replica_id: int) -> List[Dict[str, Any]]:
        status, _, body = self.request("POST", f"/v1/replicas/{replica_id}/restore")
        if status != 200:
            self._raise_for_error(status, body)
        return body["replicas"]

    def drain(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """``POST /v1/drain``: stop admission and wait for in-flight work."""
        payload = {} if timeout is None else {"timeout": timeout}
        status, _, body = self.request("POST", "/v1/drain", payload)
        if status != 200:
            self._raise_for_error(status, body)
        return body


class HttpServiceClient(ServiceClientBase):
    """Minimal stdlib HTTP client speaking the serving wire schema.

    One client holds one keep-alive connection (reconnecting transparently
    if the server closed it), so a pool of clients models a pool of
    sockets.  Error bodies are mapped back onto the same exceptions the
    in-process facade raises: queue-full/inflight caps →
    :class:`~repro.errors.QueueFullError`, draining →
    :class:`~repro.errors.ServiceShutdownError`, schema violations →
    :class:`~repro.errors.WireFormatError`; single-request answers that
    carry a full wire response (200/500/503/504) decode to a
    :class:`SolveResponse` whose ``status`` says what happened.
    """

    def __init__(self, base_url: str, *, timeout: float = 120.0, **base_kwargs) -> None:
        import http.client

        super().__init__(timeout=timeout, **base_kwargs)
        split = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
        if split.scheme not in ("", "http"):
            raise ValueError(f"only http:// endpoints are supported, got {base_url!r}")
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80
        self._conn: Optional[http.client.HTTPConnection] = None

    # -- plumbing ------------------------------------------------------
    def _connection(self):
        import http.client

        if self._conn is None:
            self._conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        return self._conn

    def request(
        self, method: str, path: str, payload: Any = None
    ) -> Tuple[int, Dict[str, str], Any]:
        """One round trip; returns ``(status, headers, decoded body)``."""
        import http.client

        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"} if body else {}
        # Only idempotent methods are retried on a dropped connection: a
        # POST /v1/solve may already have been admitted (and billed) by the
        # time the connection dies, so re-sending it would double-submit.
        retriable = method == "GET"
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                raw = conn.getresponse()
            except (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError):
                # Stale keep-alive connection: reconnect once (GET only).
                self.close()
                if attempt or not retriable:
                    raise
                continue
            data = raw.read()
            response_headers = {k.lower(): v for k, v in raw.getheaders()}
            if raw.headers.get("Connection", "").lower() == "close":
                self.close()
            content_type = response_headers.get("content-type", "")
            decoded: Any = data.decode("utf-8", errors="replace")
            if "json" in content_type and data:
                decoded = json.loads(decoded)
            return raw.status, response_headers, decoded
        raise RuntimeError("unreachable")

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "HttpServiceClient":
        return self
