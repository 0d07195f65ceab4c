"""Length-prefixed binary framing: the second serving transport.

This module puts a *framed* protocol next to the HTTP ingress of
:mod:`repro.serving.transport`, reusing the exact same versioned JSON
payloads from :mod:`repro.serving.wire` — the bytes inside a frame body
are bit-identical to the bytes inside an HTTP body, so everything the
conformance suite asserts about decoding, billing, and error mapping
holds unchanged.  What framing adds over HTTP/1.1 is *multiplexing*: one
connection carries many concurrent requests correlated by id, and the
server can push unsolicited frames — job responses for submit-and-push
admissions, and heartbeats advertising the backend's health.  Both are
what :class:`~repro.serving.handles.ProcessReplicaHandle` is built on.

Protocol
--------

A client opens the connection by sending the 4-byte magic ``RPF1``.  After
that, both directions speak frames::

    u32  length      (big-endian, payload bytes after the crc field)
    u32  crc         (CRC-32 of the payload; mismatch = corrupted frame,
                      the connection is dropped rather than trusting it)
    u64  corr_id     (client-chosen correlation id; 0 = unsolicited)
    u8   kind        (REQUEST / RESPONSE / PUSH / HEARTBEAT / AUTH)
    ...  kind-specific payload

The checksum is what makes injected byte corruption *detectable*: a
flipped bit anywhere in a frame surfaces as a clean connection drop (and
from there the normal reconnect/re-home path), never as a silently wrong
response.

When the server is constructed with a shared ``auth_secret``, the first
frame after the magic must be an ``AUTH`` frame whose payload is the
secret (compared with ``hmac.compare_digest``); anything else — including
a sniffed HTTP request — drops the connection without an answer.  Servers
without a secret ignore a leading ``AUTH`` frame, so clients may always
send one.

``REQUEST`` carries ``u8 method, u16 path_len, path, body`` — method/path
route through the *same* dispatch table as HTTP, so every endpoint
(``/v1/solve``, ``/healthz``, ``/metrics``, replica admin) exists on both
transports for free.  ``RESPONSE``/``PUSH``/``HEARTBEAT`` carry
``u16 status, u8 n_headers, (u16 klen, k, u16 vlen, v)*, body``.

Two framed-only routes exist:

* ``POST /v1/solve?wait=push`` — submit-and-push: the server answers 202
  immediately (``RESPONSE`` frame) and later pushes the solved wire
  response as a ``PUSH`` frame with the same correlation id;
* ``POST /v1/heartbeats {"interval": s}`` — the server starts pushing
  ``HEARTBEAT`` frames (corr_id 0) carrying advertised ``accepting`` /
  ``inflight`` / ``queue_depth`` plus a metrics snapshot.

Protocol sniffing
-----------------

:class:`FramedIngress` serves *both* protocols on one port: the first 4
bytes of a connection select framed (magic) or HTTP/1.1 (anything else,
e.g. ``GET ``/``POST``), so HTTP clients — including the conformance
suite's raw-socket probes and the CLI load generator — keep working
against a framed endpoint unchanged.
"""

from __future__ import annotations

import asyncio
import hmac
import itertools
import json
import socket
import struct
import threading
import zlib
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..errors import FramingError, WireFormatError
from . import wire
from .requests import JobStatus
from .transport import HttpIngress, ServiceClientBase

#: Connection preamble distinguishing framed clients from HTTP ones.
MAGIC = b"RPF1"

#: Frame kinds.
KIND_REQUEST = 1    #: client -> server: method/path/body
KIND_RESPONSE = 2   #: server -> client: answer to a REQUEST (same corr_id)
KIND_PUSH = 3       #: server -> client: deferred solve answer (wait=push)
KIND_HEARTBEAT = 4  #: server -> client: unsolicited health advertisement
KIND_AUTH = 5       #: client -> server: shared-secret handshake (first frame)

_METHOD_CODES = {"GET": 0, "POST": 1}
_METHOD_NAMES = {code: name for name, code in _METHOD_CODES.items()}

#: Framing overhead allowed on top of ``max_body_bytes`` (headers, path).
_FRAME_SLACK = 64 * 1024

#: Client-side ceiling on a single frame: a corrupted length field must
#: surface as a framing error, not a multi-gigabyte read.
_CLIENT_MAX_FRAME = 512 * 1024 * 1024


# ----------------------------------------------------------------------
# frame codec
# ----------------------------------------------------------------------
def _frame(payload: bytes) -> bytes:
    """Prefix ``payload`` with the ``u32 length | u32 crc`` frame header."""
    return struct.pack("!II", len(payload), zlib.crc32(payload)) + payload


def encode_request_frame(corr_id: int, method: str, path: str, body: bytes) -> bytes:
    """Client-side frame: ``REQUEST(method, path, body)``."""
    code = _METHOD_CODES.get(method)
    if code is None:
        raise FramingError(f"framed transport supports {sorted(_METHOD_CODES)}, not {method!r}")
    raw_path = path.encode("utf-8")
    if len(raw_path) > 0xFFFF:
        raise FramingError(f"request path of {len(raw_path)} bytes exceeds the u16 limit")
    payload = struct.pack("!QBBH", corr_id, KIND_REQUEST, code, len(raw_path)) + raw_path + body
    return _frame(payload)


def encode_auth_frame(secret: str) -> bytes:
    """Client-side frame: ``AUTH(secret)`` — sent right after the magic."""
    payload = struct.pack("!QB", 0, KIND_AUTH) + secret.encode("utf-8")
    return _frame(payload)


def encode_reply_frame(
    corr_id: int, kind: int, status: int, headers: Dict[str, str], body: bytes
) -> bytes:
    """Server-side frame: ``RESPONSE`` / ``PUSH`` / ``HEARTBEAT``."""
    if len(headers) > 0xFF:
        raise FramingError(f"{len(headers)} headers exceed the u8 limit")
    blob = struct.pack("!QBHB", corr_id, kind, status, len(headers))
    for name, value in headers.items():
        raw_name, raw_value = name.encode("utf-8"), str(value).encode("utf-8")
        if len(raw_name) > 0xFFFF or len(raw_value) > 0xFFFF:
            raise FramingError("header name/value exceeds the u16 limit")
        blob += struct.pack("!H", len(raw_name)) + raw_name
        blob += struct.pack("!H", len(raw_value)) + raw_value
    blob += body
    return _frame(blob)


def decode_request_payload(payload: bytes) -> Tuple[str, str, bytes]:
    """Parse the kind-specific part of a ``REQUEST`` frame."""
    if len(payload) < 3:
        raise FramingError("truncated REQUEST frame")
    code, path_len = struct.unpack_from("!BH", payload)
    method = _METHOD_NAMES.get(code)
    if method is None:
        raise FramingError(f"unknown method code {code}")
    if len(payload) < 3 + path_len:
        raise FramingError("REQUEST frame shorter than its declared path")
    path = payload[3:3 + path_len].decode("utf-8", errors="replace")
    return method, path, payload[3 + path_len:]


def decode_reply_payload(payload: bytes) -> Tuple[int, Dict[str, str], bytes]:
    """Parse the kind-specific part of a ``RESPONSE``/``PUSH``/``HEARTBEAT``."""
    if len(payload) < 3:
        raise FramingError("truncated reply frame")
    status, n_headers = struct.unpack_from("!HB", payload)
    offset = 3
    headers: Dict[str, str] = {}
    for _ in range(n_headers):
        if len(payload) < offset + 2:
            raise FramingError("truncated header block")
        (klen,) = struct.unpack_from("!H", payload, offset)
        offset += 2
        name = payload[offset:offset + klen].decode("utf-8", errors="replace")
        offset += klen
        if len(payload) < offset + 2:
            raise FramingError("truncated header block")
        (vlen,) = struct.unpack_from("!H", payload, offset)
        offset += 2
        headers[name.lower()] = payload[offset:offset + vlen].decode("utf-8", errors="replace")
        offset += vlen
    if len(payload) < offset:
        raise FramingError("truncated header block")
    return status, headers, payload[offset:]


# ----------------------------------------------------------------------
# server
# ----------------------------------------------------------------------
class _PrefixedReader:
    """A StreamReader wrapper replaying the sniffed preamble bytes first.

    Only the two read methods the HTTP path uses are provided.  The
    4-byte prefix can never end mid-``\\r\\n\\r\\n`` separator (HTTP method
    names contain no CR/LF), so delegating ``readuntil`` after the prefix
    is exhausted cannot split a separator across the boundary.
    """

    def __init__(self, prefix: bytes, reader: asyncio.StreamReader) -> None:
        self._prefix = prefix
        self._reader = reader

    async def readuntil(self, separator: bytes) -> bytes:
        if self._prefix:
            index = self._prefix.find(separator)
            if index != -1:
                end = index + len(separator)
                data, self._prefix = self._prefix[:end], self._prefix[end:]
                return data
            data = self._prefix + await self._reader.readuntil(separator)
            self._prefix = b""
            return data
        return await self._reader.readuntil(separator)

    async def readexactly(self, n: int) -> bytes:
        if self._prefix:
            if len(self._prefix) >= n:
                data, self._prefix = self._prefix[:n], self._prefix[n:]
                return data
            data = self._prefix + await self._reader.readexactly(n - len(self._prefix))
            self._prefix = b""
            return data
        return await self._reader.readexactly(n)


@dataclass
class _FramedConn:
    """Per-connection server state: serialized writes, in-flight subtasks."""

    writer: asyncio.StreamWriter
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    tasks: set = field(default_factory=set)


class FramedIngress(HttpIngress):
    """One port, two protocols: framed (magic preamble) or HTTP/1.1.

    Inherits every HTTP route, the dispatch table, and the lifecycle from
    :class:`~repro.serving.transport.HttpIngress`; framed connections go
    through the same ``_dispatch``, so both transports answer identically
    byte-for-byte at the payload level.

    ``auth_secret`` (optional) requires every framed connection to open
    with a matching ``AUTH`` frame — and disables the HTTP fallback
    entirely, since HTTP requests carry no secret.
    """

    def __init__(self, backend, *, auth_secret: Optional[str] = None, **kwargs) -> None:
        super().__init__(backend, **kwargs)
        self.auth_secret = auth_secret

    async def _handle_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            preamble = await reader.readexactly(len(MAGIC))
        except (asyncio.IncompleteReadError, ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            # Includes shutdown racing a connection that never sent its
            # preamble: close quietly instead of leaking CancelledError
            # into the event loop's exception handler.
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass
            return
        if preamble == MAGIC:
            await self._handle_framed(reader, writer)
        elif self.auth_secret is not None:
            # Auth-protected servers speak framed only: no HTTP fallback.
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        else:
            await super()._handle_connection(_PrefixedReader(preamble, reader), writer)

    async def _handle_framed(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        conn = _FramedConn(writer)
        authed = self.auth_secret is None
        seen_auth = False
        try:
            while True:
                length, crc = struct.unpack("!II", await reader.readexactly(8))
                if length < 9 or length > self.max_body_bytes + _FRAME_SLACK:
                    break  # protocol violation: drop the connection
                blob = await reader.readexactly(length)
                if zlib.crc32(blob) != crc:
                    break  # corrupted frame: drop rather than trust it
                corr_id, kind = struct.unpack_from("!QB", blob)
                if kind == KIND_AUTH:
                    if seen_auth:
                        break  # at most one AUTH frame, and only first
                    seen_auth = True
                    if self.auth_secret is not None:
                        if not hmac.compare_digest(
                            blob[9:], self.auth_secret.encode("utf-8")
                        ):
                            break  # wrong secret: drop without an answer
                        authed = True
                    continue  # secret-less servers tolerate a leading AUTH
                if not authed:
                    break  # first frame must be AUTH when a secret is set
                seen_auth = True  # any non-AUTH frame ends the handshake window
                if kind != KIND_REQUEST:
                    break  # clients may only send REQUEST frames
                try:
                    method, path, body = decode_request_payload(blob[9:])
                except FramingError:
                    break
                sub = asyncio.ensure_future(
                    self._answer_framed(conn, corr_id, method, path, body)
                )
                conn.tasks.add(sub)
                sub.add_done_callback(conn.tasks.discard)
        except (asyncio.IncompleteReadError, ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass
        finally:
            for sub in list(conn.tasks):
                sub.cancel()
            if conn.tasks:
                await asyncio.gather(*conn.tasks, return_exceptions=True)
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _answer_framed(
        self, conn: _FramedConn, corr_id: int, method: str, target: str, body: bytes
    ) -> None:
        try:
            split = urlsplit(target)
            path = split.path.rstrip("/") or "/"
            query = {k: v[-1] for k, v in parse_qs(split.query).items()}
            if path == "/v1/solve" and method == "POST" and query.get("wait") == "push":
                await self._solve_push(conn, corr_id, body)
                return
            if path == "/v1/heartbeats" and method == "POST":
                await self._subscribe_heartbeats(conn, corr_id, body)
                return
            status, document, extra = await self._dispatch(method, target, body)
            await self._send_reply(conn, corr_id, KIND_RESPONSE, status, extra, document)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 — the wire must answer, not hang up
            status, document, extra = self._map_exception(exc)
            try:
                await self._send_reply(conn, corr_id, KIND_RESPONSE, status, extra, document)
            except Exception:  # noqa: BLE001 — connection already gone
                pass

    async def _solve_push(self, conn: _FramedConn, corr_id: int, body: bytes) -> None:
        """Submit-and-push: ack 202 now, push the wire response when solved."""
        try:
            try:
                payload = json.loads(body.decode("utf-8") or "null")
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise WireFormatError(f"request body is not valid JSON: {exc}") from exc
            is_batch, requests = wire.decode_solve_payload(payload)
            if is_batch:
                raise WireFormatError(
                    "push-mode solve takes a single request document, not a batch"
                )
            request_id, handoff = self._admit(requests[0], retain=True)
        except Exception as exc:  # noqa: BLE001 — admission failed: answer, no push
            status, document, extra = self._map_exception(exc)
            await self._send_reply(conn, corr_id, KIND_RESPONSE, status, extra, document)
            return
        await self._send_reply(
            conn, corr_id, KIND_RESPONSE, 202, {},
            {"schema": wire.WIRE_SCHEMA, "version": wire.WIRE_VERSION,
             "request_id": request_id, "status": JobStatus.QUEUED.value},
        )
        response = await asyncio.wrap_future(handoff)
        await self._send_reply(
            conn, corr_id, KIND_PUSH,
            wire.response_http_status(response), {}, wire.encode_response(response),
        )

    async def _subscribe_heartbeats(self, conn: _FramedConn, corr_id: int, body: bytes) -> None:
        options: Any = {}
        if body.strip():
            try:
                options = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise WireFormatError(f"heartbeat body is not valid JSON: {exc}") from exc
        if not isinstance(options, dict):
            raise WireFormatError("heartbeat body must be a JSON object")
        interval = options.get("interval", 0.05)
        if isinstance(interval, bool) or not isinstance(interval, (int, float)):
            raise WireFormatError(f"field 'interval' must be a number, got {interval!r}")
        interval = float(interval)
        if not 0.001 <= interval <= 60.0:
            raise WireFormatError(
                f"heartbeat interval must be within [0.001, 60] seconds, got {interval}"
            )
        beat = asyncio.ensure_future(self._heartbeat_loop(conn, interval))
        conn.tasks.add(beat)
        beat.add_done_callback(conn.tasks.discard)
        await self._send_reply(
            conn, corr_id, KIND_RESPONSE, 200, {},
            {"schema": wire.WIRE_SCHEMA, "version": wire.WIRE_VERSION, "interval": interval},
        )

    async def _heartbeat_loop(self, conn: _FramedConn, interval: float) -> None:
        loop = asyncio.get_running_loop()
        sequence = 0
        while True:
            # Snapshotting takes backend locks — keep it off the event loop.
            document = await loop.run_in_executor(
                None, self._heartbeat_document, sequence, interval
            )
            await self._send_reply(conn, 0, KIND_HEARTBEAT, 200, {}, document)
            sequence += 1
            await asyncio.sleep(interval)

    def _heartbeat_document(self, sequence: int, interval: float) -> Dict[str, Any]:
        backend = self.backend
        try:
            metrics: Optional[Dict[str, Any]] = backend.metrics().as_dict()
        except Exception:  # noqa: BLE001 — a beat without metrics beats no beat
            metrics = None
        return wire.heartbeat_document(
            sequence=sequence,
            interval=interval,
            accepting=bool(backend.accepting),
            inflight=int(backend.inflight),
            queue_depth=int(backend.queue_depth),
            metrics=metrics,
        )

    async def _send_reply(
        self,
        conn: _FramedConn,
        corr_id: int,
        kind: int,
        status: int,
        headers: Dict[str, str],
        document: Any,
    ) -> None:
        if isinstance(document, str):
            body = document.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(document).encode("utf-8")
            content_type = "application/json"
        frame = encode_reply_frame(
            corr_id, kind, status, {**headers, "Content-Type": content_type}, body
        )
        async with conn.lock:
            conn.writer.write(frame)
            try:
                await conn.writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass


# ----------------------------------------------------------------------
# blocking client
# ----------------------------------------------------------------------
class FramedServiceClient(ServiceClientBase):
    """Blocking framed-transport client with the same surface as the HTTP one.

    One client holds one multiplexed connection: a background reader thread
    dispatches ``RESPONSE`` frames to their waiting callers by correlation
    id and fires push/heartbeat callbacks as frames arrive.  All the
    endpoint helpers (``solve``/``submit``/``metrics``/...) come from
    :class:`~repro.serving.transport.ServiceClientBase` and speak the same
    JSON payloads as HTTP, so the two clients are interchangeable.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 120.0,
        on_close: Optional[Callable[[], None]] = None,
        auth_secret: Optional[str] = None,
        **base_kwargs,
    ) -> None:
        super().__init__(timeout=timeout, **base_kwargs)
        split = urlsplit(base_url if "//" in base_url else f"//{base_url}", scheme="framed")
        if split.scheme not in ("framed", "http"):
            raise ValueError(
                f"framed client speaks framed:// (or a sniffing http:// port), got {base_url!r}"
            )
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80
        self._on_close = on_close
        self._wlock = threading.Lock()
        self._lock = threading.Lock()
        self._corr = itertools.count(1)
        self._replies: Dict[int, "Future[Tuple[int, Dict[str, str], bytes, str]]"] = {}
        self._pushes: Dict[int, Callable[[int, Any], None]] = {}
        self._on_heartbeat: Optional[Callable[[Dict[str, Any]], None]] = None
        self._closed = False
        self._sock = socket.create_connection((self.host, self.port), timeout=10.0)
        self._sock.settimeout(None)
        opening = MAGIC
        if auth_secret is not None:
            opening += encode_auth_frame(auth_secret)
        self._sock.sendall(opening)
        self._reader = threading.Thread(
            target=self._read_loop, name=f"repro-framed-client-{self.port}", daemon=True
        )
        self._reader.start()

    # -- plumbing ------------------------------------------------------
    def _roundtrip(
        self,
        method: str,
        path: str,
        payload: Any,
        *,
        push_callback: Optional[Callable[[int, Any], None]] = None,
    ) -> Tuple[int, int, Dict[str, str], Any]:
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        reply: "Future[Tuple[int, Dict[str, str], bytes, str]]" = Future()
        with self._lock:
            if self._closed:
                raise ConnectionError("framed client is closed")
            corr_id = next(self._corr)
            self._replies[corr_id] = reply
            if push_callback is not None:
                self._pushes[corr_id] = push_callback
        frame = encode_request_frame(corr_id, method, path, body)
        try:
            with self._wlock:
                self._sock.sendall(frame)
        except OSError as exc:
            with self._lock:
                self._replies.pop(corr_id, None)
                self._pushes.pop(corr_id, None)
            raise ConnectionError(f"framed send failed: {exc}") from exc
        try:
            status, headers, raw, content_type = reply.result(timeout=self.timeout)
        except BaseException:
            with self._lock:
                self._replies.pop(corr_id, None)
                self._pushes.pop(corr_id, None)
            raise
        with self._lock:
            self._replies.pop(corr_id, None)
        decoded: Any = raw.decode("utf-8", errors="replace")
        if "json" in content_type and raw:
            decoded = json.loads(decoded)
        return corr_id, status, headers, decoded

    def request(self, method: str, path: str, payload: Any = None) -> Tuple[int, Dict[str, str], Any]:
        """One round trip; returns ``(status, headers, decoded body)``."""
        _, status, headers, decoded = self._roundtrip(method, path, payload)
        return status, headers, decoded

    def submit_push(
        self, document: Dict[str, Any], on_push: Callable[[int, Any], None]
    ) -> int:
        """Submit-and-push: returns the server-side request id immediately.

        ``on_push`` fires later — from the reader thread, exactly once —
        with ``(status, decoded wire response)`` when the server pushes the
        solved answer.  Admission failures raise here and never push.
        """
        def _decoded_push(status: int, raw: bytes, content_type: str) -> None:
            decoded: Any = raw.decode("utf-8", errors="replace")
            if "json" in content_type and raw:
                try:
                    decoded = json.loads(decoded)
                except json.JSONDecodeError:
                    pass
            on_push(status, decoded)

        corr_id, status, _, body = self._roundtrip(
            "POST", "/v1/solve?wait=push", document, push_callback=_decoded_push
        )
        if status != 202:
            with self._lock:
                self._pushes.pop(corr_id, None)
            self._raise_for_error(status, body)
        return int(body["request_id"])

    def start_heartbeats(
        self, interval: float, callback: Callable[[Dict[str, Any]], None]
    ) -> Dict[str, Any]:
        """Subscribe to heartbeat pushes; ``callback(document)`` fires per beat."""
        self._on_heartbeat = callback
        status, _, body = self.request("POST", "/v1/heartbeats", {"interval": interval})
        if status != 200:
            self._on_heartbeat = None
            self._raise_for_error(status, body)
        return body

    # -- reader thread -------------------------------------------------
    def _recv_exactly(self, n: int) -> bytes:
        chunks = b""
        while len(chunks) < n:
            chunk = self._sock.recv(n - len(chunks))
            if not chunk:
                raise ConnectionError("framed connection closed by peer")
            chunks += chunk
        return chunks

    def _read_loop(self) -> None:
        try:
            while True:
                length, crc = struct.unpack("!II", self._recv_exactly(8))
                if length < 9 or length > _CLIENT_MAX_FRAME:
                    raise FramingError(f"implausible frame length {length}")
                blob = self._recv_exactly(length)
                if zlib.crc32(blob) != crc:
                    raise FramingError("frame checksum mismatch: corrupted stream")
                corr_id, kind = struct.unpack_from("!QB", blob)
                status, headers, body = decode_reply_payload(blob[9:])
                content_type = headers.get("content-type", "")
                if kind == KIND_HEARTBEAT:
                    callback = self._on_heartbeat
                    if callback is not None:
                        try:
                            document = json.loads(body.decode("utf-8")) if body else {}
                        except (UnicodeDecodeError, json.JSONDecodeError):
                            continue
                        callback(document)
                    continue
                if kind == KIND_PUSH:
                    with self._lock:
                        push = self._pushes.pop(corr_id, None)
                    if push is not None:
                        push(status, body, content_type)
                    continue
                with self._lock:
                    reply = self._replies.get(corr_id)
                if reply is not None and not reply.done():
                    reply.set_result((status, headers, body, content_type))
        except (OSError, ConnectionError, FramingError, struct.error):
            pass
        finally:
            self._teardown(from_reader=True)

    def _teardown(self, *, from_reader: bool) -> None:
        with self._lock:
            was_closed = self._closed
            self._closed = True
            replies = list(self._replies.values())
            self._replies.clear()
            self._pushes.clear()
        for reply in replies:
            if not reply.done():
                reply.set_exception(ConnectionError("framed connection lost"))
        try:
            self._sock.close()
        except OSError:
            pass
        if from_reader and not was_closed and self._on_close is not None:
            try:
                self._on_close()
            except Exception:  # noqa: BLE001 — death callbacks must not kill the reader
                pass

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        if threading.current_thread() is not self._reader:
            self._reader.join(timeout=10)

    def __enter__(self) -> "FramedServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
