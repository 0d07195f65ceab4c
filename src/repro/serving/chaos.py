"""Deterministic fault injection for the serving stack.

The chaos layer has three pieces:

``ChaosSchedule``
    A *pure function* from ``(named seed, connection index)`` to a
    ``ConnectionPlan``.  Every fault a run will inject is derived from
    ``random.Random(f"repro-chaos:{seed}:{index}")`` — string seeding is
    stable across processes and platforms, so the same seed always
    produces the same schedule and every failure run is replayable.  The
    schedule can be dumped to JSON (``dump``) for CI artifacts.

``ChaosTcpProxy``
    A standalone threaded TCP proxy (exposed as ``repro-serve
    --chaos-proxy``) that sits between a client and an upstream server
    and applies the scheduled faults per accepted connection: added
    latency, abrupt connection resets, partial writes, byte corruption,
    frame-aware heartbeat drops, and blackhole/partition windows.  It
    also has manual controls (``set_blackhole``) so tests can simulate a
    remote host death at an exact moment.

``ChaosSocket``
    An in-process stream wrapper applying the same plan to a single
    ``socket``-like object, for tests that want faults without a proxy
    hop.

Fault semantics (client ↔ proxy ↔ server):

========================  =====================================================
fault                     behavior
========================  =====================================================
``latency``               sleep ``plan.latency`` seconds before forwarding each
                          chunk (both directions)
``reset``                 after ``plan.reset_after`` total forwarded bytes,
                          abruptly close both sides (RST via SO_LINGER 0)
``partial_write``         forward in ``plan.partial_chunk``-byte slices with a
                          tiny pause between slices
``corrupt``               XOR one byte at stream offset
                          ``plan.corrupt_offset`` in the server→client
                          direction (early bytes: the HTTP status line or the
                          framed length/CRC header, so corruption is always
                          *detectable*, never a silently-wrong payload)
``heartbeat_drop``        on framed connections, parse server→client frames
                          and drop ``KIND_HEARTBEAT`` frames
``blackhole``             after ``plan.blackhole_at`` bytes, swallow traffic in
                          both directions for ``plan.blackhole_for`` seconds
                          (a partition that heals); the manual
                          ``set_blackhole(True)`` override swallows forever (a
                          dead host)
========================  =====================================================
"""

from __future__ import annotations

import json
import random
import socket
import struct
import threading
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .framing import KIND_HEARTBEAT, MAGIC

__all__ = [
    "FAULT_KINDS",
    "ConnectionPlan",
    "ChaosSchedule",
    "ChaosTcpProxy",
    "ChaosSocket",
]

FAULT_KINDS = (
    "latency",
    "reset",
    "partial_write",
    "corrupt",
    "heartbeat_drop",
    "blackhole",
)

_RECV_CHUNK = 65536
_TICK = 0.02  # blackhole/stall polling granularity


@dataclass(frozen=True)
class ConnectionPlan:
    """Faults for one proxied connection, fully determined by the seed."""

    index: int
    fault: Optional[str] = None
    latency: float = 0.0
    reset_after: Optional[int] = None
    partial_chunk: Optional[int] = None
    corrupt_offset: Optional[int] = None
    drop_heartbeats: bool = False
    blackhole_at: Optional[int] = None
    blackhole_for: Optional[float] = None

    def as_dict(self) -> Dict[str, object]:
        return {k: v for k, v in asdict(self).items() if v is not None}


class ChaosSchedule:
    """Named-seed deterministic fault schedule.

    ``every`` controls fault density: connection ``i`` is faulty when
    ``i % every == every - 1`` (so the first connection of a run is
    always clean), and faulty connections cycle through ``faults`` in
    order.  ``plan(i)`` is pure — calling it twice, or in another
    process, yields the identical plan.
    """

    def __init__(
        self,
        seed: Union[str, int],
        *,
        faults: Sequence[str] = FAULT_KINDS,
        every: int = 3,
        latency_range: Tuple[float, float] = (0.05, 0.2),
        reset_window: Tuple[int, int] = (64, 2048),
        partial_chunks: Sequence[int] = (1, 2, 3, 5, 7),
        corrupt_window: int = 12,
        blackhole_window: Tuple[int, int] = (0, 512),
        blackhole_duration: Tuple[float, float] = (0.1, 0.3),
    ) -> None:
        faults = tuple(faults)
        unknown = [f for f in faults if f not in FAULT_KINDS]
        if unknown:
            raise ValueError(
                f"unknown fault kinds {unknown!r}; valid kinds: {FAULT_KINDS}"
            )
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every!r}")
        self.seed = str(seed)
        self.faults = faults
        self.every = every
        self.latency_range = latency_range
        self.reset_window = reset_window
        self.partial_chunks = tuple(partial_chunks)
        self.corrupt_window = corrupt_window
        self.blackhole_window = blackhole_window
        self.blackhole_duration = blackhole_duration

    def plan(self, index: int) -> ConnectionPlan:
        if not self.faults or index % self.every != self.every - 1:
            return ConnectionPlan(index=index)
        fault = self.faults[(index // self.every) % len(self.faults)]
        rng = random.Random(f"repro-chaos:{self.seed}:{index}")
        if fault == "latency":
            return ConnectionPlan(
                index=index, fault=fault, latency=rng.uniform(*self.latency_range)
            )
        if fault == "reset":
            return ConnectionPlan(
                index=index,
                fault=fault,
                reset_after=rng.randrange(self.reset_window[0], self.reset_window[1]),
            )
        if fault == "partial_write":
            return ConnectionPlan(
                index=index, fault=fault, partial_chunk=rng.choice(self.partial_chunks)
            )
        if fault == "corrupt":
            return ConnectionPlan(
                index=index,
                fault=fault,
                corrupt_offset=rng.randrange(0, self.corrupt_window),
            )
        if fault == "heartbeat_drop":
            return ConnectionPlan(index=index, fault=fault, drop_heartbeats=True)
        # blackhole
        return ConnectionPlan(
            index=index,
            fault=fault,
            blackhole_at=rng.randrange(self.blackhole_window[0], self.blackhole_window[1]),
            blackhole_for=rng.uniform(*self.blackhole_duration),
        )

    def as_jsonable(self, connections: int = 32) -> Dict[str, object]:
        return {
            "schema": "repro.chaos",
            "version": 1,
            "seed": self.seed,
            "faults": list(self.faults),
            "every": self.every,
            "plans": [self.plan(i).as_dict() for i in range(connections)],
        }

    def dump(self, path: str, connections: int = 32) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_jsonable(connections), fh, indent=2, sort_keys=True)
            fh.write("\n")


class _ConnState:
    """Shared per-connection fault bookkeeping for the two pump threads."""

    def __init__(self, plan: ConnectionPlan) -> None:
        self.plan = plan
        self.lock = threading.Lock()
        self.total = 0  # bytes forwarded, both directions
        self.down_offset = 0  # server->client stream offset (for corrupt)
        self.blackholed = False  # scheduled blackhole already served
        self.framed: Optional[bool] = None  # first 4 client bytes == MAGIC?
        self.reset_fired = False

    def add(self, n: int) -> int:
        with self.lock:
            self.total += n
            return self.total


def _abrupt_close(sock: socket.socket) -> None:
    """Close with SO_LINGER 0 so the peer sees a reset, not a FIN.

    ``shutdown(SHUT_RD)`` comes first: the sibling pump may be blocked in
    ``recv`` on this socket, and on Linux a plain ``close`` neither wakes
    that ``recv`` nor sends the reset until it returns.
    """
    try:
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
    except OSError:
        pass
    try:
        sock.shutdown(socket.SHUT_RD)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def _apply_downstream_corruption(state: _ConnState, data: bytes) -> bytes:
    """Flip the scheduled byte if it falls inside this chunk."""
    offset = state.plan.corrupt_offset
    start = state.down_offset
    state.down_offset += len(data)
    if offset is None or not (start <= offset < start + len(data)):
        return data
    mutated = bytearray(data)
    mutated[offset - start] ^= 0xFF
    return bytes(mutated)


class ChaosTcpProxy:
    """Threaded TCP proxy applying a deterministic fault schedule.

    ``schedule=None`` (or a schedule with ``faults=()``) forwards
    everything untouched — used by the benchmark harness to bound the
    proxy's own overhead.
    """

    def __init__(
        self,
        upstream: Union[str, Tuple[str, int]],
        *,
        schedule: Optional[ChaosSchedule] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        if isinstance(upstream, str):
            up_host, _, up_port = upstream.rpartition(":")
            if not up_host or not up_port.isdigit():
                raise ValueError(
                    f"upstream must be 'host:port', got {upstream!r}"
                )
            upstream = (up_host, int(up_port))
        self.upstream: Tuple[str, int] = upstream
        self.schedule = schedule
        self.host = host
        self.port = port
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._closed = threading.Event()
        self._blackhole = threading.Event()
        self._lock = threading.Lock()
        self._conns: List[Tuple[socket.socket, socket.socket]] = []
        self._threads: List[threading.Thread] = []
        self._accepted = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ChaosTcpProxy":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-proxy-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def __enter__(self) -> "ChaosTcpProxy":
        return self.start() if self._listener is None else self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def connections_seen(self) -> int:
        with self._lock:
            return self._accepted

    def set_blackhole(self, enabled: bool) -> None:
        """Manual override: swallow all traffic in both directions.

        Unlike the scheduled ``blackhole`` fault this never heals on its
        own — it models a host that died or a partition that persists.
        """
        if enabled:
            self._blackhole.set()
        else:
            self._blackhole.clear()

    def drop_connections(self) -> None:
        """Abruptly reset every active proxied connection."""
        with self._lock:
            conns = list(self._conns)
            self._conns.clear()
        for client, upstream in conns:
            _abrupt_close(client)
            _abrupt_close(upstream)

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        if self._listener is not None:
            # As in _abrupt_close: shutdown wakes the accept loop, a bare
            # close would leave it blocked until the join timed out.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        self.drop_connections()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        for thread in list(self._threads):
            thread.join(timeout=5.0)

    # -- data path ---------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._closed.is_set():
            try:
                client, _ = self._listener.accept()
            except OSError:
                break
            with self._lock:
                index = self._accepted
                self._accepted += 1
            plan = (
                self.schedule.plan(index)
                if self.schedule is not None
                else ConnectionPlan(index=index)
            )
            thread = threading.Thread(
                target=self._serve_conn,
                args=(client, plan),
                name=f"chaos-proxy-conn-{index}",
                daemon=True,
            )
            with self._lock:
                self._threads.append(thread)
            thread.start()

    def _serve_conn(self, client: socket.socket, plan: ConnectionPlan) -> None:
        try:
            upstream = socket.create_connection(self.upstream, timeout=10.0)
            upstream.settimeout(None)
        except OSError:
            _abrupt_close(client)
            return
        client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        upstream.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._lock:
            self._conns.append((client, upstream))
        state = _ConnState(plan)
        up = threading.Thread(
            target=self._pump,
            args=(client, upstream, state, "up"),
            name=f"chaos-pump-up-{plan.index}",
            daemon=True,
        )
        up.start()
        with self._lock:
            self._threads.append(up)
        self._pump(upstream, client, state, "down")
        with self._lock:
            if (client, upstream) in self._conns:
                self._conns.remove((client, upstream))
        for sock in (client, upstream):
            try:
                sock.close()
            except OSError:
                pass
        up.join(timeout=10.0)

    def _pump(
        self,
        src: socket.socket,
        dst: socket.socket,
        state: _ConnState,
        direction: str,
    ) -> None:
        plan = state.plan
        hb_buffer = bytearray()  # frame reassembly for heartbeat_drop
        try:
            while not self._closed.is_set():
                try:
                    data = src.recv(_RECV_CHUNK)
                except OSError:
                    break
                if not data:
                    try:
                        dst.shutdown(socket.SHUT_WR)
                    except OSError:
                        pass
                    break
                if direction == "up" and state.framed is None:
                    state.framed = data[:4] == MAGIC
                total = state.add(len(data))
                if self._blackhole.is_set():
                    continue  # manual blackhole: swallow silently
                if (
                    plan.blackhole_at is not None
                    and not state.blackholed
                    and total >= plan.blackhole_at
                ):
                    state.blackholed = True
                    self._stall(plan.blackhole_for or 0.0)
                    # The window swallowed this chunk, so the stream can
                    # never be coherent again — when the partition heals,
                    # peers must see a dead connection, not a silently
                    # truncated message they would wait on forever.
                    _abrupt_close(dst)
                    _abrupt_close(src)
                    break
                if plan.reset_after is not None and total >= plan.reset_after:
                    with state.lock:
                        fire = not state.reset_fired
                        state.reset_fired = True
                    if fire:
                        _abrupt_close(dst)
                        _abrupt_close(src)
                    break
                if direction == "down":
                    if plan.corrupt_offset is not None:
                        data = _apply_downstream_corruption(state, data)
                    if plan.drop_heartbeats and state.framed:
                        hb_buffer.extend(data)
                        data = _strip_heartbeat_frames(hb_buffer)
                        if not data:
                            continue
                if plan.latency > 0:
                    time.sleep(plan.latency)
                try:
                    if plan.partial_chunk:
                        for i in range(0, len(data), plan.partial_chunk):
                            dst.sendall(data[i : i + plan.partial_chunk])
                            time.sleep(0.001)
                    else:
                        dst.sendall(data)
                except OSError:
                    break
        finally:
            if direction == "down":
                try:
                    dst.shutdown(socket.SHUT_WR)
                except OSError:
                    pass

    def _stall(self, duration: float) -> None:
        deadline = time.monotonic() + duration
        while time.monotonic() < deadline and not self._closed.is_set():
            time.sleep(min(_TICK, max(0.0, deadline - time.monotonic())))


def _strip_heartbeat_frames(buffer: bytearray) -> bytes:
    """Remove complete HEARTBEAT frames from ``buffer``; return forwardable bytes.

    Frames are ``u32 len | u32 crc | payload`` with the kind byte at
    payload offset 8.  Incomplete frames stay buffered until more bytes
    arrive.
    """
    out = bytearray()
    while True:
        if len(buffer) < 8:
            break
        length = struct.unpack_from("!I", buffer, 0)[0]
        if len(buffer) < 8 + length:
            break
        frame = bytes(buffer[: 8 + length])
        del buffer[: 8 + length]
        if length >= 9 and frame[16] == KIND_HEARTBEAT:
            continue  # dropped
        out.extend(frame)
    return bytes(out)


class ChaosSocket:
    """In-process fault wrapper around a connected ``socket`` object.

    Applies a ``ConnectionPlan`` to a single stream without a proxy hop:
    ``send``/``sendall`` are sliced by ``partial_chunk`` and delayed by
    ``latency``; ``recv`` corrupts the scheduled downstream byte; and
    after ``reset_after`` total bytes every call raises
    ``ConnectionResetError``.  Everything else proxies through, so the
    wrapper can stand in for the raw socket inside client code.
    """

    def __init__(self, sock: socket.socket, plan: ConnectionPlan) -> None:
        self._sock = sock
        self._state = _ConnState(plan)

    def _check_reset(self, n: int) -> None:
        plan = self._state.plan
        if plan.reset_after is None:
            return
        if self._state.add(n) >= plan.reset_after:
            _abrupt_close(self._sock)
            raise ConnectionResetError("chaos: scheduled connection reset")

    def sendall(self, data: bytes) -> None:
        plan = self._state.plan
        self._check_reset(len(data))
        if plan.latency > 0:
            time.sleep(plan.latency)
        if plan.partial_chunk:
            for i in range(0, len(data), plan.partial_chunk):
                self._sock.sendall(data[i : i + plan.partial_chunk])
                time.sleep(0.001)
        else:
            self._sock.sendall(data)

    def send(self, data: bytes) -> int:
        self.sendall(data)
        return len(data)

    def recv(self, bufsize: int) -> bytes:
        data = self._sock.recv(bufsize)
        if data:
            self._check_reset(len(data))
            if self._state.plan.latency > 0:
                time.sleep(self._state.plan.latency)
            data = _apply_downstream_corruption(self._state, data)
        return data

    def __getattr__(self, name: str):
        return getattr(self._sock, name)
