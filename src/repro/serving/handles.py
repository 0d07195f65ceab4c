"""The replica seam: one protocol, in-process and out-of-process handles.

A *replica handle* is what :class:`~repro.serving.replicas.ReplicaSet`
routes to — the ``submit_request`` / ``on_response`` / ``result`` /
``accepting`` / ``inflight`` / ``queue_depth`` surface that
:class:`~repro.serving.service.SolveService` has always exposed, named
here as the explicit :class:`ReplicaHandle` protocol.  Three
implementations exist:

* :class:`~repro.serving.service.SolveService` itself — the in-process
  handle (threads sharing one interpreter);
* :class:`ProcessReplicaHandle` (this module) — a socket-backed proxy to
  a replica running in *another process*, speaking the framed transport
  of :mod:`repro.serving.framing`; health is routed on what the child
  *advertises* through wire heartbeats, never on shared memory;
* :class:`RemoteReplicaHandle` (this module) — the same wire surface
  pointed at a *configured address* instead of a supervised child: on
  connection loss it hands orphans to ``on_death`` (exactly-once
  re-homing) and then runs a reconnect loop with capped jittered
  backoff, because a remote host the parent did not spawn may come back.

The two wire handles are what the spawn and dial slot sources
(:mod:`repro.serving.supervisor`, :mod:`repro.serving.remote`) put into a
:class:`~repro.serving.replicas.ReplicaSet`; their ``on_death`` orphans
go to the set, which alone re-homes, parks or settles them.

Both wire handles consume a :class:`~repro.serving.policy.FailurePolicy`:
a per-replica circuit breaker (consecutive transport failures open it;
a half-open probe closes it) gates ``accepting``, so placement skips a
broken replica — the same path that hides a stale-heartbeat replica.

Because request ids come from one process-wide counter on the *parent*
side, a ``ProcessReplicaHandle`` keeps the parent's id as the identity of
each job: the child assigns its own internal id, and the handle rewrites
``request_id`` on every pushed response before settling the parent-side
future — so routing maps, job tables, and billing all see exactly the ids
the submitter was given, no matter which process solved the work.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FuturesTimeout
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple, runtime_checkable
from urllib.parse import urlsplit

from ..errors import ServiceError, ServiceShutdownError
from . import wire
from .framing import FramedServiceClient
from .metrics import ServiceMetrics
from .policy import BREAKER_CLOSED, BREAKER_OPEN, FailurePolicy
from .requests import JobStatus, SolveRequest, SolveResponse

#: An orphan is a job a dead replica accepted but never answered: the
#: original request plus the still-unresolved parent-side future.
Orphan = Tuple[SolveRequest, "Future[SolveResponse]"]


@runtime_checkable
class ReplicaHandle(Protocol):
    """What a :class:`~repro.serving.replicas.ReplicaSet` routes to.

    The protocol is exactly the submission/collection/observability
    surface of :class:`~repro.serving.service.SolveService`; any object
    satisfying it — in-process service, socket-backed process proxy — can
    sit in a replica slot.  Handles may additionally expose ``live``,
    ``restarts``, ``heartbeat_age`` and ``pid`` attributes; the set folds
    those into its per-replica liveness rows when present (see
    :func:`liveness_row`).
    """

    def submit_request(
        self,
        request: SolveRequest,
        *,
        block: bool = ...,
        put_timeout: Optional[float] = ...,
    ) -> int: ...

    def result(self, request_id: int, timeout: Optional[float] = ...) -> SolveResponse: ...

    def on_response(self, request_id: int, callback: Callable[[SolveResponse], None]) -> None: ...

    @property
    def accepting(self) -> bool: ...

    @property
    def inflight(self) -> int: ...

    @property
    def queue_depth(self) -> int: ...

    def metrics(self) -> ServiceMetrics: ...

    def drain(self, timeout: Optional[float] = ...) -> bool: ...

    def shutdown(self, *, drain: bool = ..., timeout: Optional[float] = ...) -> None: ...


def liveness_row(handle: Any) -> Dict[str, Any]:
    """Supervisor-grade liveness facts a handle may advertise.

    In-process handles have no process to die, so they read as always
    live with zero restarts and no heartbeat (age ``None``).
    """
    live = getattr(handle, "live", None)
    age = getattr(handle, "heartbeat_age", None)
    row: Dict[str, Any] = {
        "live": True if live is None else bool(live),
        "restarts": int(getattr(handle, "restarts", 0) or 0),
        "heartbeat_age_seconds": None if age is None else round(float(age), 4),
    }
    pid = getattr(handle, "pid", None)
    if pid is not None:
        row["pid"] = int(pid)
    breaker = getattr(handle, "breaker_state", None)
    if breaker is not None:
        row["breaker"] = str(breaker)
    address = getattr(handle, "address", None)
    if address is not None:
        row["address"] = str(address)
    return row


class ProcessReplicaHandle:
    """Socket-backed :class:`ReplicaHandle` proxying a replica process.

    The handle owns the parent side of every job it admits: a future per
    request id, settled when the child pushes the solved wire response
    over the framed connection.  Health is *advertised*, not inspected —
    ``accepting``/``inflight``/``queue_depth`` reflect the child's latest
    heartbeat, and a heartbeat older than ``stale_after`` seconds reads as
    not-accepting, which is what health-gates a stalled child out of
    placement before the supervisor even reacts.

    When the connection dies (child crash, kill -9), every unanswered job
    becomes an *orphan* handed to the ``on_death`` callback — the
    replica set re-homes them, settling these same futures, so callers
    blocked on ``result()`` or registered via ``on_response()`` never
    observe the death.  Without an ``on_death``
    callback, orphans settle as ``JobStatus.FAILED``.
    """

    def __init__(
        self,
        replica_id: int,
        host: str,
        port: int,
        *,
        heartbeat_interval: float = 0.05,
        stale_after: Optional[float] = None,
        request_timeout: float = 120.0,
        on_death: Optional[Callable[["ProcessReplicaHandle", List[Orphan]], None]] = None,
        auth_secret: Optional[str] = None,
        policy: Optional[FailurePolicy] = None,
        on_health_event: Optional[Callable[["ProcessReplicaHandle", str], None]] = None,
    ) -> None:
        self.replica_id = int(replica_id)
        self.host = host
        self.port = int(port)
        #: Child process id; filled in by the supervisor after spawn.
        self.pid: Optional[int] = None
        #: Times this replica slot has been restarted (supervisor-owned).
        self.restarts = 0
        self.heartbeat_interval = float(heartbeat_interval)
        if not 0.001 <= self.heartbeat_interval <= 60.0:
            raise ValueError(
                "heartbeat_interval must be within [0.001, 60] seconds, got "
                f"{heartbeat_interval!r}"
            )
        self.stale_after = (
            float(stale_after) if stale_after is not None
            else max(1.0, 20.0 * self.heartbeat_interval)
        )
        if self.stale_after <= self.heartbeat_interval:
            raise ValueError(
                f"stale_after ({self.stale_after}s) must exceed the heartbeat "
                f"interval ({self.heartbeat_interval}s); a threshold below one "
                "beat gates a healthy replica forever"
            )
        self.policy = policy if policy is not None else FailurePolicy(
            request_timeout=float(request_timeout)
        )
        self.request_timeout = self.policy.request_timeout
        self._on_death = on_death
        self._on_health_event = on_health_event
        self._auth_secret = auth_secret
        self._rng = random.Random(f"repro-handle-{self.replica_id}")
        self._lock = threading.Lock()
        self._futures: Dict[int, "Future[SolveResponse]"] = {}
        self._pending: Dict[int, SolveRequest] = {}
        self._dead = True  # until the first dial lands
        self._closing = False
        self._heartbeat: Optional[Dict[str, Any]] = None
        self._heartbeat_at: Optional[float] = None
        self._connected_at = time.monotonic()
        self._epoch = 0
        self._client: Optional[FramedServiceClient] = None
        self._dial_timeout = self.request_timeout
        self._breaker = self.policy.make_breaker(
            rng=self._rng, on_transition=self._breaker_transition
        )
        self._dial()

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------
    def _dial(self) -> None:
        """(Re)connect: one framed connection plus a heartbeat subscription.

        Each successful dial bumps the connection *epoch*; loss callbacks
        and heartbeats are tagged with the epoch they belong to, so a
        stale connection dying late cannot poison the live one.
        """
        with self._lock:
            epoch = self._epoch + 1
        client = FramedServiceClient(
            f"{self.host}:{self.port}",
            timeout=self.request_timeout,
            on_close=lambda: self._connection_lost(epoch),
            auth_secret=self._auth_secret,
        )
        # Subscribing must not hang for the full request timeout when the
        # peer is a blackhole — reconnect loops dial with a short fuse.
        client.timeout = self._dial_timeout
        try:
            client.start_heartbeats(
                self.heartbeat_interval,
                lambda document: self._on_heartbeat(epoch, document),
            )
        except BaseException:
            client.close()
            raise
        client.timeout = self.request_timeout
        with self._lock:
            if self._closing:
                closing = True
            else:
                closing = False
                old, self._client = self._client, client
                self._epoch = epoch
                self._dead = False
                self._heartbeat = None
                self._heartbeat_at = None
                self._connected_at = time.monotonic()
        if closing:
            client.close()
            raise ConnectionError("handle is closing; dial abandoned")
        if old is not None:
            old.close()

    # ------------------------------------------------------------------
    # submission / collection (the ReplicaHandle surface)
    # ------------------------------------------------------------------
    def submit_request(
        self,
        request: SolveRequest,
        *,
        block: bool = False,
        put_timeout: Optional[float] = None,
    ) -> int:
        # Remote admission is always non-blocking: backpressure comes back
        # as a queue-full rejection instead of a blocked socket, so the
        # block/put_timeout knobs of the in-process handle do not apply.
        del block, put_timeout
        request_id = request.request_id
        future: "Future[SolveResponse]" = Future()

        def _deliver(status: int, document: Any) -> None:
            del status  # the wire response's own JobStatus is authoritative
            try:
                response = wire.decode_response(document)
                response.request_id = request_id  # child ids stay child-side
            except Exception as exc:  # noqa: BLE001 — never lose the future
                response = SolveResponse(
                    request_id=request_id,
                    status=JobStatus.FAILED,
                    algorithm=request.algorithm,
                    error=f"undecodable pushed response: {exc}",
                )
            self._settle(request_id, response)

        with self._lock:
            if self._dead:
                raise ServiceShutdownError(
                    f"replica {self.replica_id} process is down; submit rejected"
                )
        # The consuming breaker check: in HALF_OPEN this takes the single
        # probe slot, which every exit path below must resolve.
        if not self._breaker.allows():
            raise ServiceShutdownError(
                f"replica {self.replica_id} circuit breaker open; submit rejected"
            )
        with self._lock:
            if self._dead:
                self._breaker.record_failure()
                raise ServiceShutdownError(
                    f"replica {self.replica_id} process is down; submit rejected"
                )
            # The future is visible now so an early push can settle it, but
            # the request is NOT committed to ``_pending`` until the submit
            # round trip lands.  ``_abandon`` orphans only committed
            # requests: an *uncommitted* submit that dies mid-flight raises
            # to its caller, who retries — if it were also orphaned, the
            # same id would be resubmitted twice (caller retry + re-homing)
            # and the two registrations would clobber each other on the
            # surviving replica, losing the answer.
            #
            # A job re-homed onto the handle that orphaned it (its host
            # reconnected) keeps the future its submitter already holds.
            held = self._futures.get(request_id)
            keep = held is not None and not held.done()
            if keep:
                future = held
            else:
                self._futures[request_id] = future
        client = self._client
        try:
            client.submit_push(wire.encode_request(request), _deliver)
        except (ConnectionError, OSError) as exc:
            self._breaker.record_failure()
            self._forget(request_id, keep)
            raise ServiceShutdownError(
                f"replica {self.replica_id} connection lost: {exc}"
            ) from exc
        except ServiceError:
            # The replica answered (e.g. queue-full): responsive, not broken.
            self._breaker.record_success()
            self._forget(request_id, keep)
            raise
        except BaseException:
            self._breaker.record_failure()
            self._forget(request_id, keep)
            raise
        dead_in_flight = False
        with self._lock:
            if future.done():
                pass  # pushed before the commit: already settled, nothing pending
            elif self._dead:
                # The connection died during the round trip.  _abandon ran
                # while this submit was uncommitted, so nobody re-homes it:
                # hand the retry to the caller instead of losing the job.
                if not keep:
                    self._futures.pop(request_id, None)
                dead_in_flight = True
            else:
                self._pending[request_id] = request
        if dead_in_flight:
            self._breaker.record_failure()
            raise ServiceShutdownError(
                f"replica {self.replica_id} connection lost while the submit "
                "was in flight; submit rejected"
            )
        return request_id

    def _forget(self, request_id: int, keep_future: bool = False) -> None:
        with self._lock:
            if not keep_future:
                self._futures.pop(request_id, None)
            self._pending.pop(request_id, None)

    def result(self, request_id: int, timeout: Optional[float] = None) -> SolveResponse:
        with self._lock:
            future = self._futures.get(request_id)
        if future is None:
            raise KeyError(f"unknown or already-collected request id {request_id}")
        response = future.result(timeout=timeout)
        with self._lock:
            self._futures.pop(request_id, None)
        return response

    def on_response(self, request_id: int, callback: Callable[[SolveResponse], None]) -> None:
        with self._lock:
            future = self._futures.get(request_id)
        if future is None:
            raise KeyError(f"unknown or already-collected request id {request_id}")

        def _deliver(done: "Future[SolveResponse]") -> None:
            with self._lock:
                self._futures.pop(request_id, None)
            callback(done.result())

        future.add_done_callback(_deliver)

    def _settle(self, request_id: int, response: SolveResponse) -> None:
        with self._lock:
            self._pending.pop(request_id, None)
            future = self._futures.get(request_id)
        # A delivered response — whatever its JobStatus — means the
        # replica's transport works: feed the breaker.
        self._breaker.record_success()
        if future is not None and not future.done():
            future.set_result(response)

    # ------------------------------------------------------------------
    # advertised health
    # ------------------------------------------------------------------
    def _on_heartbeat(self, epoch: int, document: Dict[str, Any]) -> None:
        try:
            beat = wire.decode_heartbeat(document)
        except ServiceError:
            return
        with self._lock:
            if epoch != self._epoch:
                return  # a zombie connection's beat: ignore
            self._heartbeat = beat
            self._heartbeat_at = time.monotonic()

    def _breaker_transition(self, old: str, new: str) -> None:
        if new == BREAKER_OPEN:
            self._emit_health("breaker_open")
        elif new == BREAKER_CLOSED and old != BREAKER_CLOSED:
            self._emit_health("breaker_closed")

    def _emit_health(self, kind: str) -> None:
        callback = self._on_health_event
        if callback is not None:
            try:
                callback(self, kind)
            except Exception:  # noqa: BLE001 — observers must not break the handle
                pass

    @property
    def breaker_state(self) -> str:
        return self._breaker.state

    @property
    def live(self) -> bool:
        """True while the framed connection to the child is up."""
        with self._lock:
            return not self._dead

    @property
    def heartbeat_age(self) -> float:
        """Seconds since the last heartbeat (since connect if none yet)."""
        with self._lock:
            at = self._heartbeat_at if self._heartbeat_at is not None else self._connected_at
        return max(0.0, time.monotonic() - at)

    @property
    def accepting(self) -> bool:
        with self._lock:
            if self._dead:
                return False
            beat, at = self._heartbeat, self._heartbeat_at
        if not self._breaker.would_allow():
            return False  # breaker open: hide from placement until the probe window
        if beat is None:
            # Between connect and the first beat the child is presumed
            # willing — it just bound its port and asked for traffic.
            return time.monotonic() - self._connected_at <= self.stale_after
        if time.monotonic() - at > self.stale_after:
            return False  # stalled child: health-gate it out of placement
        return bool(beat["accepting"])

    @property
    def inflight(self) -> int:
        with self._lock:
            local = len(self._pending)
            beat = None if self._dead else self._heartbeat
        advertised = int(beat["inflight"]) if beat else 0
        # The child's advertised count lags by up to one heartbeat; the
        # parent-side pending count never lags admissions, so take the max.
        return max(local, advertised)

    @property
    def queue_depth(self) -> int:
        with self._lock:
            beat = None if self._dead else self._heartbeat
        return int(beat["queue_depth"]) if beat else 0

    # ------------------------------------------------------------------
    # death / orphan hand-off
    # ------------------------------------------------------------------
    def _connection_lost(self, epoch: int) -> None:
        with self._lock:
            if epoch != self._epoch:
                return  # a superseded connection dying late: not our problem
        self._abandon(notify=True)

    def mark_lost(self) -> None:
        """Force death handling (supervisor: child exited, socket stuck)."""
        if self._client is not None:
            self._client.close()
        self._abandon(notify=True)

    def _abandon(self, *, notify: bool) -> None:
        with self._lock:
            if self._dead:
                return
            self._dead = True
            orphans: List[Orphan] = [
                (request, self._futures[request_id])
                for request_id, request in self._pending.items()
                if request_id in self._futures
            ]
            self._pending.clear()
        self._breaker.record_failure()  # a lost connection is a transport fault
        if notify and self._on_death is not None:
            self._on_death(self, orphans)
            return
        for request, future in orphans:
            if not future.done():
                future.set_result(SolveResponse(
                    request_id=request.request_id,
                    status=JobStatus.FAILED,
                    algorithm=request.algorithm,
                    error=f"replica {self.replica_id} process died before answering",
                ))

    # ------------------------------------------------------------------
    # observability / lifecycle
    # ------------------------------------------------------------------
    def metrics(self) -> ServiceMetrics:
        """Child metrics snapshot: live RPC, else the last heartbeat's."""
        if self.live:
            try:
                body = self._client.metrics()
                return ServiceMetrics.from_dict(body["metrics"])
            except (ServiceError, ConnectionError, OSError, KeyError, TypeError):
                pass
        with self._lock:
            beat = self._heartbeat
        if beat and isinstance(beat.get("metrics"), dict):
            return ServiceMetrics.from_dict(beat["metrics"])
        return ServiceMetrics.empty()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Remote drain: the child stops admission and finishes its work."""
        if not self.live:
            with self._lock:
                return not self._pending
        try:
            body = self._client.drain(timeout)
            return bool(body.get("drained"))
        except (ServiceError, ConnectionError, OSError):
            return False

    def shutdown(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the replica: drain it remotely, then close the connection."""
        if drain and self.live:
            self.drain(timeout)
        self.close()

    def close(self) -> None:
        """Drop the connection; unanswered jobs settle as CANCELLED."""
        with self._lock:
            self._closing = True
            self._dead = True
            leftovers: List[Orphan] = [
                (request, self._futures[request_id])
                for request_id, request in self._pending.items()
                if request_id in self._futures
            ]
            self._pending.clear()
        if self._client is not None:
            self._client.close()
        for request, future in leftovers:
            if not future.done():
                future.set_result(SolveResponse(
                    request_id=request.request_id,
                    status=JobStatus.CANCELLED,
                    algorithm=request.algorithm,
                    error="replica handle closed without draining",
                ))

    def __enter__(self) -> "ProcessReplicaHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def parse_address(address: str) -> Tuple[str, int]:
    """Parse ``host:port`` (optionally ``framed://host:port``) strictly."""
    if "//" in address:
        split = urlsplit(address)
        host, port = split.hostname, split.port
    else:
        host, _, port_text = address.rpartition(":")
        port = int(port_text) if port_text.isdigit() else None
    if not host or not port:
        raise ValueError(f"remote address must be 'host:port', got {address!r}")
    return host, int(port)


class RemoteReplicaHandle(ProcessReplicaHandle):
    """A :class:`ReplicaHandle` for a replica on a *configured address*.

    Same wire surface and health model as :class:`ProcessReplicaHandle`
    — submit-and-push over one framed connection, advertised heartbeats,
    orphans to ``on_death`` on connection loss — with two differences a
    remote host demands:

    * **Reconnect-and-rehome.**  Nobody respawns a remote host for us, so
      after handing orphans to the exactly-once re-homing path the handle
      keeps dialing the address with capped jittered backoff
      (``policy.reconnect_backoff``).  A successful dial resets the
      circuit breaker and fires ``on_reconnect(handle)`` so the owner can
      restore the slot in placement; exhausting
      ``policy.max_reconnect_attempts`` reports ``gave_up`` through
      ``on_health_event``.
    * **A blackhole watchdog.**  A dead TCP peer errors out quickly, but
      a *partitioned* one just goes silent while the connection looks
      healthy.  When no heartbeat lands for ``dead_after`` seconds
      (default ``2 * stale_after``) the handle declares the connection
      lost itself, orphaning and re-homing in-flight work instead of
      letting it hang.
    """

    def __init__(
        self,
        replica_id: int,
        address: str,
        *,
        heartbeat_interval: float = 0.05,
        stale_after: Optional[float] = None,
        dead_after: Optional[float] = None,
        request_timeout: float = 120.0,
        dial_timeout: float = 10.0,
        on_death: Optional[Callable[["ProcessReplicaHandle", List[Orphan]], None]] = None,
        on_reconnect: Optional[Callable[["RemoteReplicaHandle"], None]] = None,
        on_health_event: Optional[Callable[["ProcessReplicaHandle", str], None]] = None,
        auth_secret: Optional[str] = None,
        policy: Optional[FailurePolicy] = None,
    ) -> None:
        host, port = parse_address(address)
        interval = float(heartbeat_interval)
        resolved_stale = (
            float(stale_after) if stale_after is not None else max(1.0, 20.0 * interval)
        )
        resolved_dead = (
            float(dead_after) if dead_after is not None else 2.0 * resolved_stale
        )
        if resolved_dead <= resolved_stale:
            raise ValueError(
                f"dead_after ({resolved_dead}s) must exceed stale_after "
                f"({resolved_stale}s): staleness gates placement, dead_after "
                "declares the connection lost"
            )
        super().__init__(
            replica_id,
            host,
            port,
            heartbeat_interval=interval,
            stale_after=resolved_stale,
            request_timeout=request_timeout,
            on_death=on_death,
            auth_secret=auth_secret,
            policy=policy,
            on_health_event=on_health_event,
        )
        self.address = f"{host}:{port}"
        self.dead_after = resolved_dead
        self._dial_timeout = min(float(dial_timeout), self.request_timeout)
        self._on_reconnect = on_reconnect
        self._dial_attempts = 0
        self._next_dial_at = 0.0
        self._gave_up = False
        self._stop = threading.Event()
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop,
            name=f"repro-remote-{self.replica_id}",
            daemon=True,
        )
        self._monitor_thread.start()

    @property
    def reconnect_attempts(self) -> int:
        return self._dial_attempts

    def _monitor_loop(self) -> None:
        tick = max(0.01, self.heartbeat_interval / 2.0)
        while not self._stop.wait(tick):
            if self.live:
                if self.heartbeat_age > self.dead_after:
                    # Blackhole/partition: the socket looks fine but the
                    # peer has gone silent.  Declare it dead so orphans
                    # re-home now instead of hanging until timeout.
                    self.mark_lost()
                continue
            if self._gave_up:
                continue
            if time.monotonic() < self._next_dial_at:
                continue
            attempt = self._dial_attempts
            self._dial_attempts = attempt + 1
            try:
                self._dial()
            except (OSError, ConnectionError, ServiceError, FuturesTimeout):
                self._breaker.record_failure()
                limit = self.policy.max_reconnect_attempts
                if limit is not None and self._dial_attempts >= limit:
                    self._gave_up = True
                    self._emit_health("gave_up")
                    continue
                delay = self.policy.reconnect_backoff.delay(attempt, rng=self._rng)
                self._next_dial_at = time.monotonic() + delay
                continue
            self._dial_attempts = 0
            self._next_dial_at = 0.0
            self._breaker.reset()
            callback = self._on_reconnect
            if callback is not None:
                try:
                    callback(self)
                except Exception:  # noqa: BLE001 — observers must not kill the loop
                    pass

    def close(self) -> None:
        self._stop.set()
        thread = self._monitor_thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=10.0)
        super().close()
