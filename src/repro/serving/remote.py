"""The dial slot source: replicas at configured ``host:port`` addresses.

A :class:`RemoteReplicaFleet` is a :class:`~repro.serving.replicas.ReplicaSet`
whose :class:`DialSource` fills slot ``i`` with a
:class:`~repro.serving.handles.RemoteReplicaHandle` dialing the ``i``-th
configured address over the framed transport.  Re-homing and parking of
a dead host's orphans, scaling and the event log all belong to the set;
what a remote host changes is confined to the handle and this source:

* **No spawn, no respawn.**  The fleet cannot fork a replacement when a
  host dies; the handle keeps *re-dialing* its address with capped
  jittered backoff (``policy.reconnect_backoff``) until the host answers
  again (``reconnected``: parked orphans replay) or
  ``policy.max_reconnect_attempts`` is exhausted (``gave_up``).
* **Death is ambiguous.**  A crashed host resets the TCP connection, but
  a partitioned one just goes silent — the handle's ``dead_after``
  watchdog converts silence into a death so in-flight work re-homes
  instead of hanging.
* **Scaling stays within the address list.**  Scale-down deactivates a
  host — out of placement and re-homing, connection kept warm — and
  scale-up reactivates it without a re-dial.

The source's own events are ``connect``, ``reconnected``, ``gave_up`` and
the handle's breaker transitions, each carrying the host's ``address``;
see :mod:`repro.serving.events` for the whole schema.

:class:`RemoteServiceBackend` is the single-host degenerate case: one
remote handle adapted to the *single-service* backend surface so an
ingress (HTTP or framed) can front a service running on another host —
the conformance suite uses it to prove a remote hop changes nothing.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional

from ..errors import ServiceError, ServiceShutdownError
from .framing import FramedServiceClient
from .handles import Orphan, RemoteReplicaHandle, liveness_row
from .metrics import ServiceMetrics
from .policy import FailurePolicy
from .replicas import ReplicaSet
from .requests import JobStatus, SolveRequest, SolveResponse

__all__ = ["DialSource", "RemoteReplicaFleet", "RemoteServiceBackend"]


class DialSource:
    """Slot source dialing one configured address per slot.

    ``policy`` governs timeouts, reconnect backoff and circuit breaking
    for every handle.  The address list is fixed, so scaled-down slots
    stay as warm spares (``keeps_spares``).
    """

    keeps_spares = True

    def __init__(
        self,
        addresses: List[str],
        *,
        heartbeat_interval: float = 0.05,
        heartbeat_timeout: Optional[float] = None,
        dead_after: Optional[float] = None,
        request_timeout: float = 120.0,
        dial_timeout: float = 10.0,
        auth_secret: Optional[str] = None,
        policy: Optional[FailurePolicy] = None,
        shutdown_timeout: float = 30.0,
    ) -> None:
        if not addresses:
            raise ValueError("a RemoteReplicaFleet needs at least one address")
        self.addresses = [str(a) for a in addresses]
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = (
            float(heartbeat_timeout) if heartbeat_timeout is not None
            else max(1.0, 20.0 * self.heartbeat_interval)
        )
        self.dead_after = dead_after
        self.request_timeout = float(request_timeout)
        self.dial_timeout = float(dial_timeout)
        self.auth_secret = auth_secret
        self.policy = policy or FailurePolicy(request_timeout=self.request_timeout)
        self.shutdown_timeout = float(shutdown_timeout)

    def open(self, fleet: ReplicaSet, replica_id: int) -> RemoteReplicaHandle:
        """Dial slot ``replica_id``'s address."""
        def _health(handle: RemoteReplicaHandle, kind: str) -> None:
            if kind == "gave_up":
                fleet.replica_gave_up(handle.replica_id, address=handle.address)
            else:
                fleet.record(kind, handle.replica_id, address=handle.address)

        handle = RemoteReplicaHandle(
            replica_id,
            self.addresses[replica_id],
            heartbeat_interval=self.heartbeat_interval,
            stale_after=self.heartbeat_timeout,
            dead_after=self.dead_after,
            request_timeout=self.request_timeout,
            dial_timeout=self.dial_timeout,
            auth_secret=self.auth_secret,
            policy=self.policy,
            on_death=lambda h, orphans: fleet.replica_lost(h, orphans, address=h.address),
            on_reconnect=lambda h: fleet.replica_back(
                h.replica_id, "reconnected", address=h.address
            ),
            on_health_event=_health,
        )
        fleet.record("connect", replica_id, address=handle.address)
        return handle

    def close(self, handles: List[RemoteReplicaHandle], *, drain: bool,
              timeout: Optional[float]) -> None:
        """Disconnect from every host (the hosts themselves keep running).

        A draining shutdown waits — up to ``shutdown_timeout`` — for
        locally-submitted work to finish before dropping the connections,
        so nothing the fleet accepted is cancelled.
        """
        budget = self.shutdown_timeout if timeout is None else float(timeout)
        deadline = time.monotonic() + budget
        while drain and time.monotonic() < deadline:
            if not any(h.live and h.inflight > 0 for h in handles):
                break
            time.sleep(0.01)
        for handle in handles:
            handle.close()


class RemoteReplicaFleet(ReplicaSet):
    """N remote hosts: a :class:`ReplicaSet` over a :class:`DialSource`.

    ``addresses`` is the static replica list (``host:port`` strings, one
    per slot).  Parameters mirror the set's where they overlap; the rest
    configure the dial source.  Hosts are dialed at construction;
    :meth:`start` returns the running fleet.
    """

    def __init__(
        self,
        addresses: List[str],
        *,
        heartbeat_interval: float = 0.05,
        heartbeat_timeout: Optional[float] = None,
        dead_after: Optional[float] = None,
        request_timeout: float = 120.0,
        dial_timeout: float = 10.0,
        auth_secret: Optional[str] = None,
        policy: Optional[FailurePolicy] = None,
        spill_inflight: Optional[int] = None,
        auto_eject_after: int = 3,
        shutdown_timeout: float = 30.0,
        event_log: Optional[str] = None,
    ) -> None:
        source = DialSource(
            addresses,
            heartbeat_interval=heartbeat_interval,
            heartbeat_timeout=heartbeat_timeout,
            dead_after=dead_after,
            request_timeout=request_timeout,
            dial_timeout=dial_timeout,
            auth_secret=auth_secret,
            policy=policy,
            shutdown_timeout=shutdown_timeout,
        )
        super().__init__(
            len(source.addresses),
            source=source,
            spill_inflight=spill_inflight,
            auto_eject_after=auto_eject_after,
            event_log=event_log,
        )


class RemoteServiceBackend:
    """One remote host adapted to the single-service backend surface.

    An ingress fronts this exactly as it fronts an in-process
    :class:`~repro.serving.service.SolveService`: jobs flow through a
    :class:`~repro.serving.handles.RemoteReplicaHandle` (submit-and-push,
    heartbeats, reconnect), while health/metrics/admin reads go over a
    separate framed *admin* connection so they reflect the remote host
    live rather than a stale local cache.

    If the remote host itself fronts a replica set, its admin surface
    (``replica_rows``/``eject``/``restore``) is forwarded; against a
    single-service host those attributes simply do not exist, so an
    ingress probing ``hasattr(backend, "replica_rows")`` keeps its
    single-service 404 behavior.
    """

    _FORWARDED_ADMIN = ("replica_rows", "eject", "restore")

    def __init__(
        self,
        address: str,
        *,
        heartbeat_interval: float = 0.02,
        stale_after: Optional[float] = None,
        dead_after: Optional[float] = None,
        request_timeout: float = 120.0,
        dial_timeout: float = 5.0,
        auth_secret: Optional[str] = None,
        policy: Optional[FailurePolicy] = None,
    ) -> None:
        self._address = str(address)
        self._auth_secret = auth_secret
        self._timeout = float(request_timeout)
        self._closing = False
        self._handle = RemoteReplicaHandle(
            0,
            self._address,
            heartbeat_interval=heartbeat_interval,
            stale_after=stale_after,
            dead_after=dead_after,
            request_timeout=request_timeout,
            dial_timeout=dial_timeout,
            auth_secret=auth_secret,
            policy=policy,
            on_death=self._host_connection_lost,
        )
        self._admin_lock = threading.Lock()
        self._admin: Optional[FramedServiceClient] = None
        try:
            status, _, _ = self._admin_call(
                lambda c: c.request("GET", "/v1/replicas")
            )
            self._has_replicas = status == 200
        except BaseException:
            self._handle.close()
            self._close_admin()
            raise

    # -- admin plumbing ------------------------------------------------
    def _close_admin(self) -> None:
        with self._admin_lock:
            admin, self._admin = self._admin, None
        if admin is not None:
            admin.close()

    def _admin_call(self, fn: Callable[[FramedServiceClient], Any]) -> Any:
        """Run one admin RPC, redialing the admin connection once if dead."""
        with self._admin_lock:
            if self._closing:
                raise ServiceShutdownError("remote backend is closed")
            client = self._admin
        if client is not None:
            try:
                return fn(client)
            except (ConnectionError, OSError):
                pass
        fresh = FramedServiceClient(
            self._address, timeout=self._timeout, auth_secret=self._auth_secret
        )
        with self._admin_lock:
            stale, self._admin = self._admin, fresh
        if stale is not None:
            stale.close()
        return fn(fresh)

    def _host_connection_lost(self, handle: Any, orphans: List[Orphan]) -> None:
        # There is nobody to re-home to — the remote host *is* the
        # service.  The handle keeps re-dialing; its orphans fail fast so
        # callers can retry instead of hanging.
        for request, future in orphans:
            if not future.done():
                future.set_result(SolveResponse(
                    request_id=request.request_id,
                    status=JobStatus.FAILED,
                    algorithm=request.algorithm,
                    error="remote host died before answering",
                ))

    # -- job flow (through the handle) ---------------------------------
    def submit_request(self, request: SolveRequest, *, block: bool = False,
                       put_timeout: Optional[float] = None) -> int:
        return self._handle.submit_request(
            request, block=block, put_timeout=put_timeout
        )

    def result(self, request_id: int, timeout: Optional[float] = None) -> SolveResponse:
        return self._handle.result(request_id, timeout=timeout)

    def on_response(self, request_id: int, callback: Callable[[SolveResponse], None]) -> None:
        self._handle.on_response(request_id, callback)

    # -- health / metrics (live admin reads) ---------------------------
    @property
    def accepting(self) -> bool:
        if self._closing:
            return False
        try:
            _, body = self._admin_call(lambda c: c.healthz())
            return bool(body.get("accepting", False))
        except (ServiceError, ConnectionError, OSError, KeyError, AttributeError):
            return self._handle.live and self._handle.accepting

    @property
    def inflight(self) -> int:
        return self._handle.inflight

    @property
    def queue_depth(self) -> int:
        return self._handle.queue_depth

    def metrics(self) -> ServiceMetrics:
        try:
            body = self._admin_call(lambda c: c.metrics())
            return ServiceMetrics.from_dict(body["metrics"])
        except (ServiceError, ConnectionError, OSError, KeyError):
            return self._handle.metrics()

    def drain(self, timeout: Optional[float] = None) -> bool:
        return self._handle.drain(timeout)

    # -- replica admin, forwarded only when the host has replicas ------
    def __getattr__(self, name: str) -> Any:
        # Conditional surface: these exist only when the remote host
        # fronts a replica set, so hasattr() probes stay truthful.
        if name in RemoteServiceBackend._FORWARDED_ADMIN and self.__dict__.get(
            "_has_replicas"
        ):
            return getattr(self, "_forward_" + name)
        raise AttributeError(
            f"{type(self).__name__!s} object has no attribute {name!r}"
        )

    def _forward_replica_rows(self) -> List[Dict[str, Any]]:
        return self._admin_call(lambda c: c.replicas())

    def _forward_eject(self, replica_id: int, *, drain: bool = True) -> None:
        self._admin_call(lambda c: c.eject(replica_id, drain=drain))

    def _forward_restore(self, replica_id: int) -> None:
        self._admin_call(lambda c: c.restore(replica_id))

    # -- lifecycle -----------------------------------------------------
    @property
    def handle(self) -> RemoteReplicaHandle:
        return self._handle

    def liveness(self) -> Dict[str, Any]:
        return liveness_row(self._handle)

    def shutdown(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        self.close()

    def close(self) -> None:
        self._closing = True
        self._handle.close()
        self._close_admin()

    def __enter__(self) -> "RemoteServiceBackend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
