"""The replica fleet: N slots behind one client-facing endpoint.

A :class:`ReplicaSet` runs N replicas and routes every admitted request to
exactly one of them, behind the same ``submit_request`` / ``result`` /
``on_response`` surface a single service exposes — so a transport (and the
conformance suite) can sit in front of either without caring which it got.

Each slot holds a :class:`~repro.serving.handles.ReplicaHandle` built by
the set's *slot source*, the one thing that differs per deployment:

* :class:`ServiceSource` (the default) builds in-process
  :class:`~repro.serving.service.SolveService` replicas;
* :class:`~repro.serving.supervisor.SpawnSource` spawns a
  ``repro-serve worker`` child per slot and restarts it when it dies
  (:class:`~repro.serving.supervisor.ReplicaSupervisor`);
* :class:`~repro.serving.remote.DialSource` dials one configured address
  per slot through a handle that reconnects itself
  (:class:`~repro.serving.remote.RemoteReplicaFleet`).

Placement reads only the handle's *advertised* health —
``accepting`` / ``inflight`` / ``queue_depth`` — which for wire handles
comes from heartbeats, so the routing logic is identical whether the
replica shares this interpreter or lives across a socket.

Routing-aware admission
-----------------------

* **Compat-key affinity** — the preferred replica for a request is chosen
  by rendezvous (highest-random-weight) hashing of its
  :func:`~repro.partition.batch_compat_key`.  Requests that may coalesce
  therefore land on the *same* replica's micro-batcher, keeping batch
  occupancy high instead of scattering compatible work across shards; and
  because rendezvous hashing is consistent, ejecting one replica only
  re-homes the keys that lived there.
* **Least-loaded fallback** — when the preferred replica is unhealthy,
  draining, or has more work in flight than ``spill_inflight`` allows, the
  request spills to the healthiest least-loaded replica instead.  A replica
  that rejects admission (queue full, draining) is skipped and the next
  candidate is tried; only when *every* live replica rejects does the
  submit fail (:class:`~repro.errors.ReplicaUnavailableError` when none
  could even be tried).
* **Health gating** — ``auto_eject_after`` consecutive admission failures
  mark a replica unhealthy, demoting it to a last-resort *probe* position
  in the placement order; the next admission that succeeds through a
  probe restores it to normal placement (or an operator can
  :meth:`restore` it directly).  :meth:`eject` force-ejects a replica: it
  immediately stops receiving new work and (by default) drains in the
  background — its accepted requests still complete and are collected
  through the set, so ejection never loses or re-bills a job.

Dead replicas
-------------

A wire handle whose connection drops hands the set its *orphans* — jobs
it accepted but never answered.  The set alone decides their fate
(:meth:`replica_lost`): each is resubmitted, under its own request id, to
a live, accepting slot that has not been scaled down, and the original
future settles when that slot answers — so callers never observe the
death, and no job is lost or billed twice.  When no slot can take it now
but some slot may still come back, the orphan is *parked* and replayed
when a slot returns (:meth:`replica_back`); it settles ``FAILED`` once no
slot can come back (:meth:`replica_gave_up`), and ``CANCELLED`` at
shutdown.  Every transition lands in the set's
:class:`~repro.serving.events.EventRecorder` (:meth:`events`).

Dynamic pool
------------

The slot list is **append-only**, so ``replica_id`` remains a stable
index for routing, admin endpoints, and event logs.  :meth:`scale_up`
appends a slot from the source; :meth:`scale_down` retires the youngest
one, never the last that can serve — out of placement immediately,
drained in the background, its final counter snapshot frozen so the
aggregate ledger keeps balancing, and only then released to the source.  A source with a fixed slot list (dial)
instead keeps a scaled-down slot as a warm *spare* that :meth:`scale_up`
revives.  The autoscaling controller (:mod:`repro.serving.autoscale`)
drives this through ``scale_up`` / ``scale_down`` / ``active_replicas`` /
``note_scale_decision``.

Request ids are unique across replicas (they come from one process-wide
counter), so the set can keep a flat ``request_id -> replica`` routing map.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..errors import QueueFullError, ReplicaUnavailableError, ServiceError, ServiceShutdownError
from ..types import CostSummary
from .events import EventRecorder
from .handles import Orphan, ReplicaHandle, liveness_row
from .metrics import ServiceMetrics
from .requests import JobStatus, SolveRequest, SolveResponse
from .service import SolveService


@dataclass
class _Replica:
    """One shard plus its routing state (guarded by the set's lock)."""

    replica_id: int
    service: ReplicaHandle
    healthy: bool = True
    ejected: bool = False
    retired: bool = False          #: scaled down (a tombstone, or a warm spare)
    gave_up: bool = False          #: dead, and its source will not bring it back
    routed: int = 0                #: requests this replica admitted
    consecutive_rejects: int = 0   #: admission failures since last success
    #: Aggregate-counter snapshot frozen when a retired replica finished
    #: draining — keeps its submitted/completed/shed ledger in the set's
    #: totals after the underlying handle is gone (a live ``metrics()``
    #: call on a closed handle would read all-zero and the books would
    #: stop balancing).
    final_metrics: Optional[ServiceMetrics] = None

    def as_row(self) -> Dict[str, object]:
        if self.retired and self.final_metrics is not None:
            # Fully drained tombstone: the handle may already be closed, so
            # report the frozen terminal state instead of dialing it.
            return {
                "replica": self.replica_id,
                "healthy": False,
                "ejected": True,
                "retired": True,
                "accepting": False,
                "inflight": 0,
                "queue_depth": 0,
                "routed": self.routed,
                "live": False,
            }
        return {
            "replica": self.replica_id,
            "healthy": self.healthy,
            "ejected": self.ejected,
            "retired": self.retired,
            "accepting": self.service.accepting,
            "inflight": self.service.inflight,
            "queue_depth": self.service.queue_depth,
            "routed": self.routed,
            **liveness_row(self.service),
        }


class ServiceSource:
    """The default slot source: one in-process :class:`SolveService` per slot.

    A slot source is what a :class:`ReplicaSet` asks for replicas:

    * ``open(fleet, replica_id)`` builds slot ``replica_id``'s handle.  A
      handle that can die reports through the fleet's
      :meth:`ReplicaSet.replica_lost` / :meth:`~ReplicaSet.replica_back` /
      :meth:`~ReplicaSet.replica_gave_up` callbacks.
    * ``release(replica_id, handle)`` stops a scaled-down slot's handle
      once the set has drained it and frozen its counters (never called
      when the source keeps spares).
    * ``close(handles, drain=, timeout=)`` stops every live handle at
      shutdown.
    * ``keeps_spares`` — True when the slot list is fixed (dial): a
      scaled-down slot is kept warm for :meth:`ReplicaSet.scale_up`
      instead of being drained and released.

    Replica ``i`` is seeded ``seed + 1000 * i`` so worker RNG streams stay
    disjoint across replicas.
    """

    keeps_spares = False

    def __init__(self, seed: int = 0, service_kwargs: Optional[Dict[str, Any]] = None) -> None:
        self.seed = int(seed)
        self.service_kwargs = dict(service_kwargs or {})

    def open(self, fleet: "ReplicaSet", replica_id: int) -> SolveService:
        return SolveService(seed=self.seed + 1000 * replica_id, **self.service_kwargs)

    def release(self, replica_id: int, handle: ReplicaHandle) -> None:
        handle.shutdown(drain=False)

    def close(self, handles: List[ReplicaHandle], *, drain: bool,
              timeout: Optional[float]) -> None:
        def _stop(handle: ReplicaHandle) -> None:
            try:
                handle.shutdown(drain=drain, timeout=timeout)
            except Exception:  # noqa: BLE001 — already-terminated handles
                pass

        threads = [threading.Thread(target=_stop, args=(h,), daemon=True) for h in handles]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()


class ReplicaSet:
    """N service replicas behind one submission surface.

    Parameters
    ----------
    replicas:
        Number of slots opened at construction (>= 1).
    source:
        The slot source (see :class:`ServiceSource`); when omitted,
        replicas are in-process ``SolveService(**service_kwargs)`` with
        ``seed`` offset per replica.
    spill_inflight:
        In-flight threshold beyond which the preferred (affinity) replica
        is considered hot and the request spills to the least-loaded one;
        ``None`` disables spilling (strict affinity while healthy).
    auto_eject_after:
        Consecutive admission failures after which a replica is marked
        unhealthy and removed from placement (0 disables health gating).
    event_log:
        Optional JSONL path mirroring every lifecycle and scale event.
    service_kwargs:
        Forwarded to :class:`SolveService` by the default source.
    """

    def __init__(
        self,
        replicas: int = 3,
        *,
        source: Any = None,
        spill_inflight: Optional[int] = None,
        auto_eject_after: int = 3,
        seed: int = 0,
        event_log: Optional[str] = None,
        **service_kwargs,
    ) -> None:
        if replicas < 1:
            raise ValueError("a ReplicaSet needs at least one replica")
        self._source = source if source is not None else ServiceSource(seed, service_kwargs)
        self._lock = threading.Lock()
        self._scale_lock = threading.Lock()  # serialises scale_up/scale_down, not routing
        self._replicas: List[_Replica] = []
        self._routes: Dict[int, _Replica] = {}
        self.spill_inflight = spill_inflight
        self.auto_eject_after = int(auto_eject_after)
        self._drain_threads: List[threading.Thread] = []
        self._last_scale: Optional[Dict[str, object]] = None
        #: Orphans no slot would take — replayed when a slot comes back.
        self._parked: List[Tuple[int, SolveRequest, Any]] = []
        self._closed = False
        self._recorder = EventRecorder(event_log)
        self._recorder.open()
        try:
            for replica_id in range(int(replicas)):
                handle = self._source.open(self, replica_id)
                with self._lock:
                    self._replicas.append(_Replica(replica_id, handle))
        except BaseException:
            self._source.close(
                [r.service for r in self._replicas], drain=False, timeout=None
            )
            self._recorder.close()
            raise

    def start(self) -> "ReplicaSet":
        """Return the set, which opened its slots at construction; raises
        :class:`~repro.errors.ServiceError` after shutdown."""
        if self._closed:
            raise ServiceError("replica set is shut down")
        return self

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def _rendezvous_order(self, compat_key, candidates: List[_Replica]) -> List[_Replica]:
        """Candidates by descending rendezvous weight for this compat key."""
        def weight(replica: _Replica) -> int:
            digest = hashlib.blake2b(
                f"{compat_key!r}|{replica.replica_id}".encode(), digest_size=8
            ).digest()
            return int.from_bytes(digest, "big")

        return sorted(candidates, key=weight, reverse=True)

    def _placement_order(self, request: SolveRequest) -> List[_Replica]:
        """Admission attempt order: affinity target first, then least-loaded.

        LOCK ORDER INVARIANT: per-service state (``accepting``,
        ``inflight`` — which take the service's and its queue's locks) is
        read *outside* the set lock.  The shed-callback chain runs under a
        replica's queue lock and ends in this set's lock
        (``on_response._deliver``), so holding the set lock across a
        service read would close an ABBA cycle and deadlock the whole
        front end.  The set lock only snapshots the health flags.
        """
        with self._lock:
            flags = [(r, r.healthy, r.ejected) for r in self._replicas]
        live: List[_Replica] = []
        probes: List[_Replica] = []
        for replica, healthy, ejected in flags:
            if ejected or not replica.service.accepting:
                continue
            # Unhealthy-but-accepting replicas stay reachable as last-resort
            # probes: health marks are a heuristic, and a successful
            # admission (the probe) is what restores a replica — without
            # this an auto-ejected replica could never recover on its own.
            (live if healthy else probes).append(replica)
        probes.sort(key=lambda r: (r.service.inflight, r.replica_id))
        if not live:
            live, probes = probes, []
        if not live:
            return []
        by_affinity = self._rendezvous_order(request.compat_key, live)
        preferred = by_affinity[0]
        rest = sorted(
            (r for r in by_affinity[1:]),
            key=lambda r: (r.service.inflight, r.replica_id),
        )
        if (
            self.spill_inflight is not None
            and preferred.service.inflight >= self.spill_inflight
            and rest
        ):
            # The affinity target is hot: spill to the least-loaded
            # replica but keep the preferred one as a fallback.
            return rest + [preferred] + probes
        return [preferred] + rest + probes

    def submit_request(
        self,
        request: SolveRequest,
        *,
        block: bool = False,
        put_timeout: Optional[float] = None,
    ) -> int:
        """Admit ``request`` on exactly one replica; returns its id.

        Tries the placement order until a replica accepts.  ``block`` /
        ``put_timeout`` apply only to the *last* candidate — earlier ones
        are probed non-blocking so one full replica never stalls a request
        that another replica could take immediately.
        """
        order = self._placement_order(request)
        if not order:
            raise ReplicaUnavailableError(
                "no replica is accepting requests (all ejected or draining)"
            )
        last_error: Optional[ServiceError] = None
        for position, replica in enumerate(order):
            final = position == len(order) - 1
            try:
                request_id = replica.service.submit_request(
                    request,
                    block=block and final,
                    put_timeout=put_timeout if final else None,
                )
            except (QueueFullError, ServiceShutdownError) as exc:
                last_error = exc
                self._note_reject(replica)
                continue
            with self._lock:
                self._routes[request_id] = replica
                replica.routed += 1
                replica.consecutive_rejects = 0
                # A successful admission IS the health probe: an
                # auto-marked-unhealthy replica that admits again returns
                # to normal placement.
                replica.healthy = True
            return request_id
        assert last_error is not None
        raise last_error

    def _note_reject(self, replica: _Replica) -> None:
        with self._lock:
            replica.consecutive_rejects += 1
            if (
                self.auto_eject_after > 0
                and replica.consecutive_rejects >= self.auto_eject_after
            ):
                replica.healthy = False

    # ------------------------------------------------------------------
    # collection (mirrors the SolveService surface)
    # ------------------------------------------------------------------
    def _route(self, request_id: int) -> _Replica:
        with self._lock:
            replica = self._routes.get(request_id)
        if replica is None:
            raise KeyError(f"unknown or already-collected request id {request_id}")
        return replica

    def result(self, request_id: int, timeout: Optional[float] = None) -> SolveResponse:
        """Block until the response for ``request_id`` is ready, then pop it."""
        replica = self._route(request_id)
        response = replica.service.result(request_id, timeout=timeout)
        with self._lock:
            self._routes.pop(request_id, None)
        return response

    def on_response(self, request_id: int, callback) -> None:
        """Asynchronous hand-off, exactly as :meth:`SolveService.on_response`."""
        replica = self._route(request_id)

        def _deliver(response: SolveResponse) -> None:
            with self._lock:
                self._routes.pop(request_id, None)
            callback(response)

        replica.service.on_response(request_id, _deliver)

    def solve(self, function, initial_labels, *, timeout=None, **submit_kwargs) -> SolveResponse:
        """Convenience: build, route, and wait for one request."""
        request = SolveRequest.make(function, initial_labels, **submit_kwargs)
        request_id = self.submit_request(request, block=True)
        return self.result(request_id, timeout=timeout)

    # ------------------------------------------------------------------
    # events, and the slot-source callbacks for dead replicas
    # ------------------------------------------------------------------
    @property
    def recorder(self) -> EventRecorder:
        """The lifecycle recorder (a pool controller logs here too)."""
        return self._recorder

    def record(self, event: str, replica_id: Optional[int] = None, **fields: Any) -> None:
        self._recorder.record(event, replica_id, **fields)

    def events(self) -> List[Dict[str, Any]]:
        """Snapshot of every lifecycle event so far (oldest first)."""
        return self._recorder.events()

    def replica_lost(self, handle: Any, orphans: List[Orphan], **fields: Any) -> bool:
        """``handle``'s replica died with ``orphans`` unanswered.

        Records ``death`` (with the source's ``fields``) and re-homes or
        parks every orphan.  A death during shutdown, or the scheduled
        exit of a released slot, settles the orphans ``CANCELLED``
        instead.  Returns True when the source should bring the slot back.
        """
        replica = self._replica(handle.replica_id)
        with self._lock:
            expected = self._closed or replica.final_metrics is not None
            retired = replica.retired
        if expected:
            self._fail_orphans(orphans, JobStatus.CANCELLED,
                               "replica shut down before answering")
            return False
        self.record("death", replica.replica_id, **fields, orphans=len(orphans))
        parked = [
            request.request_id for request, future in orphans
            if self._rehome(replica.replica_id, request, future) == "parked"
        ]
        if parked:
            self.record("orphans_parked", replica.replica_id,
                        count=len(parked), request_ids=parked)
        return not retired

    def replica_back(self, replica_id: int, event: str,
                     handle: Optional[ReplicaHandle] = None, **fields: Any) -> bool:
        """Slot ``replica_id`` serves again (``restarted`` / ``reconnected``).

        Installs ``handle`` when the source built a new one, returns the
        slot to placement (a warm spare stays out) and replays every
        parked orphan.  A new handle gets a *new* ``_Replica``: existing
        routes reference the old one, whose handle still owns their
        futures, so in-flight collection keeps working.  Returns False,
        installing nothing, once the set is shut down or when a new handle
        would land in a scaled-down slot.
        """
        with self._lock:
            old = self._replica(replica_id)
            if self._closed or (handle is not None and old.retired):
                return False
            if handle is not None:
                old.ejected = True
                self._replicas[replica_id] = _Replica(replica_id, handle, routed=old.routed)
            replica = self._replicas[replica_id]
            if not replica.retired:
                replica.ejected = False
                replica.healthy = True
                replica.consecutive_rejects = 0
            parked, self._parked = self._parked, []
        self.record(event, replica_id, **fields)
        for from_replica, request, future in parked:
            self._rehome(from_replica, request, future)
        return True

    def replica_gave_up(self, replica_id: int, **fields: Any) -> None:
        """Slot ``replica_id``'s source will not bring it back.

        Parked orphans are replayed: they settle ``FAILED`` if no slot can
        come back any more.
        """
        with self._lock:
            self._replica(replica_id).gave_up = True
            parked, self._parked = self._parked, []
        self.record("gave_up", replica_id, **fields)
        for from_replica, request, future in parked:
            self._rehome(from_replica, request, future)

    def _rehome(self, from_replica: int, request: SolveRequest, future: Any) -> str:
        """Resubmit one orphan to a live, accepting, not-scaled-down slot.

        The job goes to the surviving handle *directly*, not through
        placement: callers are already blocked on (or subscribed to) the
        dead slot's future via the routing table, so the route must keep
        pointing there — the new replica's answer chains back into that
        original future.  The job keeps its request id, so the submitter
        sees exactly one answer under its own id no matter how many
        replicas die beneath it.  Placement ejection does not exclude a
        slot: a routing decision must never strand an orphan.  A host that
        reconnected may get its own orphan back: the handle the route
        points at then adopts the future its submitter holds, and nothing
        is chained onto it.

        When no slot accepts, the orphan is parked while some slot may
        still come back, and fails otherwise.  Returns ``"rehomed"``,
        ``"parked"`` or ``"failed"``.
        """
        def _settle(response: SolveResponse) -> None:
            if not future.done():
                future.set_result(response)

        with self._lock:
            slots = [r for r in self._replicas if not r.retired]
            route = self._routes.get(request.request_id)
        candidates = sorted(
            (r for r in slots if r.service.accepting),
            key=lambda r: (r.service.inflight, r.replica_id),
        )
        last_error: Optional[ServiceError] = None
        for replica in candidates:
            try:
                replica.service.submit_request(request, block=False)
            except ServiceError as exc:
                last_error = exc
                continue
            if route is None or replica.service is not route.service:
                replica.service.on_response(request.request_id, _settle)
            self.record("rehome", from_replica, request_id=request.request_id,
                        ok=True, to=replica.replica_id)
            return "rehomed"
        with self._lock:
            if not self._closed and any(not r.retired and not r.gave_up for r in self._replicas):
                self._parked.append((from_replica, request, future))
                return "parked"
        self.record("rehome_failed", from_replica, request_id=request.request_id,
                    error=str(last_error) if last_error else "no survivors")
        self._fail_orphans(
            [(request, future)], JobStatus.FAILED,
            "replica died and no surviving replica accepted the job"
            + (f": {last_error}" if last_error else ""),
        )
        return "failed"

    @staticmethod
    def _fail_orphans(orphans: List[Orphan], status: JobStatus, message: str) -> None:
        for request, future in orphans:
            if not future.done():
                future.set_result(SolveResponse(
                    request_id=request.request_id,
                    status=status,
                    algorithm=request.algorithm,
                    error=message,
                ))

    # ------------------------------------------------------------------
    # health / operator surface
    # ------------------------------------------------------------------
    def eject(self, replica_id: int, *, drain: bool = True) -> None:
        """Force a replica out of placement, optionally draining it.

        With ``drain`` (default) the replica stops admission and its queue
        flushes through its batcher in the background — accepted requests
        still complete and remain collectable through the set, so ejection
        loses nothing.  With ``drain=False`` the replica merely stops
        receiving *new* work and can be :meth:`restore`-d later.
        """
        replica = self._replica(replica_id)
        with self._lock:
            replica.ejected = True
        if drain:
            thread = threading.Thread(
                target=replica.service.drain,
                name=f"repro-replica-drain-{replica_id}",
                daemon=True,
            )
            thread.start()
            with self._lock:
                self._drain_threads.append(thread)

    def restore(self, replica_id: int) -> None:
        """Return an ejected/unhealthy replica (or a warm spare) to placement.

        Only possible while the replica still accepts work — a drained
        replica has permanently stopped admission and raises
        :class:`~repro.errors.ServiceError`, as does a scaled-down slot
        the source released.
        """
        replica = self._replica(replica_id)
        if replica.retired and not self._source.keeps_spares:
            raise ServiceError(
                f"replica {replica_id} was retired by scale-down and cannot be "
                "restored; scale up to add a fresh replica instead"
            )
        if not replica.service.accepting:
            raise ServiceError(
                f"replica {replica_id} has been drained and cannot be restored; "
                "build a fresh replica instead"
            )
        with self._lock:
            replica.ejected = replica.retired = False
            replica.healthy = True
            replica.consecutive_rejects = 0

    def _replica(self, replica_id: int) -> _Replica:
        if not 0 <= replica_id < len(self._replicas):
            raise KeyError(
                f"unknown replica {replica_id}; this set has "
                f"{len(self._replicas)} replicas (0..{len(self._replicas) - 1})"
            )
        return self._replicas[replica_id]

    def handle(self, replica_id: int) -> ReplicaHandle:
        """The handle currently serving slot ``replica_id``."""
        return self._replica(replica_id).service

    def replica_rows(self) -> List[Dict[str, object]]:
        """Routing/health view, one row per slot (admin endpoint).

        Deliberately NOT under the set lock: ``as_row`` reads per-service
        state whose locks the shed-callback chain holds while waiting for
        the set lock (see :meth:`_placement_order`'s lock-order invariant).
        The slot list is append-only (a restart swaps a slot atomically;
        scale-down tombstones a slot rather than removing it) and the flag
        reads are atomic, so the rows are a consistent-enough advisory
        snapshot.  Retired slots report their frozen terminal row.
        """
        return [r.as_row() for r in list(self._replicas)]

    @property
    def num_replicas(self) -> int:
        """Total slots ever created, including retired ones."""
        return len(self._replicas)

    @property
    def active_replicas(self) -> int:
        """Slots in the pool (not scaled down); an ejection is routing,
        not pool size."""
        with self._lock:
            return sum(1 for r in self._replicas if not r.retired)

    @property
    def accepting(self) -> bool:
        """True while at least one replica admits new requests."""
        return any(
            not r.ejected and not r.retired and r.service.accepting
            for r in list(self._replicas)
        )

    @property
    def inflight(self) -> int:
        return sum(
            r.service.inflight
            for r in list(self._replicas)
            if r.final_metrics is None
        )

    @property
    def queue_depth(self) -> int:
        return sum(
            r.service.queue_depth
            for r in list(self._replicas)
            if r.final_metrics is None
        )

    def estimated_drain_seconds(self) -> Optional[float]:
        """Worst per-replica backlog drain estimate (Retry-After hints).

        The slowest replica bounds when a retried request is likely to be
        admitted anywhere, so the max is the honest hint.  ``None`` when no
        replica can estimate yet.
        """
        estimates = []
        for replica in list(self._replicas):
            if replica.ejected or replica.retired:
                continue
            probe = getattr(replica.service, "estimated_drain_seconds", None)
            if not callable(probe):
                continue
            try:
                estimate = probe()
            except Exception:  # noqa: BLE001 — a hint, never worth failing
                continue
            if estimate is not None:
                estimates.append(float(estimate))
        return max(estimates) if estimates else None

    # ------------------------------------------------------------------
    # dynamic pool (the autoscaling seam)
    # ------------------------------------------------------------------
    def scale_up(self) -> Optional[int]:
        """Autoscaler seam: grow the pool by one slot; returns its id.

        Revives the lowest-id warm spare when the source keeps spares
        (``None`` when none can serve), else appends a slot the source
        opens, which enters placement immediately.
        """
        with self._scale_lock:
            with self._lock:
                if self._closed:
                    raise ServiceShutdownError(
                        "replica set is shut down; cannot add a replica"
                    )
                replica_id = len(self._replicas)
                spares = [r.replica_id for r in self._replicas if r.retired and not r.gave_up]
            if self._source.keeps_spares:
                for spare in spares:
                    try:
                        self.restore(spare)
                    except ServiceError:
                        continue  # not answering right now; try the next one
                    return spare
                return None
            handle = self._source.open(self, replica_id)
            with self._lock:
                self._replicas.append(_Replica(replica_id, handle))
            return replica_id

    def scale_down(self) -> Optional[int]:
        """Autoscaler seam: retire one slot (drained, never dropped).

        Picks the youngest slot still in the pool; refuses (returns
        ``None``) when no other slot could serve afterwards — an ejected or
        given-up slot still counts toward the pool size but takes no work.
        The slot leaves placement immediately.  A warm spare keeps its
        handle; otherwise the slot drains in the background, its final
        counter snapshot is frozen (so aggregate metrics keep every
        admitted job on the books), and only then is the handle released
        to the source.  A released slot can never be restored.
        """
        with self._scale_lock:
            with self._lock:
                active = [r for r in self._replicas if not r.retired]
                victim = active[-1]
                if not any(not r.ejected and not r.gave_up for r in active[:-1]):
                    return None
                victim.retired = victim.ejected = True
                victim.healthy = False
            if not self._source.keeps_spares:
                thread = threading.Thread(
                    target=self._release, args=(victim,),
                    name=f"repro-replica-retire-{victim.replica_id}", daemon=True,
                )
                thread.start()
                with self._lock:
                    self._drain_threads.append(thread)
            return victim.replica_id

    def _release(self, replica: _Replica) -> None:
        replica.service.drain()
        try:
            final = replica.service.metrics()
        except Exception:  # noqa: BLE001 — unreachable handle
            final = ServiceMetrics.empty()
        with self._lock:
            replica.final_metrics = final
        try:
            self._source.release(replica.replica_id, replica.service)
        except Exception:  # noqa: BLE001 — the source's teardown problem
            pass

    def note_scale_decision(self, decision: Dict[str, object]) -> None:
        """Record the most recent autoscaling decision for ``/metrics``."""
        with self._lock:
            self._last_scale = dict(decision)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def metrics(self) -> ServiceMetrics:
        """Aggregate snapshot across replicas.

        Counters (submitted/completed/failed/shed/rejected, batches, PRAM
        ledger, queue depth, in-flight) are summed; latency percentiles are
        the *worst* replica's (a conservative service-level view — exact
        cross-replica percentiles would need the raw windows); occupancy is
        request-weighted; per-priority-class ledgers are merged.  A replica
        whose process is unreachable contributes an all-zero snapshot
        instead of failing the scrape; a *retired* replica contributes the
        counter snapshot frozen when it finished draining, so scale-down
        never loses admitted jobs from the books.
        """
        replicas = list(self._replicas)

        def _snap(replica: _Replica) -> ServiceMetrics:
            with self._lock:
                final = replica.final_metrics
            if final is not None:
                return final
            try:
                return replica.service.metrics()
            except Exception:  # noqa: BLE001 — dead process must not break /metrics
                return ServiceMetrics.empty()

        snaps = [_snap(r) for r in replicas]
        classes: Dict[str, Dict[str, int]] = {}
        for snap in snaps:
            for cls_key, counters in snap.priority_classes.items():
                merged = classes.setdefault(
                    cls_key, {"admitted": 0, "shed": 0, "rejected": 0}
                )
                for outcome, count in counters.items():
                    merged[outcome] = merged.get(outcome, 0) + int(count)
        with self._lock:
            last_scale = self._last_scale
        batches = sum(s.batches for s in snaps)
        requests = sum(s.batches * s.mean_occupancy for s in snaps)
        return ServiceMetrics(
            uptime_seconds=max(s.uptime_seconds for s in snaps),
            submitted=sum(s.submitted for s in snaps),
            completed=sum(s.completed for s in snaps),
            failed=sum(s.failed for s in snaps),
            shed=sum(s.shed for s in snaps),
            rejected=sum(s.rejected for s in snaps),
            queue_depth=sum(s.queue_depth for s in snaps),
            inflight=sum(s.inflight for s in snaps),
            throughput_rps=sum(s.throughput_rps for s in snaps),
            latency_p50_ms=max(s.latency_p50_ms for s in snaps),
            latency_p95_ms=max(s.latency_p95_ms for s in snaps),
            latency_p99_ms=max(s.latency_p99_ms for s in snaps),
            latency_mean_ms=max(s.latency_mean_ms for s in snaps),
            batches=batches,
            multi_request_batches=sum(s.multi_request_batches for s in snaps),
            mean_occupancy=requests / batches if batches else 0.0,
            max_occupancy=max(s.max_occupancy for s in snaps),
            pram=CostSummary(
                time=sum(s.pram.time for s in snaps),
                work=sum(s.pram.work for s in snaps),
                charged_work=sum(s.pram.charged_work for s in snaps),
            ),
            workers=[
                {**row, "replica": replica.replica_id}
                for replica, snap in zip(replicas, snaps)
                for row in snap.workers
            ],
            replicas=[
                {
                    "replica": replica.replica_id,
                    "inflight": 0 if replica.final_metrics is not None else snap.inflight,
                    **(
                        {"live": False, "retired": True}
                        if replica.final_metrics is not None
                        else liveness_row(replica.service)
                    ),
                }
                for replica, snap in zip(replicas, snaps)
            ],
            priority_classes=classes,
            pool_size=sum(1 for r in replicas if not r.retired),
            last_scale=last_scale,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admission everywhere and wait for all replicas to go idle."""
        live = [r for r in list(self._replicas) if r.final_metrics is None]
        threads = [
            threading.Thread(target=r.service.drain, daemon=True) for r in live
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=timeout)
        return all(r.service.inflight == 0 for r in live)

    def shutdown(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop every slot through its source (drain semantics per source),
        then settle parked orphans ``CANCELLED``."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            drain_threads = list(self._drain_threads)
        for thread in drain_threads:
            thread.join(timeout=timeout)
        self._source.close(
            [r.service for r in list(self._replicas) if r.final_metrics is None],
            drain=drain, timeout=timeout,
        )
        with self._lock:
            parked, self._parked = self._parked, []
        self._fail_orphans(
            [(request, future) for _, request, future in parked],
            JobStatus.CANCELLED, "fleet shut down before the job could be re-homed",
        )
        self.record("shutdown", drained=bool(drain))
        self._recorder.close()

    def __enter__(self) -> "ReplicaSet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)
