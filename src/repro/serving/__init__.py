"""repro.serving — async micro-batching SFCP service with sharded workers.

The ROADMAP's production story needs more than a library call: it needs a
front end that *accepts traffic*.  This package turns
:func:`repro.partition.solve_batch` into a service:

* :mod:`~repro.serving.requests` — typed :class:`SolveRequest` /
  :class:`SolveResponse` envelopes with priorities, deadlines and
  per-request algorithm/audit options;
* :mod:`~repro.serving.queue` — a bounded ingress queue with backpressure
  and shed-on-deadline;
* :mod:`~repro.serving.batcher` — a micro-batching scheduler coalescing
  compatible requests (same :func:`repro.partition.batch_compat_key`) into
  one packed ``solve_batch`` call under ``max_batch_size`` /
  ``max_batch_delay`` knobs;
* :mod:`~repro.serving.workers` — a sharded worker pool (threads driving
  per-worker PRAM machines, each batch to the least-loaded shard);
  process-level parallelism comes from process replicas
  (:mod:`~repro.serving.supervisor`);
* :mod:`~repro.serving.service` — the :class:`SolveService` front end:
  ``async submit()/result()/solve()`` plus a synchronous facade, graceful
  drain/shutdown and a rolling metrics snapshot;
* :mod:`~repro.serving.metrics` — throughput, p50/p95/p99 latency, batch
  occupancy and shed counts, with the aggregate PRAM ledger riding along
  (JSON and Prometheus text expositions);
* :mod:`~repro.serving.wire` — versioned JSON wire schemas round-tripping
  requests, responses (bit-exact labels and billing) and structured
  errors for any network transport;
* :mod:`~repro.serving.transport` — a stdlib-only asyncio HTTP ingress
  (``POST /v1/solve`` single + batch, ``GET /v1/jobs/{id}``, ``/healthz``,
  ``/metrics``) with queue-full → 429 / draining → 503 / shed → 504 error
  mapping, plus the blocking :class:`HttpServiceClient`;
* :mod:`~repro.serving.replicas` — :class:`ReplicaSet`, the one replica
  fleet: N slots behind one submission surface with compat-key-affine
  (rendezvous) placement, least-loaded spill, health-gated ejection,
  exactly-once re-homing and parking of a dead replica's orphans, the
  scale seam and the lifecycle event log; what differs per deployment is
  its *slot source* (in-process services by default);
* :mod:`~repro.serving.handles` — the replica seam: the
  :class:`ReplicaHandle` protocol every slot satisfies, and
  :class:`ProcessReplicaHandle`, its socket-backed implementation proxying
  a replica in another OS process;
* :mod:`~repro.serving.framing` — a length-prefixed binary framed
  transport (same wire payloads, multiplexed over one connection with
  server push and heartbeats) served next to HTTP on one sniffing port:
  :class:`FramedIngress` / :class:`FramedServiceClient`;
* :mod:`~repro.serving.supervisor` — :class:`ReplicaSupervisor`: a fleet
  over the *spawn* slot source — each slot a supervised OS process,
  heartbeat-watched and restarted with exponential backoff;
* :mod:`~repro.serving.policy` — the unified :class:`FailurePolicy`
  (timeouts, :class:`BackoffPolicy` retry/reconnect schedules and a
  :class:`CircuitBreaker` per peer) shared by every client and replica
  handle;
* :mod:`~repro.serving.handles` (again) — :class:`RemoteReplicaHandle`:
  the cross-host sibling of :class:`ProcessReplicaHandle`, dialing
  ``host:port`` over the framed transport and reconnecting itself;
* :mod:`~repro.serving.remote` — :class:`RemoteReplicaFleet`: a fleet
  over the *dial* slot source — each slot a configured remote host,
  scaled within the address list — plus :class:`RemoteServiceBackend`,
  one remote host behind the single-service surface;
* :mod:`~repro.serving.chaos` — seeded, deterministic fault injection:
  :class:`ChaosTcpProxy` / :class:`ChaosSocket` replaying named
  schedules of latency, resets, partial writes, frame corruption,
  heartbeat loss and blackholes (see ``RESILIENCE.md``);
* :mod:`~repro.serving.autoscale` — :class:`PoolController` +
  :class:`AutoscalingPolicy`: a measured control loop that grows and
  shrinks a replica pool (in-process set, supervised processes, or a
  remote fleet) from rolling queue depth, per-replica occupancy and
  p99-vs-SLO, with hysteresis, cooldown and min/max bounds — every
  decision logged through the shared :class:`EventRecorder`;
* :mod:`~repro.serving.bench` — the two load drivers: ``run_load``, a
  verified closed burst against a fresh service or a running server, and
  ``run_open_loop``, an open-loop generator over a schedule of
  ``(rps, seconds)`` phases behind the capacity sweep.

Quickstart
----------

>>> import numpy as np
>>> from repro.serving import SolveService
>>> f = np.array([1, 2, 0, 0, 3]); b = np.array([0, 1, 0, 0, 1])
>>> with SolveService(workers=2, max_batch_delay=0.001) as svc:
...     response = svc.solve(f, b)
>>> response.status.value, response.num_blocks
('done', 5)

Or asynchronously, coalescing a burst of requests into shared batches::

    responses = await asyncio.gather(*(svc.async_solve(f, b) for f, b in work))

``python -m repro.serving burst --workers 4 --batch-size 32`` runs a
self-contained load-generator demo and prints the metrics table;
``repro-serve serve --replicas 3`` serves the whole stack over HTTP,
``repro-serve connect URL`` fires the same burst at a running server
over the wire, and ``repro-serve load`` measures a pool open loop.
"""

from .autoscale import (
    AutoscalingPolicy,
    PoolController,
    PoolSignals,
    ScaleDecision,
)
from .batcher import Batch, BatcherStats, MicroBatcher
from .chaos import FAULT_KINDS, ChaosSchedule, ChaosTcpProxy
from .events import EventRecorder
from .framing import FramedIngress, FramedServiceClient
from .handles import ProcessReplicaHandle, RemoteReplicaHandle, ReplicaHandle
from .metrics import LatencyWindow, MetricsRecorder, ServiceMetrics
from .policy import BackoffPolicy, CircuitBreaker, FailurePolicy
from .queue import IngressQueue
from .remote import RemoteReplicaFleet, RemoteServiceBackend
from .replicas import ReplicaSet
from .requests import JobStatus, SolveRequest, SolveResponse
from .service import SolveService
from .supervisor import ReplicaSupervisor
from .transport import HttpIngress, HttpServiceClient, ServiceClientBase
from .workers import BatchOutcome, WorkerPool, WorkerStats

__all__ = [
    "SolveService",
    "SolveRequest",
    "SolveResponse",
    "JobStatus",
    "IngressQueue",
    "MicroBatcher",
    "Batch",
    "BatcherStats",
    "WorkerPool",
    "BatchOutcome",
    "WorkerStats",
    "ServiceMetrics",
    "MetricsRecorder",
    "LatencyWindow",
    "ReplicaSet",
    "ReplicaHandle",
    "ProcessReplicaHandle",
    "ReplicaSupervisor",
    "HttpIngress",
    "HttpServiceClient",
    "ServiceClientBase",
    "FramedIngress",
    "FramedServiceClient",
    "RemoteReplicaHandle",
    "RemoteReplicaFleet",
    "RemoteServiceBackend",
    "FailurePolicy",
    "BackoffPolicy",
    "CircuitBreaker",
    "EventRecorder",
    "AutoscalingPolicy",
    "PoolController",
    "PoolSignals",
    "ScaleDecision",
    "ChaosSchedule",
    "ChaosTcpProxy",
    "FAULT_KINDS",
]
