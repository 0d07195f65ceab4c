"""Load generation and benchmarking for the serving front end.

:func:`run_load` drives a :class:`~repro.serving.service.SolveService`
with a synthetic but deterministic request stream (rotating workload
families, mixed audited/unaudited traffic), optionally verifying every
response against a direct single-instance
:func:`repro.partition.coarsest_partition` call.  Three transports are
supported: ``"inproc"`` fires the burst through the *asyncio* front end;
``"http"`` boots a loopback :class:`~repro.serving.transport.HttpIngress`
around the same service and fires the burst over real sockets; and
``"framed"`` boots the length-prefixed binary transport
(:class:`~repro.serving.framing.FramedIngress`) over the same loopback.
Orthogonally, ``replica_mode="process"`` swaps the in-process service
for a :class:`~repro.serving.supervisor.ReplicaSupervisor` of
socket-backed child processes, so the ``serving`` benchmark experiment
(``BENCH_SERVING.json``) tracks the over-the-wire and cross-process
overheads next to the in-process numbers across PRs.
:func:`run_wire_load` drives an *already-running* server by URL (the
``repro-serve --connect`` load generator used by the CI transport smoke).

:func:`run_open_loop` is the *open-loop* generator: it offers requests at
a fixed arrival rate regardless of how the service is coping (the honest
way to measure overload — a closed loop self-throttles and hides the
knee), and :func:`run_capacity_sweep` runs it across a grid of replica
counts × offered rates to produce the measured capacity model
(``repro-serve --loadgen --sweep`` → ``BENCH_SERVING.json``): per-cell
p50/p95/p99, shed fraction and achieved throughput, plus the per-pool
*knee* — the highest offered rate the pool absorbs within SLO.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import QueueFullError, ServiceError
from ..graphs.generators import random_function, random_permutation, tree_heavy
from ..partition import coarsest_partition, same_partition
from .metrics import ServiceMetrics
from .requests import JobStatus, SolveRequest, SolveResponse
from .service import SolveService

#: Transports :func:`run_load` can fire a burst through.
TRANSPORTS = ("inproc", "http", "framed")

#: Where the solver lives: in this process, or in supervised children.
REPLICA_MODES = ("inproc", "process")

#: Workload families the load generator rotates through.
_FAMILIES = (
    ("mixed", lambda n, seed: random_function(n, num_labels=3, seed=seed)),
    ("permutation", lambda n, seed: random_permutation(n, num_labels=2, seed=seed)),
    ("tree_heavy", lambda n, seed: tree_heavy(n, num_labels=2, cycle_fraction=0.05, seed=seed)),
)


def generate_requests(
    count: int,
    size: int,
    *,
    seed: int = 0,
    audit_mix: bool = True,
) -> List[Tuple[np.ndarray, np.ndarray, bool]]:
    """Deterministic request stream: ``(function, labels, audit)`` triples.

    Workload families rotate per request; with ``audit_mix`` every other
    request runs unaudited, so the stream exercises both compat-key groups
    (audited and fast-path) and the batcher must keep them apart.
    """
    stream = []
    for i in range(count):
        _, build = _FAMILIES[i % len(_FAMILIES)]
        f, b = build(size, seed + i)
        audit = (i % 2 == 0) if audit_mix else True
        stream.append((f, b, audit))
    return stream


@dataclass
class LoadReport:
    """Outcome of one load-generator run."""

    responses: List[SolveResponse]
    metrics: ServiceMetrics
    wall_seconds: float
    config: Dict[str, object]
    mismatches: List[int] = field(default_factory=list)  # request ids
    verified: Optional[bool] = None  # None = verification not requested

    @property
    def completed(self) -> int:
        return sum(1 for r in self.responses if r.status is JobStatus.DONE)

    @property
    def all_done(self) -> bool:
        return self.completed == len(self.responses)

    @property
    def coalesced(self) -> bool:
        """Did at least one batch carry more than one request?"""
        return self.metrics.multi_request_batches > 0


def run_load(
    *,
    workers: int = 4,
    backend: str = "thread",
    placement: str = "least_loaded",
    max_batch_size: int = 32,
    max_batch_delay: float = 0.002,
    queue_capacity: int = 1024,
    mode: str = "packed",
    requests: int = 64,
    size: int = 256,
    seed: int = 0,
    algorithm: str = "jaja-ryu",
    audit_mix: bool = True,
    verify: bool = False,
    transport: str = "inproc",
    replica_mode: str = "inproc",
    replicas: int = 2,
    concurrency: int = 16,
    chaos_proxy: bool = False,
) -> LoadReport:
    """Drive a fresh service with a synthetic burst and report the outcome.

    All ``requests`` solve requests are fired concurrently (the realistic
    arrival pattern for micro-batching: a burst, not a trickle), the
    service is drained, and the final metrics snapshot is captured.  With
    ``transport="inproc"`` the burst goes through the asyncio front end;
    with ``"http"`` a loopback :class:`~repro.serving.transport.HttpIngress`
    is booted around the service and the burst travels over real sockets
    (``concurrency`` keep-alive client connections); with ``"framed"``
    the loopback server is a :class:`~repro.serving.framing.FramedIngress`
    and the clients speak the length-prefixed binary protocol.  With
    ``replica_mode="process"`` the backend is a
    :class:`~repro.serving.supervisor.ReplicaSupervisor` of ``replicas``
    child OS processes instead of one in-process service (requires a
    socket transport — a process backend with no wire makes no sense).
    With ``verify`` every DONE response's labels are checked against a
    direct ``coarsest_partition`` call with the same algorithm and audit
    flag.  With ``chaos_proxy`` (socket transports only) the burst rides
    through a faults-disabled
    :class:`~repro.serving.chaos.ChaosTcpProxy`, measuring the pure
    byte-shoveling overhead of the chaos harness itself.
    """
    if transport not in TRANSPORTS:
        raise ValueError(f"unknown transport {transport!r}; choose from {TRANSPORTS}")
    if replica_mode not in REPLICA_MODES:
        raise ValueError(
            f"unknown replica_mode {replica_mode!r}; choose from {REPLICA_MODES}")
    if replica_mode == "process" and transport == "inproc":
        raise ValueError(
            "replica_mode='process' needs a socket transport "
            "('http' or 'framed'); there is no in-process path to a child")
    if chaos_proxy and transport == "inproc":
        raise ValueError(
            "chaos_proxy=True needs a socket transport ('http' or 'framed'); "
            "there is no TCP stream to interpose on in-process")
    stream = generate_requests(requests, size, seed=seed, audit_mix=audit_mix)
    config: Dict[str, object] = {
        "workers": workers,
        "backend": backend,
        "placement": placement,
        "max_batch_size": max_batch_size,
        "max_batch_delay": max_batch_delay,
        "queue_capacity": queue_capacity,
        "mode": mode,
        "requests": requests,
        "size": size,
        "seed": seed,
        "algorithm": algorithm,
        "audit_mix": audit_mix,
        "transport": transport,
        "replica_mode": replica_mode,
    }
    if replica_mode == "process":
        config["replicas"] = replicas
    if chaos_proxy:
        config["chaos_proxy"] = True

    if replica_mode == "process":
        from .supervisor import ReplicaSupervisor

        service = ReplicaSupervisor(
            replicas,
            service_kwargs=dict(
                workers=workers,
                backend=backend,
                placement=placement,
                max_batch_size=max_batch_size,
                max_batch_delay=max_batch_delay,
                queue_capacity=queue_capacity,
                mode=mode,
                default_algorithm=algorithm,
            ),
            seed=seed,
        ).start()
    else:
        service = SolveService(
            workers=workers,
            backend=backend,
            placement=placement,
            max_batch_size=max_batch_size,
            max_batch_delay=max_batch_delay,
            queue_capacity=queue_capacity,
            mode=mode,
            default_algorithm=algorithm,
            seed=seed,
        )
    ingress = None
    proxy = None
    client_factory = None
    try:
        if transport != "inproc":
            # Boot the loopback server BEFORE the timer: the measured
            # window is the wire cost of the burst, not thread/event-loop
            # startup and teardown.
            if transport == "framed":
                from .framing import FramedIngress, FramedServiceClient

                ingress = FramedIngress(service).start_in_thread()
                client_factory = FramedServiceClient
            else:
                from .transport import HttpIngress

                ingress = HttpIngress(service).start_in_thread()
        url = None
        if ingress is not None:
            url = ingress.url
            if chaos_proxy:
                from .chaos import ChaosTcpProxy

                proxy = ChaosTcpProxy((ingress.host, ingress.port)).start()
                url = proxy.url
        start = time.perf_counter()
        if url is not None:
            responses = _post_stream(
                url, stream, algorithm, concurrency,
                client_factory=client_factory)
        else:
            responses = asyncio.run(_fire(service, stream, algorithm))
        service.drain()
        wall = time.perf_counter() - start
        metrics = service.metrics()
    finally:
        if proxy is not None:
            proxy.close()
        if ingress is not None:
            ingress.close()
        service.shutdown()

    report = LoadReport(
        responses=responses,
        metrics=metrics,
        wall_seconds=wall,
        config=config,
    )
    if verify:
        _verify(report, stream, algorithm)
    return report


def _verify(
    report,  # LoadReport or WireLoadReport: responses/verified/mismatches
    stream: Sequence[Tuple[np.ndarray, np.ndarray, bool]],
    algorithm: str,
) -> None:
    report.verified = True
    for (f, b, audit), response in zip(stream, report.responses):
        if response.status is not JobStatus.DONE:
            report.verified = False
            report.mismatches.append(response.request_id)
            continue
        direct = coarsest_partition(f, b, algorithm=algorithm, audit=audit)
        if not same_partition(response.labels, direct.labels):
            report.verified = False
            report.mismatches.append(response.request_id)


async def _fire(
    service: SolveService,
    stream: Sequence[Tuple[np.ndarray, np.ndarray, bool]],
    algorithm: str,
) -> List[SolveResponse]:
    return list(
        await asyncio.gather(
            *(
                service.async_solve(f, b, algorithm=algorithm, audit=audit)
                for f, b, audit in stream
            )
        )
    )


def _post_stream(
    url: str,
    stream: Sequence[Tuple[np.ndarray, np.ndarray, bool]],
    algorithm: str,
    concurrency: int,
    client_factory=None,
    connect_retries: int = 0,
    retry_delay: float = 0.25,
) -> List[SolveResponse]:
    """Fire a burst at a running server, one keep-alive client per thread.

    ``client_factory`` picks the wire protocol (default
    :class:`~repro.serving.transport.HttpServiceClient`; pass
    :class:`~repro.serving.framing.FramedServiceClient` for the binary
    framing); anything callable as ``factory(url)`` yielding a
    ``ServiceClientBase`` works.

    ``connect_retries`` makes each job survive dropped connections: on a
    transport-level failure the poisoned client is discarded and the job
    is re-sent on a fresh connection, up to N times with linear delay.
    That is what lets the chaos smoke drive a server through scheduled
    resets and partitions — the *server* guarantees exactly-once handling
    per admitted request; the retry only re-covers requests the transport
    lost on the way in or out.
    """
    import http.client

    from .transport import HttpServiceClient

    # Transport-level failures worth a fresh connection: dropped/reset
    # sockets, stuck reads, and corrupted HTTP response prefixes.
    retriable = (ConnectionError, OSError, TimeoutError, FuturesTimeout,
                 http.client.HTTPException)
    factory = client_factory if client_factory is not None else HttpServiceClient
    local = threading.local()
    clients: List[object] = []
    clients_lock = threading.Lock()

    def client():
        if not hasattr(local, "client"):
            local.client = factory(url)
            with clients_lock:
                clients.append(local.client)
        return local.client

    def discard_client() -> None:
        stale = getattr(local, "client", None)
        if stale is None:
            return
        del local.client
        try:
            stale.close()
        except OSError:
            pass

    def fire(item: Tuple[np.ndarray, np.ndarray, bool]) -> SolveResponse:
        f, b, audit = item
        attempt = 0
        while True:
            try:
                return client().solve(f, b, algorithm=algorithm, audit=audit)
            except retriable:
                discard_client()
                if attempt >= connect_retries:
                    raise
                attempt += 1
                time.sleep(retry_delay * attempt)

    pool = ThreadPoolExecutor(max_workers=max(1, min(concurrency, len(stream))))
    try:
        return list(pool.map(fire, stream))
    finally:
        pool.shutdown(wait=True)
        for c in clients:
            c.close()


@dataclass
class WireLoadReport:
    """Outcome of :func:`run_wire_load` against a running server."""

    responses: List[SolveResponse]
    wall_seconds: float
    config: Dict[str, object]
    server_metrics: Optional[Dict[str, object]] = None
    mismatches: List[int] = field(default_factory=list)
    verified: Optional[bool] = None

    @property
    def completed(self) -> int:
        return sum(1 for r in self.responses if r.status is JobStatus.DONE)

    @property
    def all_done(self) -> bool:
        return self.completed == len(self.responses)


def run_wire_load(
    url: str,
    *,
    requests: int = 64,
    size: int = 256,
    seed: int = 0,
    algorithm: str = "jaja-ryu",
    audit_mix: bool = True,
    verify: bool = True,
    concurrency: int = 16,
    connect_retries: int = 0,
) -> WireLoadReport:
    """Drive an already-running serving endpoint over the wire.

    This is the ``repro-serve --connect URL`` engine: it fires the same
    deterministic stream :func:`run_load` uses, verifies DONE responses
    against direct ``coarsest_partition`` calls, and snapshots the
    *server's* ``/metrics`` document afterwards (the server is a separate
    process, so its metrics are the only service-side observability).
    ``connect_retries`` re-sends jobs whose connection a chaos proxy (or
    real network) dropped — see :func:`_post_stream`.
    """
    from .transport import HttpServiceClient

    stream = generate_requests(requests, size, seed=seed, audit_mix=audit_mix)
    start = time.perf_counter()
    responses = _post_stream(
        url, stream, algorithm, concurrency, connect_retries=connect_retries
    )
    wall = time.perf_counter() - start
    server_metrics = None
    for attempt in range(connect_retries + 1):
        try:
            with HttpServiceClient(url) as client:
                server_metrics = client.metrics()
            break
        except (ConnectionError, OSError, TimeoutError):
            if attempt >= connect_retries:
                raise
            time.sleep(0.25 * (attempt + 1))
    report = WireLoadReport(
        responses=responses,
        wall_seconds=wall,
        config={
            "url": url, "requests": requests, "size": size, "seed": seed,
            "algorithm": algorithm, "audit_mix": audit_mix,
            "concurrency": concurrency, "transport": "http",
            "connect_retries": connect_retries,
        },
        server_metrics=server_metrics,
    )
    if verify:
        _verify(report, stream, algorithm)
    return report


#: Priority classes the open-loop generator rotates through when
#: ``priority_mix`` is on: scavenger (-2), best-effort (-1), default (0)
#: and interactive (1) — the mix the brown-out ladder discriminates on.
OPEN_LOOP_PRIORITIES = (-2, -1, 0, 1)


def run_open_loop(
    *,
    replicas: int = 1,
    rate_rps: float = 50.0,
    duration: float = 2.0,
    size: int = 64,
    seed: int = 0,
    workers: int = 2,
    max_batch_size: int = 32,
    max_batch_delay: float = 0.002,
    queue_capacity: int = 64,
    mode: str = "packed",
    algorithm: str = "jaja-ryu",
    priority_mix: bool = True,
    drain_timeout: float = 60.0,
    backend=None,
) -> Dict[str, object]:
    """Offer a fixed arrival rate to a pool and measure how it copes.

    Open loop: the generator submits at the *offered* rate no matter how
    slowly responses come back (never waiting on a result before sending
    the next request), so saturation shows up as queueing, shedding and
    latency growth instead of being silently absorbed by a self-throttling
    client.  Admission rejections (queue-full backpressure and brown-out
    floors) are *shed at the door*; everything admitted must settle — the
    returned ``lost`` count is the number of admitted jobs that never
    produced a response, and the overload-survival contract is that it is
    always zero.

    Builds a fresh in-process pool (:class:`SolveService` for one replica,
    :class:`~repro.serving.replicas.ReplicaSet` for more) unless an
    already-running ``backend`` is supplied, in which case the caller owns
    its lifecycle and ``replicas`` is only recorded in the row.
    """
    total = max(1, int(round(rate_rps * duration)))
    # A small rotating pool of instances keeps generation cost out of the
    # arrival loop (the burst must not fall behind its own schedule just
    # because numpy is busy building graphs).
    distinct = min(total, 24)
    instances = generate_requests(distinct, size, seed=seed, audit_mix=False)

    own_backend = backend is None
    if own_backend:
        service_kwargs = dict(
            workers=workers,
            max_batch_size=max_batch_size,
            max_batch_delay=max_batch_delay,
            queue_capacity=queue_capacity,
            mode=mode,
            default_algorithm=algorithm,
        )
        if replicas > 1:
            from .replicas import ReplicaSet

            backend = ReplicaSet(replicas, seed=seed, **service_kwargs)
        else:
            backend = SolveService(seed=seed, **service_kwargs)

    lock = threading.Lock()
    latencies: List[float] = []
    settled = [0]
    done = [0]
    failed = [0]
    shed_by_class: Dict[int, int] = {}
    admitted_by_class: Dict[int, int] = {}
    all_settled = threading.Event()
    admitted = 0
    rejected = 0

    try:
        interval = 1.0 / float(rate_rps)
        start = time.perf_counter()
        for i in range(total):
            # Open loop: sleep until this request's scheduled arrival; if
            # the generator is behind schedule, fire immediately (never
            # slower than offered).
            target = start + i * interval
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            f, b, _ = instances[i % distinct]
            priority = OPEN_LOOP_PRIORITIES[i % len(OPEN_LOOP_PRIORITIES)] \
                if priority_mix else 0
            request = SolveRequest.make(
                f, b, algorithm=algorithm, audit=False, priority=priority
            )
            sent_at = time.perf_counter()
            try:
                backend.submit_request(request, block=False)
            except QueueFullError:
                rejected += 1
                shed_by_class[priority] = shed_by_class.get(priority, 0) + 1
                continue
            except ServiceError:
                rejected += 1
                shed_by_class[priority] = shed_by_class.get(priority, 0) + 1
                continue
            admitted += 1
            admitted_by_class[priority] = admitted_by_class.get(priority, 0) + 1

            def _settle(response: SolveResponse, sent_at=sent_at) -> None:
                with lock:
                    settled[0] += 1
                    if response.status is JobStatus.DONE:
                        done[0] += 1
                        latencies.append(time.perf_counter() - sent_at)
                    else:
                        failed[0] += 1

            backend.on_response(request.request_id, _settle)
        offered_wall = time.perf_counter() - start

        deadline = time.monotonic() + drain_timeout
        while time.monotonic() < deadline:
            with lock:
                if settled[0] >= admitted:
                    break
            time.sleep(0.01)
        wall = time.perf_counter() - start
    finally:
        if own_backend:
            backend.shutdown(drain=True)

    with lock:
        lat = sorted(latencies)
        num_done = done[0]
        num_failed = failed[0]
        num_settled = settled[0]

    def _pct(q: float) -> Optional[float]:
        if not lat:
            return None
        return round(1e3 * lat[min(len(lat) - 1, int(q * len(lat)))], 2)

    shed = rejected + num_failed  # at the door + after admission (expiry)
    return {
        "replicas": int(replicas),
        "offered_rps": round(float(rate_rps), 1),
        "duration_s": round(float(duration), 2),
        "requests": total,
        "admitted": admitted,
        "rejected": rejected,
        "completed": num_done,
        "shed": shed,
        "shed_fraction": round(shed / total, 4),
        "lost": admitted - num_settled,
        "achieved_rps": round(num_done / wall, 1) if wall > 0 else 0.0,
        "offered_wall_s": round(offered_wall, 3),
        "wall_s": round(wall, 3),
        "p50_ms": _pct(0.50),
        "p95_ms": _pct(0.95),
        "p99_ms": _pct(0.99),
        "admitted_by_class": {str(k): v for k, v in sorted(admitted_by_class.items())},
        "shed_by_class": {str(k): v for k, v in sorted(shed_by_class.items())},
    }


def find_knee(
    cells: Sequence[Dict[str, object]],
    *,
    slo_p99_ms: Optional[float] = None,
    max_shed_fraction: float = 0.05,
) -> Optional[float]:
    """The knee of one pool's capacity curve: the highest offered rate it
    absorbed — shed fraction within ``max_shed_fraction``, nothing lost,
    and (when an SLO is given) p99 within it.  ``None`` when even the
    lowest offered rate overloads the pool."""
    knee = None
    for cell in sorted(cells, key=lambda c: c["offered_rps"]):
        if cell["lost"]:
            continue
        if cell["shed_fraction"] > max_shed_fraction:
            continue
        p99 = cell.get("p99_ms")
        if slo_p99_ms is not None and (p99 is None or p99 > slo_p99_ms):
            continue
        knee = float(cell["offered_rps"])
    return knee


def run_capacity_sweep(
    *,
    replica_counts: Sequence[int] = (1, 2, 4),
    rates_rps: Sequence[float] = (25.0, 50.0, 100.0, 200.0, 400.0),
    duration: float = 2.0,
    size: int = 64,
    seed: int = 0,
    workers: int = 2,
    queue_capacity: int = 64,
    slo_p99_ms: Optional[float] = 500.0,
    max_shed_fraction: float = 0.05,
    algorithm: str = "jaja-ryu",
    priority_mix: bool = True,
    progress=None,
) -> Dict[str, object]:
    """The measured capacity model: open-loop cells over a (pool size ×
    offered rate) grid, plus each pool's knee.

    This is what sizes the autoscaler honestly: the knee column says how
    much offered load one more replica actually buys, and the
    ``overload`` rows (2× the knee) prove the admission layer sheds
    lowest-priority-first instead of collapsing.  Returns a JSON-able
    document with ``cells`` (one row per grid point) and ``pools`` (one
    summary per replica count, knee included).
    """
    say = progress if progress is not None else (lambda *_: None)
    cells: List[Dict[str, object]] = []
    pools: List[Dict[str, object]] = []
    for replicas in replica_counts:
        pool_cells: List[Dict[str, object]] = []
        for rate in rates_rps:
            say(f"[capacity] replicas={replicas} offered={rate:g} rps ...")
            cell = run_open_loop(
                replicas=int(replicas),
                rate_rps=float(rate),
                duration=duration,
                size=size,
                seed=seed,
                workers=workers,
                queue_capacity=queue_capacity,
                algorithm=algorithm,
                priority_mix=priority_mix,
            )
            pool_cells.append(cell)
            cells.append(cell)
        knee = find_knee(
            pool_cells, slo_p99_ms=slo_p99_ms, max_shed_fraction=max_shed_fraction
        )
        lost = sum(int(c["lost"]) for c in pool_cells)
        pools.append({
            "replicas": int(replicas),
            "knee_rps": knee,
            "lost": lost,
            "max_achieved_rps": max(float(c["achieved_rps"]) for c in pool_cells),
        })
        say(f"[capacity] replicas={replicas} knee={knee!r} rps, lost={lost}")
    return {
        "slo_p99_ms": slo_p99_ms,
        "max_shed_fraction": max_shed_fraction,
        "duration_s": duration,
        "size": size,
        "workers_per_replica": workers,
        "queue_capacity": queue_capacity,
        "priority_mix": priority_mix,
        "rates_rps": [float(r) for r in rates_rps],
        "replica_counts": [int(r) for r in replica_counts],
        "cells": cells,
        "pools": pools,
    }


def run_step_load(
    *,
    mode: str = "predictive",
    capacity_model=None,
    base_rps: float = 120.0,
    step_factor: float = 2.0,
    duration: float = 6.0,
    size: int = 256,
    seed: int = 0,
    workers: int = 2,
    max_batch_size: int = 32,
    max_batch_delay: float = 0.002,
    queue_capacity: int = 48,
    min_replicas: int = 1,
    max_replicas: int = 4,
    tick_interval: float = 0.05,
    hysteresis_ticks: int = 3,
    cooldown_seconds: float = 0.25,
    algorithm: str = "jaja-ryu",
    priority_mix: bool = True,
    drain_timeout: float = 60.0,
) -> Dict[str, object]:
    """One step-load run: offer ``base_rps`` for half of ``duration``,
    then step to ``base_rps * step_factor`` for the second half, against
    a self-scaling :class:`~repro.serving.replicas.ReplicaSet`.

    ``mode`` selects the controller under test: ``"predictive"`` wires
    the committed :class:`~repro.serving.autoscale.CapacityModel` into
    the :class:`~repro.serving.autoscale.PoolController` (feed-forward +
    reactive), ``"reactive"`` runs the same policy with no model — the
    PR 9 controller.  Both modes report when the pool first reached the
    *model's* target for the stepped rate, so the A/B measures how much
    earlier feed-forward gets there, and how many requests were shed at
    the door during the transient.  The overload-survival contract holds
    throughout: every admitted request settles (``lost`` must be 0).
    """
    from .autoscale import AutoscalingPolicy, PoolController
    from .replicas import ReplicaSet

    if mode not in ("predictive", "reactive"):
        raise ValueError(f"mode must be 'predictive' or 'reactive', got {mode!r}")
    if capacity_model is None:
        raise ValueError("run_step_load needs the measured capacity model "
                         "(for the controller in predictive mode, and for "
                         "the A/B's common target pool in both)")
    step_rps = float(base_rps) * float(step_factor)
    headroom = AutoscalingPolicy().prediction_headroom
    target_pool = min(
        max_replicas, max(min_replicas, capacity_model.pool_for_rate(step_rps, headroom))
    )

    backend = ReplicaSet(
        min_replicas,
        seed=seed,
        workers=workers,
        max_batch_size=max_batch_size,
        max_batch_delay=max_batch_delay,
        queue_capacity=queue_capacity,
        default_algorithm=algorithm,
    )
    policy = AutoscalingPolicy(
        min_replicas=min_replicas,
        max_replicas=max_replicas,
        hysteresis_ticks=hysteresis_ticks,
        cooldown_seconds=cooldown_seconds,
    )
    controller = PoolController(
        backend,
        policy,
        capacity_model=capacity_model if mode == "predictive" else None,
        recorder=backend.recorder,
        interval=tick_interval,
    )

    phases = [(float(base_rps), duration / 2.0), (step_rps, duration / 2.0)]
    total = sum(max(1, int(round(rate * secs))) for rate, secs in phases)
    distinct = min(total, 24)
    instances = generate_requests(distinct, size, seed=seed, audit_mix=False)

    lock = threading.Lock()
    settled = [0]
    failed = [0]
    phase_latencies: List[List[float]] = [[], []]
    phase_stats = [
        {"offered": 0, "admitted": 0, "rejected": 0} for _ in phases
    ]
    admitted = 0

    # Pool-size timeline: (seconds since load start, active replicas) on
    # every change, sampled off-thread so the arrival loop never blocks.
    timeline: List[List[float]] = []
    sampler_stop = threading.Event()
    load_start = [0.0]

    def _sample_pool() -> None:
        last = None
        while not sampler_stop.is_set():
            active = int(backend.active_replicas)
            if active != last:
                timeline.append(
                    [round(time.perf_counter() - load_start[0], 3), active]
                )
                last = active
            sampler_stop.wait(tick_interval / 2.0)

    sampler = threading.Thread(target=_sample_pool, daemon=True)
    try:
        controller.start()
        start = time.perf_counter()
        load_start[0] = start
        sampler.start()
        sent = 0
        step_at = None
        for phase_index, (rate, secs) in enumerate(phases):
            phase_start = time.perf_counter()
            if phase_index == 1:
                step_at = phase_start - start
            count = max(1, int(round(rate * secs)))
            interval = 1.0 / rate
            stats = phase_stats[phase_index]
            latencies = phase_latencies[phase_index]
            for i in range(count):
                target = phase_start + i * interval
                delay = target - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                f, b, _ = instances[sent % distinct]
                priority = OPEN_LOOP_PRIORITIES[sent % len(OPEN_LOOP_PRIORITIES)] \
                    if priority_mix else 0
                sent += 1
                stats["offered"] += 1
                request = SolveRequest.make(
                    f, b, algorithm=algorithm, audit=False, priority=priority
                )
                sent_at = time.perf_counter()
                try:
                    backend.submit_request(request, block=False)
                except (QueueFullError, ServiceError):
                    stats["rejected"] += 1
                    continue
                stats["admitted"] += 1
                admitted += 1

                def _settle(response: SolveResponse, sent_at=sent_at,
                            latencies=latencies) -> None:
                    with lock:
                        settled[0] += 1
                        if response.status is JobStatus.DONE:
                            latencies.append(time.perf_counter() - sent_at)
                        else:
                            failed[0] += 1

                backend.on_response(request.request_id, _settle)
        offered_wall = time.perf_counter() - start

        deadline = time.monotonic() + drain_timeout
        while time.monotonic() < deadline:
            with lock:
                if settled[0] >= admitted:
                    break
            time.sleep(0.01)
        wall = time.perf_counter() - start
    finally:
        sampler_stop.set()
        controller.stop()
        backend.shutdown(drain=True)
        sampler.join(timeout=5.0)

    time_to_target = None
    if step_at is not None:
        for instant, active in timeline:
            if active >= target_pool:
                time_to_target = round(max(0.0, instant - step_at), 3)
                break

    def _pct(latencies: List[float], q: float) -> Optional[float]:
        lat = sorted(latencies)
        if not lat:
            return None
        return round(1e3 * lat[min(len(lat) - 1, int(q * len(lat)))], 2)

    with lock:
        num_failed = failed[0]
        num_settled = settled[0]
    ups = [e for e in backend.events() if e["event"] == "scale_up"]
    return {
        "mode": mode,
        "base_rps": round(float(base_rps), 1),
        "step_rps": round(step_rps, 1),
        "duration_s": round(float(duration), 2),
        "requests": total,
        "target_pool": target_pool,
        "time_to_target_s": time_to_target,
        "sheds_pre": phase_stats[0]["rejected"],
        "sheds_post": phase_stats[1]["rejected"] + num_failed,
        "admitted": admitted,
        "lost": admitted - num_settled,
        "final_pool": timeline[-1][1] if timeline else min_replicas,
        "scale_ups": len(ups),
        "p99_pre_ms": _pct(phase_latencies[0], 0.99),
        "p99_post_ms": _pct(phase_latencies[1], 0.99),
        "offered_wall_s": round(offered_wall, 3),
        "wall_s": round(wall, 3),
        "pool_timeline": timeline,
    }


def run_step_comparison(
    *,
    capacity_model,
    base_rps: float = 120.0,
    step_factor: float = 2.0,
    duration: float = 6.0,
    size: int = 256,
    seed: int = 0,
    workers: int = 2,
    queue_capacity: int = 48,
    min_replicas: int = 1,
    max_replicas: int = 4,
    progress=None,
    **kwargs,
) -> Dict[str, object]:
    """The predictive-vs-reactive A/B under one step-load profile.

    Runs :func:`run_step_load` once per controller mode (reactive first,
    so the predictive run cannot benefit from a warmer host) and returns
    a JSON-able document for the ``step_load`` section of
    ``BENCH_SERVING.json``.
    """
    say = progress if progress is not None else (lambda *_: None)
    rows = []
    for mode in ("reactive", "predictive"):
        say(f"[step] mode={mode} base={base_rps:g} rps x{step_factor:g} ...")
        row = run_step_load(
            mode=mode,
            capacity_model=capacity_model,
            base_rps=base_rps,
            step_factor=step_factor,
            duration=duration,
            size=size,
            seed=seed,
            workers=workers,
            queue_capacity=queue_capacity,
            min_replicas=min_replicas,
            max_replicas=max_replicas,
            **kwargs,
        )
        say(
            f"[step] mode={mode}: reached pool {row['final_pool']} "
            f"(target {row['target_pool']}) in {row['time_to_target_s']!r}s, "
            f"sheds_post={row['sheds_post']}, lost={row['lost']}"
        )
        rows.append(row)
    return {
        "base_rps": round(float(base_rps), 1),
        "step_factor": float(step_factor),
        "duration_s": round(float(duration), 2),
        "size": size,
        "workers_per_replica": workers,
        "queue_capacity": queue_capacity,
        "min_replicas": min_replicas,
        "max_replicas": max_replicas,
        "capacity_model_source": getattr(capacity_model, "source", None),
        "rows": rows,
    }


def run_serving_benchmark(
    sizes: Sequence[int] = (128, 256),
    *,
    seed: int = 0,
    workers: int = 4,
    requests: int = 64,
    max_batch_size: int = 32,
    max_batch_delay: float = 0.002,
    backend: str = "thread",
    mode: str = "packed",
    transports: Sequence[str] = TRANSPORTS,
    process_replicas: int = 2,
) -> List[Dict[str, object]]:
    """Benchmark-registry runner: one row per (size, transport, replica mode).

    Rows carry both host-level service numbers (throughput, latency
    percentiles, occupancy) and the aggregate charged PRAM cost, so the
    ``BENCH_SERVING.json`` totals are regression-trackable like every
    other experiment's.  The ``"http"`` and ``"framed"`` transport rows
    fire the identical burst through a loopback ingress, so the artifact
    tracks the over-the-wire overhead (wall/latency delta at equal
    charged work) across PRs; the ``replica_mode="process"`` rows add
    the cross-process supervisor cells (``process_replicas`` child OS
    processes behind the same socket transports), bounding what a crash
    -isolated deployment pays over a single-process one.  The
    ``chaos_proxy`` rows ride the framed burst through a faults-disabled
    :class:`~repro.serving.chaos.ChaosTcpProxy`, so the artifact also
    tracks the pure interposition overhead of the chaos harness — the
    price of running the resilience suite, kept honest across PRs.
    """
    cells = [(t, "inproc", False) for t in transports]
    cells += [(t, "process", False) for t in transports if t != "inproc"]
    if "framed" in transports:
        cells.append(("framed", "inproc", True))
    rows: List[Dict[str, object]] = []
    for n in sizes:
        for transport, replica_mode, chaos_proxy in cells:
            report = run_load(
                workers=workers,
                backend=backend,
                max_batch_size=max_batch_size,
                max_batch_delay=max_batch_delay,
                mode=mode,
                requests=requests,
                size=int(n),
                seed=seed,
                transport=transport,
                replica_mode=replica_mode,
                replicas=process_replicas,
                chaos_proxy=chaos_proxy,
            )
            m = report.metrics
            rows.append(
                {
                    "n": int(n),
                    "transport": transport,
                    "replica_mode": replica_mode,
                    "chaos_proxy": chaos_proxy,
                    "workers": workers,
                    "requests": requests,
                    "completed": report.completed,
                    "shed": m.shed,
                    "batches": m.batches,
                    "multi_batches": m.multi_request_batches,
                    "mean_occupancy": round(m.mean_occupancy, 2),
                    "max_occupancy": m.max_occupancy,
                    "throughput_rps": round(m.throughput_rps, 1),
                    "p50_ms": round(m.latency_p50_ms, 2),
                    "p95_ms": round(m.latency_p95_ms, 2),
                    "p99_ms": round(m.latency_p99_ms, 2),
                    "wall_seconds": round(report.wall_seconds, 4),
                    "time": m.pram.time,
                    "work": m.pram.work,
                    "charged_work": m.pram.charged_work,
                }
            )
    return rows
