"""Load generation and benchmarking for the serving front end.

Two drivers:

:func:`run_load` fires a closed *burst* — every request at once, the
arrival pattern micro-batching is built for — and returns a
:class:`LoadReport`, optionally verifying every response against a
direct :func:`repro.partition.coarsest_partition` call.  By default it
builds a fresh :class:`~repro.serving.service.SolveService` (with
``replica_mode="process"`` a
:class:`~repro.serving.supervisor.ReplicaSupervisor` of child processes)
and fires through the asyncio front end (``transport="inproc"``) or over
a loopback ``"http"`` or ``"framed"`` ingress, optionally through a
faults-disabled :class:`~repro.serving.chaos.ChaosTcpProxy`; these are the
``serving`` benchmark rows (``BENCH_SERVING.json``).  Given ``url`` it
drives an *already-running* server instead and snapshots that server's
``/metrics`` (``repro-serve connect``, the CI smokes' load generator).

:func:`run_open_loop` is the *open-loop* generator: it offers requests to
a caller-owned backend at the rates of a schedule of ``(rps, seconds)``
phases no matter how the backend copes (a closed loop self-throttles and
hides the knee), and reports per-phase admission, shedding and latency
percentiles.  A cell of :func:`run_capacity_sweep` (the measured capacity
model: per-cell p50/p95/p99, shed fraction, achieved throughput and each
pool's *knee*) is a one-phase schedule against a fresh pool.
"""

from __future__ import annotations

import asyncio
import http.client
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ServiceError
from ..graphs.generators import random_function, random_permutation, tree_heavy
from ..partition import coarsest_partition, same_partition
from .chaos import ChaosTcpProxy
from .framing import FramedIngress, FramedServiceClient
from .metrics import ServiceMetrics
from .replicas import ReplicaSet
from .requests import JobStatus, SolveRequest, SolveResponse
from .service import SolveService
from .supervisor import ReplicaSupervisor
from .transport import HttpIngress, HttpServiceClient

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

# Transport-level failures worth a fresh connection: dropped/reset
# sockets, stuck reads, and corrupted HTTP response prefixes.
_RETRIABLE = (ConnectionError, OSError, TimeoutError, FuturesTimeout,
              http.client.HTTPException)


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
    """Outcome of one :func:`run_load` burst."""

    responses: List[SolveResponse]
    metrics: ServiceMetrics
    wall_seconds: float
    config: Dict[str, object]
    #: The server's ``/metrics`` document when the burst went to a ``url``.
    server_metrics: Optional[Dict[str, object]] = None
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
    url: Optional[str] = None,
    workers: int = 4,
    max_batch_size: int = 32,
    max_batch_delay: float = 0.002,
    queue_capacity: int = 1024,
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
    connect_retries: int = 0,
) -> LoadReport:
    """Fire a burst of ``requests`` concurrent solves and report the outcome.

    Without ``url`` a fresh backend is built from the service knobs, the
    burst is fired, the backend drained and its final metrics captured.
    ``transport="inproc"`` fires through the asyncio front end; ``"http"``
    and ``"framed"`` boot a loopback ingress around the backend and fire
    over real sockets (``concurrency`` keep-alive client connections).
    ``replica_mode="process"`` makes the backend ``replicas`` supervised
    child OS processes, and ``chaos_proxy`` rides the burst through a
    faults-disabled chaos proxy, measuring the harness's own overhead.

    With ``url`` (a socket ``transport``) the burst goes to that running
    server; the service knobs are unused and ``metrics`` is parsed from
    the server's ``/metrics``, kept whole as ``server_metrics``.
    ``connect_retries`` re-sends a job whose connection dropped on a fresh
    one, up to N times with linear delay: the server guarantees
    exactly-once handling per admitted request, the retry only recovers
    requests a chaos proxy (or real network) lost on the way.

    With ``verify`` every DONE response's labels are checked against a
    direct ``coarsest_partition`` call with the same algorithm and audit
    flag.
    """
    if transport not in TRANSPORTS:
        raise ValueError(f"unknown transport {transport!r}; choose from {TRANSPORTS}")
    if replica_mode not in REPLICA_MODES:
        raise ValueError(
            f"unknown replica_mode {replica_mode!r}; choose from {REPLICA_MODES}")
    if transport == "inproc" and (url or replica_mode == "process" or chaos_proxy):
        raise ValueError(
            "url, replica_mode='process' and chaos_proxy need a socket "
            "transport ('http' or 'framed'); in-process has no wire")
    stream = generate_requests(requests, size, seed=seed, audit_mix=audit_mix)
    config: Dict[str, object] = {
        "requests": requests,
        "size": size,
        "seed": seed,
        "algorithm": algorithm,
        "audit_mix": audit_mix,
        "transport": transport,
    }
    framed = transport == "framed"
    client_factory = FramedServiceClient if framed else HttpServiceClient

    if url is not None:
        config.update(url=url, concurrency=concurrency, connect_retries=connect_retries)
        start = time.perf_counter()
        responses = _post_stream(
            url, stream, algorithm, concurrency, client_factory, connect_retries)
        wall = time.perf_counter() - start

        def scrape() -> Dict[str, object]:
            with client_factory(url) as client:
                return client.metrics()

        server_metrics = _retrying(scrape, connect_retries)
        report = LoadReport(
            responses, ServiceMetrics.from_dict(server_metrics.get("metrics") or {}),
            wall, config, server_metrics)
    else:
        config.update(
            workers=workers,
            # The service's fixed worker pool, shard placement and batch
            # mode, recorded so documents stay comparable across versions.
            backend="thread",
            placement="least_loaded",
            mode="packed",
            max_batch_size=max_batch_size,
            max_batch_delay=max_batch_delay,
            queue_capacity=queue_capacity,
            replica_mode=replica_mode,
        )
        service_kwargs = dict(
            workers=workers,
            max_batch_size=max_batch_size,
            max_batch_delay=max_batch_delay,
            queue_capacity=queue_capacity,
            default_algorithm=algorithm,
        )
        if replica_mode == "process":
            config["replicas"] = replicas
            service = ReplicaSupervisor(
                replicas, service_kwargs=service_kwargs, seed=seed).start()
        else:
            service = SolveService(seed=seed, **service_kwargs)
        if chaos_proxy:
            config["chaos_proxy"] = True
        ingress = None
        proxy = None
        try:
            if transport != "inproc":
                # Boot the loopback server BEFORE the timer: the measured
                # window is the wire cost of the burst, not thread/event-loop
                # startup and teardown.
                ingress = (FramedIngress if framed else HttpIngress)(service).start_in_thread()
                url = ingress.url
                if chaos_proxy:
                    proxy = ChaosTcpProxy((ingress.host, ingress.port)).start()
                    url = proxy.url
            start = time.perf_counter()
            if url is None:
                responses = asyncio.run(_fire(service, stream, algorithm))
            else:
                responses = _post_stream(url, stream, algorithm, concurrency, client_factory)
            service.drain()
            wall = time.perf_counter() - start
            metrics = service.metrics()
        finally:
            if proxy is not None:
                proxy.close()
            if ingress is not None:
                ingress.close()
            service.shutdown()
        report = LoadReport(responses, metrics, wall, config)

    if verify:
        report.verified = True
        for (f, b, audit), response in zip(stream, report.responses):
            if response.status is not JobStatus.DONE or not same_partition(
                response.labels,
                coarsest_partition(f, b, algorithm=algorithm, audit=audit).labels,
            ):
                report.verified = False
                report.mismatches.append(response.request_id)
    return report


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


def _retrying(call, retries: int, on_error=None):
    """``call()``, re-tried up to ``retries`` times on a transport failure
    with linear delay; ``on_error`` runs after each failure."""
    attempt = 0
    while True:
        try:
            return call()
        except _RETRIABLE:
            if on_error is not None:
                on_error()
            if attempt >= retries:
                raise
            attempt += 1
            time.sleep(0.25 * attempt)


def _post_stream(
    url: str,
    stream: Sequence[Tuple[np.ndarray, np.ndarray, bool]],
    algorithm: str,
    concurrency: int,
    client_factory,
    connect_retries: int = 0,
) -> List[SolveResponse]:
    """Fire a burst at a running server, one keep-alive client per thread.

    ``client_factory(url)`` yields a ``ServiceClientBase`` speaking the
    wire protocol.  On a transport failure the poisoned client is
    discarded and the job re-sent on a fresh connection, up to
    ``connect_retries`` times.
    """
    local = threading.local()
    clients: List[object] = []
    clients_lock = threading.Lock()

    def client():
        if not hasattr(local, "client"):
            local.client = client_factory(url)
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
        return _retrying(
            lambda: client().solve(f, b, algorithm=algorithm, audit=audit),
            connect_retries, discard_client)

    pool = ThreadPoolExecutor(max_workers=max(1, min(concurrency, len(stream))))
    try:
        return list(pool.map(fire, stream))
    finally:
        pool.shutdown(wait=True)
        for c in clients:
            c.close()


#: Priority classes the open-loop generator rotates through when
#: ``priority_mix`` is on: scavenger (-2), best-effort (-1), default (0)
#: and interactive (1) — the mix the brown-out ladder discriminates on.
OPEN_LOOP_PRIORITIES = (-2, -1, 0, 1)


def run_open_loop(
    backend,
    schedule: Sequence[Tuple[float, float]],
    *,
    size: int = 64,
    seed: int = 0,
    algorithm: str = "jaja-ryu",
    priority_mix: bool = True,
    drain_timeout: float = 60.0,
) -> Dict[str, object]:
    """Offer ``backend`` each ``(rps, seconds)`` phase of ``schedule``, open loop.

    Phases run back to back; request ``i`` of a phase is sent ``i / rps``
    seconds after the phase's scheduled start whether or not earlier
    responses came back (a generator behind schedule fires at once, never
    slower than offered), so saturation shows up as queueing, shedding
    and latency growth instead of being absorbed by a self-throttling
    client.  Admission rejections (queue-full backpressure, brown-out
    floors) are shed at the door; everything admitted must settle, and
    the generator waits up to ``drain_timeout`` for it.  The caller owns
    ``backend`` (anything with ``submit_request(request, block=False)``
    and ``on_response``) and its lifecycle.

    Returns ``offered_wall_s``, ``wall_s`` (until the last admitted
    request settled) and ``phases``, one dict per phase: ``rps``,
    ``seconds``, ``start_s`` (scheduled offset); the counts
    ``offered``, ``admitted``, ``rejected`` (at the door),
    ``completed``, ``failed`` (settled but not done: shed after
    admission) and ``lost`` (admitted but never settled; the overload
    contract is that it stays 0); ``p50_ms``, ``p95_ms``, ``p99_ms``
    over completed requests (``None`` if none); and
    ``admitted_by_class`` / ``shed_by_class`` (rejected, by priority).
    """
    counts = [max(1, int(round(rps * seconds))) for rps, seconds in schedule]
    # A small rotating pool of instances keeps generation cost out of the
    # arrival loop (the generator must not fall behind its own schedule
    # just because numpy is busy building graphs).
    distinct = min(sum(counts), 24)
    instances = generate_requests(distinct, size, seed=seed, audit_mix=False)
    phases: List[Dict[str, object]] = []
    latencies: List[List[float]] = []
    settled = threading.Condition()
    sent = 0
    offset = 0.0
    start = time.perf_counter()
    for (rps, seconds), count in zip(schedule, counts):
        phase: Dict[str, object] = {
            "rps": float(rps), "seconds": float(seconds), "start_s": offset,
            "offered": count, "admitted": 0, "rejected": 0, "completed": 0,
            "failed": 0, "admitted_by_class": {}, "shed_by_class": {},
        }
        phases.append(phase)
        lat: List[float] = []
        latencies.append(lat)
        for i in range(count):
            delay = start + offset + i / float(rps) - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            f, b, _ = instances[sent % distinct]
            priority = OPEN_LOOP_PRIORITIES[sent % len(OPEN_LOOP_PRIORITIES)] \
                if priority_mix else 0
            sent += 1
            request = SolveRequest.make(
                f, b, algorithm=algorithm, audit=False, priority=priority
            )
            sent_at = time.perf_counter()
            try:
                backend.submit_request(request, block=False)
            except ServiceError:  # queue full, brown-out floor, draining
                phase["rejected"] += 1
                by_class = phase["shed_by_class"]
                by_class[priority] = by_class.get(priority, 0) + 1
                continue
            phase["admitted"] += 1
            by_class = phase["admitted_by_class"]
            by_class[priority] = by_class.get(priority, 0) + 1

            def _settle(response: SolveResponse, sent_at=sent_at, phase=phase,
                        lat=lat) -> None:
                with settled:
                    if response.status is JobStatus.DONE:
                        phase["completed"] += 1
                        lat.append(time.perf_counter() - sent_at)
                    else:
                        phase["failed"] += 1
                    settled.notify_all()

            backend.on_response(request.request_id, _settle)
        offset += float(seconds)
    offered_wall = time.perf_counter() - start

    def _unsettled(phase) -> int:
        return phase["admitted"] - phase["completed"] - phase["failed"]

    with settled:
        settled.wait_for(lambda: not any(map(_unsettled, phases)), timeout=drain_timeout)
        wall = time.perf_counter() - start
        rows = []
        for phase, lat in zip(phases, latencies):
            ordered = sorted(lat)
            row = dict(phase, lost=_unsettled(phase))
            for name, q in (("p50_ms", 0.50), ("p95_ms", 0.95), ("p99_ms", 0.99)):
                row[name] = (round(1e3 * ordered[min(len(ordered) - 1, int(q * len(ordered)))], 2)
                             if ordered else None)
            for key in ("admitted_by_class", "shed_by_class"):
                row[key] = {str(k): v for k, v in sorted(phase[key].items())}
            rows.append(row)
    return {"offered_wall_s": offered_wall, "wall_s": wall, "phases": rows}


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

    Each cell offers one rate for ``duration`` to a fresh in-process pool
    (a :class:`SolveService` for one replica, a
    :class:`~repro.serving.replicas.ReplicaSet` for more).  The knee
    column says how much offered load one more replica actually buys on
    the host that ran the sweep, and the overloaded cells prove
    the admission layer sheds lowest-priority-first instead of
    collapsing.  Returns a JSON-able document with ``cells`` (one row per
    grid point) and ``pools`` (one summary per replica count, knee
    included).
    """
    say = progress if progress is not None else (lambda *_: None)
    cells: List[Dict[str, object]] = []
    pools: List[Dict[str, object]] = []
    for replicas in replica_counts:
        replicas = int(replicas)
        pool_cells: List[Dict[str, object]] = []
        for rate in rates_rps:
            say(f"[capacity] replicas={replicas} offered={rate:g} rps ...")
            service_kwargs = dict(seed=seed, workers=workers,
                                  queue_capacity=queue_capacity, default_algorithm=algorithm)
            backend = (ReplicaSet(replicas, **service_kwargs) if replicas > 1
                       else SolveService(**service_kwargs))
            try:
                result = run_open_loop(
                    backend, [(float(rate), duration)], size=size, seed=seed,
                    algorithm=algorithm, priority_mix=priority_mix)
            finally:
                backend.shutdown(drain=True)
            phase = result["phases"][0]
            shed = phase["rejected"] + phase["failed"]  # at the door + after admission
            wall = result["wall_s"]
            pool_cells.append({
                "replicas": replicas,
                "offered_rps": round(float(rate), 1),
                "duration_s": round(float(duration), 2),
                "requests": phase["offered"],
                "admitted": phase["admitted"],
                "rejected": phase["rejected"],
                "completed": phase["completed"],
                "shed": shed,
                "shed_fraction": round(shed / phase["offered"], 4),
                "lost": phase["lost"],
                "achieved_rps": round(phase["completed"] / wall, 1) if wall > 0 else 0.0,
                "offered_wall_s": round(result["offered_wall_s"], 3),
                "wall_s": round(wall, 3),
                "p50_ms": phase["p50_ms"],
                "p95_ms": phase["p95_ms"],
                "p99_ms": phase["p99_ms"],
                "admitted_by_class": phase["admitted_by_class"],
                "shed_by_class": phase["shed_by_class"],
            })
        cells.extend(pool_cells)
        knee = find_knee(
            pool_cells, slo_p99_ms=slo_p99_ms, max_shed_fraction=max_shed_fraction
        )
        lost = sum(int(c["lost"]) for c in pool_cells)
        pools.append({
            "replicas": replicas,
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


def run_serving_benchmark(
    sizes: Sequence[int] = (128, 256),
    *,
    seed: int = 0,
    workers: int = 4,
    requests: int = 64,
    max_batch_size: int = 32,
    max_batch_delay: float = 0.002,
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
                max_batch_size=max_batch_size,
                max_batch_delay=max_batch_delay,
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
