"""The service front end: async + sync submission over the batching core.

:class:`SolveService` wires the subsystem together::

    submit() ──> IngressQueue ──> MicroBatcher ──> WorkerPool ──> responses
                 (backpressure,    (coalesce by     (one packed solve_batch
                  shed-on-deadline) compat key)      per batch, least-loaded
                                                     shard)

Usage (synchronous facade)::

    with SolveService(workers=4) as svc:
        request_id = svc.submit(function, labels, audit=False)
        response = svc.result(request_id)          # blocks until solved
        one_shot = svc.solve(function2, labels2)   # submit + result

Usage (asyncio)::

    svc = SolveService(workers=4)
    responses = await asyncio.gather(*(svc.async_solve(f, b) for f, b in work))
    svc.shutdown()

Every request is answered with a :class:`~repro.serving.requests.SolveResponse`
— including shed (deadline) and failed ones, whose ``status`` says so —
and billed with its proportional share of the packed batch it rode in.
``shutdown(drain=True)`` stops admission, flushes the queue through the
batcher, and waits for in-flight batches, so accepted work is never lost.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import Future
from typing import Dict, Optional

from ..errors import ServiceShutdownError
from ..types import CostSummary
from .batcher import Batch, MicroBatcher
from .metrics import MetricsRecorder, ServiceMetrics
from .queue import IngressQueue
from .requests import JobStatus, SolveRequest, SolveResponse
from .workers import BatchOutcome, WorkerPool


class SolveService:
    """Async micro-batching SFCP solving service with sharded workers.

    A ``SolveService`` is also the *in-process* implementation of the
    :class:`~repro.serving.handles.ReplicaHandle` protocol — the
    submission/collection surface a :class:`~repro.serving.replicas.ReplicaSet`
    routes to.  Its socket-backed sibling,
    :class:`~repro.serving.handles.ProcessReplicaHandle`, proxies the same
    surface to a service running in another process.

    Parameters
    ----------
    workers:
        Number of worker shards (see :class:`~repro.serving.workers.WorkerPool`).
    max_batch_size, max_batch_delay:
        Micro-batching knobs: a batch dispatches when it reaches
        ``max_batch_size`` requests or has been open ``max_batch_delay``
        seconds, whichever comes first.  Every batch is solved as one
        packed :func:`repro.partition.solve_batch` call (its instances
        refined simultaneously, each billed its proportional share).
    queue_capacity:
        Ingress bound; beyond it, submits block (backpressure) or raise.
        The queue's default brown-out policy applies (see
        :class:`~repro.serving.queue.IngressQueue`): near full, it rejects
        negative (best-effort) priority classes instead of queueing them.
    default_algorithm:
        Applied to requests that do not specify their own; requests that
        do not set ``audit`` are audited.
    seed:
        Seeds the worker machines (deterministic RANDOM-winner draws).

    The batcher stops claiming from the ingress queue while the worker
    shards hold ``2 * workers * max_batch_size`` unsolved instances (every
    shard double-buffered).  Deep shard queues are invisible latency —
    work there is already committed, beyond the reach of priorities,
    deadlines and brown-out — so bounding them keeps overload *in the
    ingress queue* where admission control can discriminate.
    """

    def __init__(
        self,
        *,
        workers: int = 4,
        max_batch_size: int = 32,
        max_batch_delay: float = 0.002,
        queue_capacity: int = 1024,
        default_algorithm: str = "jaja-ryu",
        seed: int = 0,
    ) -> None:
        self.default_algorithm = default_algorithm
        self._metrics = MetricsRecorder()
        self._queue = IngressQueue(queue_capacity, on_shed=self._on_shed)
        self._pool = WorkerPool(workers, seed=seed)
        max_backlog = 2 * workers * max_batch_size
        self._batcher = MicroBatcher(
            self._queue,
            self._dispatch,
            max_batch_size=max_batch_size,
            max_batch_delay=max_batch_delay,
            backpressure=lambda: self._pool.backlog >= max_backlog,
        )
        self._lock = threading.Lock()
        self._futures: Dict[int, "Future[SolveResponse]"] = {}
        self._inflight = 0
        self._idle = threading.Condition(self._lock)
        self._accepting = True
        self._closed = False
        self._batcher.start()

    # ------------------------------------------------------------------
    # synchronous facade
    # ------------------------------------------------------------------
    def submit(
        self,
        function,
        initial_labels,
        *,
        algorithm: Optional[str] = None,
        audit: Optional[bool] = None,
        priority: int = 0,
        timeout: Optional[float] = None,
        block: bool = True,
        put_timeout: Optional[float] = None,
        **params,
    ) -> int:
        """Admit one solve request; returns its request id.

        ``timeout`` is the request's deadline (seconds from now; late
        requests are shed), ``put_timeout`` bounds how long a full queue
        may exert backpressure before :class:`~repro.errors.QueueFullError`.
        """
        request = SolveRequest.make(
            function,
            initial_labels,
            algorithm=algorithm or self.default_algorithm,
            audit=True if audit is None else audit,
            priority=priority,
            timeout=timeout,
            **params,
        )
        return self.submit_request(request, block=block, put_timeout=put_timeout)

    def submit_request(
        self,
        request: SolveRequest,
        *,
        block: bool = True,
        put_timeout: Optional[float] = None,
    ) -> int:
        with self._lock:
            if not self._accepting:
                raise ServiceShutdownError("service is draining/stopped; submit rejected")
            self._futures[request.request_id] = Future()
            self._inflight += 1
        try:
            self._queue.put(request, block=block, timeout=put_timeout)
        except BaseException:
            with self._lock:
                self._futures.pop(request.request_id, None)
                self._inflight -= 1
                self._idle.notify_all()
            raise
        self._metrics.record_submit()
        return request.request_id

    def result(self, request_id: int, timeout: Optional[float] = None) -> SolveResponse:
        """Block until the response for ``request_id`` is ready, then pop it."""
        with self._lock:
            future = self._futures.get(request_id)
        if future is None:
            raise KeyError(f"unknown or already-collected request id {request_id}")
        response = future.result(timeout=timeout)
        with self._lock:
            self._futures.pop(request_id, None)
        return response

    def solve(
        self,
        function,
        initial_labels,
        *,
        timeout: Optional[float] = None,
        **submit_kwargs,
    ) -> SolveResponse:
        """Convenience: submit one request and wait for its response."""
        request_id = self.submit(function, initial_labels, **submit_kwargs)
        return self.result(request_id, timeout=timeout)

    def on_response(self, request_id: int, callback) -> None:
        """Deliver the response for ``request_id`` to ``callback`` instead
        of a blocking :meth:`result` call.

        This is the hand-off used by network transports: the callback fires
        (from the thread that resolves the request — a worker-completion or
        shed path) exactly once with the :class:`SolveResponse`, and the
        service forgets the request, so the caller owns retention from then
        on.  Fires immediately if the response is already ready.  Raises
        ``KeyError`` for unknown or already-collected ids.
        """
        with self._lock:
            future = self._futures.get(request_id)
        if future is None:
            raise KeyError(f"unknown or already-collected request id {request_id}")

        def _deliver(done: "Future[SolveResponse]") -> None:
            with self._lock:
                self._futures.pop(request_id, None)
            callback(done.result())

        future.add_done_callback(_deliver)

    @property
    def accepting(self) -> bool:
        """True while :meth:`submit` admits new requests (not draining)."""
        with self._lock:
            return self._accepting

    @property
    def live(self) -> bool:
        """True until :meth:`shutdown`.  An in-process replica has no
        separate process to die, so liveness and admission only diverge
        while draining (``live`` and not ``accepting``)."""
        with self._lock:
            return not self._closed

    @property
    def inflight(self) -> int:
        """Number of accepted requests not yet answered."""
        with self._lock:
            return self._inflight

    @property
    def queue_depth(self) -> int:
        """Requests sitting in the ingress queue (not yet claimed)."""
        return len(self._queue)

    def estimated_drain_seconds(self) -> Optional[float]:
        """Estimated seconds for the current ingress backlog to drain at
        the observed claim rate (``None`` with no history; transports use
        it for honest Retry-After hints)."""
        return self._queue.estimated_drain_seconds()

    def brownout_level(self) -> int:
        """Current ingress brown-out level (0 = normal admission)."""
        return self._queue.brownout_level()

    # ------------------------------------------------------------------
    # asyncio front end
    # ------------------------------------------------------------------
    async def async_submit(self, function, initial_labels, **submit_kwargs) -> int:
        """Admit a request without blocking the event loop on backpressure."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, lambda: self.submit(function, initial_labels, **submit_kwargs)
        )

    async def async_result(self, request_id: int) -> SolveResponse:
        """Await the response for a previously submitted request."""
        with self._lock:
            future = self._futures.get(request_id)
        if future is None:
            raise KeyError(f"unknown or already-collected request id {request_id}")
        response = await asyncio.wrap_future(future)
        with self._lock:
            self._futures.pop(request_id, None)
        return response

    async def async_solve(self, function, initial_labels, **submit_kwargs) -> SolveResponse:
        request_id = await self.async_submit(function, initial_labels, **submit_kwargs)
        return await self.async_result(request_id)

    # ------------------------------------------------------------------
    # pipeline internals
    # ------------------------------------------------------------------
    def _dispatch(self, batch: Batch) -> None:
        """Batcher callback: route a coalesced batch to a worker shard."""
        dispatched_at = time.monotonic()
        try:
            future = self._pool.submit(batch)
        except BaseException as exc:  # pool shut down mid-flight
            self._fail_batch(batch, exc)
            return
        future.add_done_callback(
            lambda done, b=batch, t=dispatched_at: self._complete(b, t, done)
        )

    def _complete(self, batch: Batch, dispatched_at: float, done: "Future[BatchOutcome]") -> None:
        exc = done.exception()
        if exc is not None:
            self._fail_batch(batch, exc)
            return
        outcome = done.result()
        now = time.monotonic()
        for request, result, report in zip(
            batch.requests, outcome.result.results, outcome.result.per_instance
        ):
            # Bill each response its BatchItemReport share of the batch:
            # a proportional share of the packed union (see
            # repro.partition.batch).
            billed = CostSummary(
                time=report.time, work=report.work, charged_work=report.charged_work
            )
            response = SolveResponse(
                request_id=request.request_id,
                status=JobStatus.DONE,
                algorithm=result.algorithm,
                labels=result.labels,
                num_blocks=result.num_blocks,
                cost=billed,
                batch_size=len(batch),
                worker_id=outcome.worker_id,
                queued_seconds=dispatched_at - request.submitted_at,
                latency_seconds=now - request.submitted_at,
            )
            self._metrics.record_completion(response.latency_seconds)
            self._resolve(response)

    def _fail_batch(self, batch: Batch, exc: BaseException) -> None:
        now = time.monotonic()
        for request in batch.requests:
            self._metrics.record_failure()
            self._resolve(
                SolveResponse(
                    request_id=request.request_id,
                    status=JobStatus.FAILED,
                    algorithm=request.algorithm,
                    batch_size=len(batch),
                    latency_seconds=now - request.submitted_at,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )

    def _on_shed(self, request: SolveRequest) -> None:
        """Queue callback: a request's deadline elapsed while it waited."""
        self._metrics.record_shed()
        self._resolve(
            SolveResponse(
                request_id=request.request_id,
                status=JobStatus.SHED,
                algorithm=request.algorithm,
                latency_seconds=time.monotonic() - request.submitted_at,
                error="deadline exceeded while queued",
            )
        )

    def _resolve(self, response: SolveResponse) -> None:
        with self._lock:
            future = self._futures.get(response.request_id)
            self._inflight -= 1
            self._idle.notify_all()
        if future is not None and not future.done():
            future.set_result(response)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admission and wait until every accepted request is answered.

        Returns ``True`` if the service went idle within ``timeout``.
        """
        with self._lock:
            self._accepting = False
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._inflight > 0:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(timeout=remaining)
        return True

    def shutdown(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the service.

        With ``drain`` (default), admission stops, the batcher flushes the
        queue into final batches, and in-flight work completes — accepted
        requests are never dropped.  Without it, queued requests are
        answered with ``JobStatus.CANCELLED``.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._accepting = False
        # Close the queue first: submits blocked on backpressure wake up
        # and fail cleanly instead of slipping an entry in after the final
        # flush, where no batcher would ever claim it.
        self._queue.close()
        self._batcher.stop(flush=drain)
        if drain:
            self.drain(timeout=timeout)
        else:
            now = time.monotonic()
            for request in self._queue.drain():
                self._resolve(
                    SolveResponse(
                        request_id=request.request_id,
                        status=JobStatus.CANCELLED,
                        algorithm=request.algorithm,
                        latency_seconds=now - request.submitted_at,
                        error="service shut down without draining",
                    )
                )
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "SolveService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def metrics(self) -> ServiceMetrics:
        """Freeze a rolling snapshot of the service's health."""
        stats = self._batcher.stats
        with self._lock:
            inflight = self._inflight
        return self._metrics.snapshot(
            queue_depth=len(self._queue),
            inflight=inflight,
            rejected=self._queue.rejected_count,
            batches=stats.batches,
            multi_request_batches=stats.multi_request_batches,
            mean_occupancy=stats.mean_occupancy,
            max_occupancy=stats.max_occupancy,
            pram=self._pool.cost_totals(),
            workers=[s.as_row() for s in self._pool.stats()],
            priority_classes=self._queue.priority_class_counters(),
        )
