"""Micro-batching scheduler: coalesce compatible requests into one solve.

The batcher is a background thread running a classic micro-batching loop:

1. wait for the ingress queue to become non-empty and read the compat key
   of its head entry (oldest highest-priority request);
2. claim every queued request with that key, up to ``max_batch_size``;
3. if the batch is not yet full, hold it open up to ``max_batch_delay``
   seconds, absorbing newly arriving compatible requests;
4. hand the batch to the dispatch callable (the service routes it to a
   worker, which runs one packed :func:`repro.partition.solve_batch` call
   and bills each request from the batch's per-instance attribution).

Compatibility is exactly :func:`repro.partition.batch_compat_key`: same
algorithm, same audit flag, same algorithm params.  Requests with other
keys stay queued and form their own batches on subsequent iterations.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..partition.batch import CompatKey
from .queue import IngressQueue
from .requests import SolveRequest


@dataclass
class Batch:
    """A coalesced group of compatible requests, ready to dispatch."""

    key: CompatKey
    requests: List[SolveRequest]
    formed_at: float = field(default_factory=time.monotonic)

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def algorithm(self) -> str:
        return self.key.algorithm

    @property
    def audit(self) -> bool:
        return self.key.audit

    @property
    def params(self) -> dict:
        return dict(self.key.params)


@dataclass
class BatcherStats:
    """Occupancy accounting for the metrics snapshot."""

    batches: int = 0
    multi_request_batches: int = 0
    requests: int = 0
    max_occupancy: int = 0

    @property
    def mean_occupancy(self) -> float:
        return self.requests / self.batches if self.batches else 0.0


class MicroBatcher:
    """Background coalescing loop between the queue and the worker pool."""

    def __init__(
        self,
        queue: IngressQueue,
        dispatch: Callable[[Batch], None],
        *,
        max_batch_size: int = 32,
        max_batch_delay: float = 0.002,
        poll_interval: float = 0.05,
        backpressure: Optional[Callable[[], bool]] = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_batch_delay < 0:
            raise ValueError("max_batch_delay must be >= 0")
        self.queue = queue
        self.dispatch = dispatch
        self.max_batch_size = int(max_batch_size)
        self.max_batch_delay = float(max_batch_delay)
        self.poll_interval = float(poll_interval)
        #: While this predicate is true the loop stops *claiming* (new
        #: work waits in the ingress queue, where priority/deadline order
        #: and admission control apply); dispatch of an already-claimed
        #: batch is never blocked, and ``flush`` ignores the gate so drain
        #: always completes.
        self.backpressure = backpressure
        self.stats = BatcherStats()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="repro-batcher", daemon=True)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._thread.start()

    def stop(self, *, flush: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the loop; with ``flush`` the queue is emptied into final
        batches first so already-admitted requests still get solved."""
        self._stop.set()
        self.queue.wake_all()
        self._thread.join(timeout=timeout)
        if flush:
            self.flush()

    def flush(self) -> None:
        """Synchronously batch and dispatch everything still queued."""
        while True:
            key = self.queue.head_key(timeout=0)
            if key is None:
                return
            taken = self._shed_expired(self.queue.take(key, self.max_batch_size))
            if not taken:
                continue
            self._dispatch(Batch(key, taken))

    @property
    def running(self) -> bool:
        return self._thread.is_alive()

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.is_set():
            if self.backpressure is not None and self.backpressure():
                # Re-check quickly: the gate must release the moment the
                # workers catch up, not a full poll interval later.
                self._stop.wait(min(self.poll_interval, 0.005))
                continue
            key = self.queue.head_key(timeout=self.poll_interval)
            if key is None:
                continue
            batch = self._gather(key)
            if batch:
                self._dispatch(Batch(key, batch))

    def _gather(self, key: CompatKey) -> List[SolveRequest]:
        """Claim compatible requests, holding the batch open for the delay
        window while it is not full.  ``wait_for`` aborts as soon as the
        stop flag is raised, so shutdown never waits out a long window."""
        taken = self.queue.take(key, self.max_batch_size)
        close_at = time.monotonic() + self.max_batch_delay
        while (
            len(taken) < self.max_batch_size
            and not self._stop.is_set()
            and self.queue.wait_for(key, close_at, abort=self._stop)
        ):
            taken.extend(self.queue.take(key, self.max_batch_size - len(taken)))
        return self._shed_expired(taken)

    def _shed_expired(self, taken: List[SolveRequest]) -> List[SolveRequest]:
        """Drop batch members whose deadline elapsed after they were
        claimed (e.g. while the batch was held open) — solving them late
        would waste a worker on an answer nobody wants."""
        now = time.monotonic()
        live = [r for r in taken if not r.expired(now)]
        if len(live) != len(taken):
            for request in taken:
                if request.expired(now):
                    self.queue.report_shed(request)
        return live

    def _dispatch(self, batch: Batch) -> None:
        self.stats.batches += 1
        self.stats.requests += len(batch)
        self.stats.max_occupancy = max(self.stats.max_occupancy, len(batch))
        if len(batch) > 1:
            self.stats.multi_request_batches += 1
        self.dispatch(batch)
