"""Sharded worker pool executing coalesced batches.

Two backends share one interface (:meth:`WorkerPool.submit` returning a
:class:`concurrent.futures.Future` of a :class:`BatchOutcome`):

``"thread"`` (default)
    One daemon thread per shard, each driving its own persistent
    :class:`~repro.pram.machine.Machine` (so per-worker PRAM ledgers
    accumulate across batches and the service can report aggregate charged
    cost).  Each batch goes to the shard with the fewest queued instances.

``"process"``
    A :class:`concurrent.futures.ProcessPoolExecutor` for true multi-core
    parallelism: each batch is solved in a child process on a fresh
    machine and the picklable :class:`~repro.partition.BatchResult` is
    shipped back.  Placement is delegated to the executor; per-batch cost
    is still exact because a fresh machine's ledger *is* the batch delta.

Both backends solve a batch as one ``mode="packed"``
:func:`repro.partition.solve_batch` call.  The NumPy kernels release the
GIL only partially, so the thread backend mostly interleaves; its value
is shard isolation and persistent ledgers.  Use the process backend when
host-level throughput matters.
"""

from __future__ import annotations

import os
import queue as _queue_mod
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import ServiceError
from ..partition.batch import BatchResult, solve_batch
from ..pram.machine import Machine
from ..types import CostSummary
from .batcher import Batch

BACKENDS = ("thread", "process")


@dataclass
class BatchOutcome:
    """A solved batch: which shard ran it plus the full batch result."""

    worker_id: int
    result: BatchResult
    solved_at: float = field(default_factory=time.monotonic)


@dataclass
class WorkerStats:
    """Per-shard accounting surfaced in the metrics snapshot."""

    worker_id: int
    batches: int = 0
    instances: int = 0
    busy_seconds: float = 0.0

    def as_row(self) -> Dict[str, object]:
        return {
            "worker": self.worker_id,
            # The serving process's pid: with process replicas, worker rows
            # from different replicas disambiguate by which child they ran in.
            "pid": os.getpid(),
            "batches": self.batches,
            "instances": self.instances,
            "busy_seconds": round(self.busy_seconds, 4),
        }


def _run_batch(batch: Batch, machine: Optional[Machine]) -> BatchResult:
    """Execute one coalesced batch on the thread backend."""
    return solve_batch(
        [r.instance for r in batch.requests],
        algorithm=batch.algorithm,
        machine=machine,
        audit=batch.audit,
        mode="packed",
        **batch.params,
    )


def _solve_in_process(payload):
    """Child-process entry point: rebuild the batch and solve it fresh.

    A fresh machine is seeded per the pool's configuration (so RANDOM
    winner draws stay reproducible across backends) and its whole ledger
    is the batch's exact cost delta.  Returns ``(pid, BatchResult)`` so
    the parent can map OS workers onto stable small shard ids.
    """
    import os

    from ..partition.problem import SFCPInstance

    arrays, algorithm, audit, params, seed = payload
    instances = [SFCPInstance.from_arrays(f, b) for f, b in arrays]
    result = solve_batch(
        instances,
        algorithm=algorithm,
        machine=Machine.default(seed=seed),
        audit=audit,
        mode="packed",
        **params,
    )
    return os.getpid(), result


class WorkerPool:
    """Common interface of the two backends (see the module docstring)."""

    num_workers: int

    def submit(self, batch: Batch) -> "Future[BatchOutcome]":
        raise NotImplementedError

    def shutdown(self, *, wait: bool = True) -> None:
        raise NotImplementedError

    def stats(self) -> List[WorkerStats]:
        raise NotImplementedError

    def cost_totals(self) -> CostSummary:
        """Aggregate PRAM ledger across every shard."""
        raise NotImplementedError

    @property
    def backlog(self) -> int:
        """Instances submitted but not yet solved, across every shard.

        This is the occupancy signal admission control keys on: while the
        backlog is deep the batcher stops claiming from the ingress queue,
        so overload piles up *in front of* the service — where priorities,
        deadlines and brown-out can discriminate — instead of hiding in
        per-shard job queues as invisible latency.
        """
        raise NotImplementedError


class _Shard(threading.Thread):
    """One worker thread with its own job queue and persistent machine."""

    def __init__(self, worker_id: int, seed: int) -> None:
        super().__init__(name=f"repro-worker-{worker_id}", daemon=True)
        self.worker_id = worker_id
        self.machine = Machine.default(seed=seed)
        self.jobs: "_queue_mod.SimpleQueue" = _queue_mod.SimpleQueue()
        self.pending_instances = 0  # guarded by the pool's lock
        self.stats = WorkerStats(worker_id)

    def run(self) -> None:
        while True:
            item = self.jobs.get()
            if item is None:
                return
            batch, future, on_done = item
            if not future.set_running_or_notify_cancel():
                on_done(batch)
                continue
            start = time.monotonic()
            try:
                result = _run_batch(batch, self.machine)
            except BaseException as exc:  # propagate through the future
                future.set_exception(exc)
            else:
                future.set_result(BatchOutcome(self.worker_id, result))
            finally:
                self.stats.batches += 1
                self.stats.instances += len(batch)
                self.stats.busy_seconds += time.monotonic() - start
                on_done(batch)


class ThreadedWorkerPool(WorkerPool):
    """Sharded in-process pool routing each batch to its least-loaded shard."""

    def __init__(self, num_workers: int, *, seed: int = 0) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = int(num_workers)
        self._lock = threading.Lock()
        self._shards = [_Shard(i, seed=seed + i) for i in range(self.num_workers)]
        for shard in self._shards:
            shard.start()
        self._closed = False

    def submit(self, batch: Batch) -> "Future[BatchOutcome]":
        with self._lock:
            if self._closed:
                raise ServiceError("worker pool is shut down")
            shard = min(self._shards, key=lambda s: (s.pending_instances, s.worker_id))
            shard.pending_instances += len(batch)
        future: "Future[BatchOutcome]" = Future()

        def on_done(done_batch: Batch) -> None:
            with self._lock:
                shard.pending_instances -= len(done_batch)

        shard.jobs.put((batch, future, on_done))
        return future

    def shutdown(self, *, wait: bool = True) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for shard in self._shards:
            shard.jobs.put(None)
        if wait:
            for shard in self._shards:
                shard.join()

    def stats(self) -> List[WorkerStats]:
        return [shard.stats for shard in self._shards]

    @property
    def backlog(self) -> int:
        with self._lock:
            return sum(shard.pending_instances for shard in self._shards)

    def cost_totals(self) -> CostSummary:
        time_total = work = charged = 0
        for shard in self._shards:
            counter = shard.machine.counter
            time_total += counter.time
            work += counter.work
            charged += counter.charged_work
        return CostSummary(time=time_total, work=work, charged_work=charged)


class ProcessWorkerPool(WorkerPool):
    """Multi-core pool shipping batches to child processes."""

    def __init__(self, num_workers: int, *, seed: int = 0) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = int(num_workers)
        self.seed = int(seed)
        self._executor = ProcessPoolExecutor(max_workers=self.num_workers)
        self._lock = threading.Lock()
        self._stats: Dict[int, WorkerStats] = {}
        self._totals = CostSummary()
        self._pid_to_id: Dict[int, int] = {}
        self._pending_instances = 0

    def submit(self, batch: Batch) -> "Future[BatchOutcome]":
        payload = (
            [(r.instance.function, r.instance.initial_labels) for r in batch.requests],
            batch.algorithm,
            batch.audit,
            batch.params,
            self.seed,
        )
        start = time.monotonic()
        num_instances = len(batch)
        with self._lock:
            self._pending_instances += num_instances
        inner = self._executor.submit(_solve_in_process, payload)
        outer: "Future[BatchOutcome]" = Future()
        outer.set_running_or_notify_cancel()

        def relay(done: "Future") -> None:
            with self._lock:
                self._pending_instances -= num_instances
            exc = done.exception()
            if exc is not None:
                outer.set_exception(exc)
                return
            pid, result = done.result()
            with self._lock:
                worker_id = self._pid_to_id.setdefault(pid, len(self._pid_to_id))
                stats = self._stats.setdefault(worker_id, WorkerStats(worker_id))
                stats.batches += 1
                stats.instances += len(result.results)
                stats.busy_seconds += time.monotonic() - start
                self._totals = CostSummary(
                    time=self._totals.time + result.cost.time,
                    work=self._totals.work + result.cost.work,
                    charged_work=self._totals.charged_work + result.cost.charged_work,
                )
            outer.set_result(BatchOutcome(worker_id, result))

        inner.add_done_callback(relay)
        return outer

    def shutdown(self, *, wait: bool = True) -> None:
        self._executor.shutdown(wait=wait)

    @property
    def backlog(self) -> int:
        with self._lock:
            return self._pending_instances

    def stats(self) -> List[WorkerStats]:
        with self._lock:
            return [self._stats[k] for k in sorted(self._stats)]

    def cost_totals(self) -> CostSummary:
        with self._lock:
            return self._totals


def create_worker_pool(backend: str, num_workers: int, *, seed: int = 0) -> WorkerPool:
    """Build the configured backend (see the module docstring)."""
    if backend == "thread":
        return ThreadedWorkerPool(num_workers, seed=seed)
    if backend == "process":
        return ProcessWorkerPool(num_workers, seed=seed)
    raise ValueError(f"unknown worker backend {backend!r}; choose from {BACKENDS}")
