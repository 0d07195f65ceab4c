"""Sharded worker pool executing coalesced batches.

:class:`WorkerPool` runs one daemon thread per shard, each driving its own
persistent :class:`~repro.pram.machine.Machine`, so per-worker PRAM
ledgers accumulate across batches and the service can report aggregate
charged cost.  Each batch goes to the shard with the fewest queued
instances and is solved as one packed :func:`repro.partition.solve_batch`
call; :meth:`WorkerPool.submit` returns a
:class:`concurrent.futures.Future` of its :class:`BatchOutcome`.

The NumPy kernels release the GIL only partially, so the shards mostly
interleave; their value is shard isolation and persistent ledgers.
Process-level parallelism comes from process replicas (``repro-serve serve
--processes``, :class:`~repro.serving.supervisor.ReplicaSupervisor`), which
restart a crashed child and re-home its jobs.
"""

from __future__ import annotations

import os
import queue as _queue_mod
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, List

from ..errors import ServiceError
from ..partition.batch import BatchResult, solve_batch
from ..pram.machine import Machine
from ..types import CostSummary
from .batcher import Batch


@dataclass
class BatchOutcome:
    """A solved batch: which shard ran it plus the full batch result."""

    worker_id: int
    result: BatchResult


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
                result = solve_batch(
                    [r.instance for r in batch.requests],
                    algorithm=batch.algorithm,
                    machine=self.machine,
                    audit=batch.audit,
                    **batch.params,
                )
            except BaseException as exc:  # propagate through the future
                future.set_exception(exc)
            else:
                future.set_result(BatchOutcome(self.worker_id, result))
            finally:
                self.stats.batches += 1
                self.stats.instances += len(batch)
                self.stats.busy_seconds += time.monotonic() - start
                on_done(batch)


class WorkerPool:
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
        """Instances submitted but not yet solved, across every shard.

        This is the occupancy signal admission control keys on: while the
        backlog is deep the batcher stops claiming from the ingress queue,
        so overload piles up *in front of* the service — where priorities,
        deadlines and brown-out can discriminate — instead of hiding in
        per-shard job queues as invisible latency.
        """
        with self._lock:
            return sum(shard.pending_instances for shard in self._shards)

    def cost_totals(self) -> CostSummary:
        """Aggregate PRAM ledger across every shard."""
        time_total = work = charged = 0
        for shard in self._shards:
            counter = shard.machine.counter
            time_total += counter.time
            work += counter.work
            charged += counter.charged_work
        return CostSummary(time=time_total, work=work, charged_work=charged)
