"""Typed request/response surface of the SFCP solving service.

A :class:`SolveRequest` is one SFCP instance plus its *service envelope*:
which algorithm to run, whether to audit PRAM conflicts, a scheduling
priority, and an optional deadline after which the answer is worthless and
the request should be shed rather than solved late.  Requests carrying the
same :attr:`SolveRequest.compat_key` may be coalesced into a single
packed :func:`repro.partition.solve_batch` call by the micro-batcher.

A :class:`SolveResponse` carries the partition result back together with
its billing: the per-instance :class:`~repro.partition.BatchItemReport`
cost attribution of the batch it rode in, the batch occupancy, the worker
that solved it, and queue/latency timings.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional, Tuple

import numpy as np

from ..partition.batch import CompatKey, batch_compat_key
from ..partition.problem import SFCPInstance
from ..types import CostSummary

_request_ids = itertools.count(1)


class JobStatus(str, Enum):
    """Lifecycle of a request inside the service."""

    QUEUED = "queued"      #: accepted, waiting in the ingress queue
    RUNNING = "running"    #: dispatched to a worker as part of a batch
    DONE = "done"          #: solved; labels and billing are populated
    FAILED = "failed"      #: the solve raised; ``error`` holds the message
    SHED = "shed"          #: deadline elapsed before a worker got to it
    CANCELLED = "cancelled"  #: dropped by a non-draining shutdown


@dataclass
class SolveRequest:
    """One SFCP instance wrapped in its service envelope.

    Build with :meth:`make` (which validates the arrays and converts a
    relative ``timeout`` into an absolute monotonic deadline) rather than
    the raw constructor.
    """

    instance: SFCPInstance
    algorithm: str = "jaja-ryu"
    audit: bool = True
    priority: int = 0
    deadline: Optional[float] = None  # absolute time.monotonic() instant
    params: Tuple[Tuple[str, object], ...] = ()
    request_id: int = field(default_factory=lambda: next(_request_ids))
    submitted_at: float = field(default_factory=time.monotonic)

    @classmethod
    def make(
        cls,
        function,
        initial_labels,
        *,
        algorithm: str = "jaja-ryu",
        audit: Optional[bool] = None,
        priority: int = 0,
        timeout: Optional[float] = None,
        **params,
    ) -> "SolveRequest":
        """Validate the instance arrays and stamp the service envelope.

        ``timeout`` is a relative deadline in seconds (``None`` = solve no
        matter how long it queues); ``audit=None`` normalises to audited.
        """
        instance = SFCPInstance.from_arrays(
            np.asarray(function), np.asarray(initial_labels)
        )
        now = time.monotonic()
        return cls(
            instance=instance,
            algorithm=algorithm,
            audit=True if audit is None else bool(audit),
            priority=int(priority),
            deadline=None if timeout is None else now + float(timeout),
            params=tuple(sorted(params.items())),
            submitted_at=now,
        )

    @property
    def n(self) -> int:
        return self.instance.n

    @property
    def compat_key(self) -> CompatKey:
        """Key under which this request may share a batch with others:
        its algorithm, audit flag and algorithm params (see
        :func:`repro.partition.batch_compat_key`)."""
        return batch_compat_key(self.algorithm, self.audit, params=dict(self.params))

    def expired(self, now: Optional[float] = None) -> bool:
        """True iff the deadline has elapsed (never for deadline-less)."""
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline


@dataclass
class SolveResponse:
    """Outcome of one :class:`SolveRequest`.

    ``cost`` is the request's *billed* share of the batch it rode in — the
    per-instance attribution computed by :func:`repro.partition.solve_batch`
    (the batch time, and a proportional share of the packed union's work).
    """

    request_id: int
    status: JobStatus
    algorithm: str
    labels: Optional[np.ndarray] = None
    num_blocks: int = 0
    cost: CostSummary = field(default_factory=CostSummary)
    batch_size: int = 0  #: occupancy of the batch this request rode in
    worker_id: int = -1
    queued_seconds: float = 0.0   #: submit -> dispatch-to-worker
    latency_seconds: float = 0.0  #: submit -> response ready
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status is JobStatus.DONE

    def raise_for_status(self) -> "SolveResponse":
        """Raise the matching :class:`~repro.errors.ServiceError` unless DONE.

        Shed responses raise :class:`~repro.errors.DeadlineExceededError`;
        failed/cancelled ones raise :class:`~repro.errors.ServiceError`.
        Returns ``self`` so calls chain: ``svc.result(i).raise_for_status()``.
        """
        from ..errors import DeadlineExceededError, ServiceError

        if self.status is JobStatus.SHED:
            raise DeadlineExceededError(
                f"request {self.request_id} was shed: {self.error or 'deadline exceeded'}"
            )
        if self.status in (JobStatus.FAILED, JobStatus.CANCELLED):
            raise ServiceError(
                f"request {self.request_id} {self.status.value}: {self.error or 'unknown error'}"
            )
        return self

    def as_row(self) -> Dict[str, object]:
        """Flat dict for table rendering / JSON artifacts."""
        return {
            "request": self.request_id,
            "status": self.status.value,
            "algorithm": self.algorithm,
            "blocks": self.num_blocks,
            "batch_size": self.batch_size,
            "worker": self.worker_id,
            "time": self.cost.time,
            "work": self.cost.work,
            "charged_work": self.cost.charged_work,
            "queued_ms": round(self.queued_seconds * 1e3, 3),
            "latency_ms": round(self.latency_seconds * 1e3, 3),
        }
