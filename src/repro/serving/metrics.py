"""Rolling service metrics: throughput, latency percentiles, occupancy.

The service keeps a thread-safe :class:`MetricsRecorder`; :meth:`snapshot`
freezes it into an immutable :class:`ServiceMetrics` mirroring the
conventions of :mod:`repro.pram.metrics` — counters accumulate while the
service runs, a summary call produces a flat serialisable view, and the
PRAM cost ledger (time / work / charged work aggregated across worker
machines) rides along so service-level throughput can be correlated with
the simulator's charged cost, exactly like a ``CostSummary``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..types import CostSummary


class LatencyWindow:
    """Rolling window of the most recent request latencies (seconds)."""

    def __init__(self, maxlen: int = 4096) -> None:
        self._window: "deque[float]" = deque(maxlen=maxlen)
        self._lock = threading.Lock()

    def add(self, latency_seconds: float) -> None:
        with self._lock:
            self._window.append(latency_seconds)

    def __len__(self) -> int:
        with self._lock:
            return len(self._window)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile (``p`` in [0, 100]) over the window."""
        with self._lock:
            data = sorted(self._window)
        if not data:
            return 0.0
        rank = min(len(data) - 1, max(0, int(round(p / 100.0 * (len(data) - 1)))))
        return data[rank]

    def mean(self) -> float:
        with self._lock:
            data = list(self._window)
        return sum(data) / len(data) if data else 0.0


def _class_sort_key(cls_key: str):
    """Sort priority-class labels numerically ("-2" < "0" < "2")."""
    try:
        return (0, int(cls_key))
    except (TypeError, ValueError):
        return (1, 0)


@dataclass
class ServiceMetrics:
    """Immutable snapshot of the service's rolling metrics."""

    uptime_seconds: float
    submitted: int
    completed: int
    failed: int
    shed: int
    rejected: int
    queue_depth: int
    inflight: int
    throughput_rps: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    latency_mean_ms: float
    batches: int
    multi_request_batches: int
    mean_occupancy: float
    max_occupancy: int
    pram: CostSummary = field(default_factory=CostSummary)
    workers: List[Dict[str, object]] = field(default_factory=list)
    #: Per-replica liveness rows (a replica set fills these in): replica id,
    #: live flag, restart count, heartbeat age, inflight.
    replicas: List[Dict[str, object]] = field(default_factory=list)
    #: Per-priority-class admission counters: class (stringified priority)
    #: -> {"admitted", "shed", "rejected"} — the overload-survival ledger.
    priority_classes: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Active replica count (0 when the backend is a single service).
    pool_size: int = 0
    #: Most recent autoscaling decision (``ScaleDecision.as_dict()``),
    #: ``None`` until the pool controller has acted.
    last_scale: Optional[Dict[str, object]] = None

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable view (metrics artifacts, CI upload)."""
        return {
            "uptime_seconds": round(self.uptime_seconds, 4),
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "shed": self.shed,
            "rejected": self.rejected,
            "queue_depth": self.queue_depth,
            "inflight": self.inflight,
            "throughput_rps": round(self.throughput_rps, 2),
            "latency_ms": {
                "p50": round(self.latency_p50_ms, 3),
                "p95": round(self.latency_p95_ms, 3),
                "p99": round(self.latency_p99_ms, 3),
                "mean": round(self.latency_mean_ms, 3),
            },
            "batches": self.batches,
            "multi_request_batches": self.multi_request_batches,
            "mean_occupancy": round(self.mean_occupancy, 3),
            "max_occupancy": self.max_occupancy,
            "pram": {
                "time": self.pram.time,
                "work": self.pram.work,
                "charged_work": self.pram.charged_work,
            },
            "workers": self.workers,
            "replicas": self.replicas,
            "priority_classes": self.priority_classes,
            "pool_size": self.pool_size,
            "last_scale": self.last_scale,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ServiceMetrics":
        """Rebuild a snapshot from :meth:`as_dict` output (wire round-trip).

        Tolerant of missing keys so a remote replica running an older
        snapshot shape still yields a usable (zero-filled) object.
        """
        latency = payload.get("latency_ms") or {}
        pram = payload.get("pram") or {}
        if not isinstance(latency, dict):
            latency = {}
        if not isinstance(pram, dict):
            pram = {}

        def _num(key: str, source: Dict[str, object] = payload) -> float:
            value = source.get(key, 0)
            return float(value) if isinstance(value, (int, float)) else 0.0

        workers = payload.get("workers")
        replicas = payload.get("replicas")
        classes = payload.get("priority_classes")
        if not isinstance(classes, dict):
            classes = {}
        last_scale = payload.get("last_scale")
        if not isinstance(last_scale, dict):
            last_scale = None
        return cls(
            uptime_seconds=_num("uptime_seconds"),
            submitted=int(_num("submitted")),
            completed=int(_num("completed")),
            failed=int(_num("failed")),
            shed=int(_num("shed")),
            rejected=int(_num("rejected")),
            queue_depth=int(_num("queue_depth")),
            inflight=int(_num("inflight")),
            throughput_rps=_num("throughput_rps"),
            latency_p50_ms=_num("p50", latency),
            latency_p95_ms=_num("p95", latency),
            latency_p99_ms=_num("p99", latency),
            latency_mean_ms=_num("mean", latency),
            batches=int(_num("batches")),
            multi_request_batches=int(_num("multi_request_batches")),
            mean_occupancy=_num("mean_occupancy"),
            max_occupancy=int(_num("max_occupancy")),
            pram=CostSummary(
                time=int(_num("time", pram)),
                work=int(_num("work", pram)),
                charged_work=int(_num("charged_work", pram)),
            ),
            workers=list(workers) if isinstance(workers, list) else [],
            replicas=list(replicas) if isinstance(replicas, list) else [],
            priority_classes={
                str(cls_key): {
                    outcome: int(count)
                    for outcome, count in counters.items()
                    if isinstance(count, (int, float))
                }
                for cls_key, counters in classes.items()
                if isinstance(counters, dict)
            },
            pool_size=int(_num("pool_size")),
            last_scale=last_scale,
        )

    @classmethod
    def empty(cls) -> "ServiceMetrics":
        """All-zero snapshot (stand-in for an unreachable replica)."""
        return cls(
            uptime_seconds=0.0, submitted=0, completed=0, failed=0, shed=0,
            rejected=0, queue_depth=0, inflight=0, throughput_rps=0.0,
            latency_p50_ms=0.0, latency_p95_ms=0.0, latency_p99_ms=0.0,
            latency_mean_ms=0.0, batches=0, multi_request_batches=0,
            mean_occupancy=0.0, max_occupancy=0,
        )

    def as_prometheus(self, *, prefix: str = "repro_serving") -> str:
        """Prometheus text exposition of the snapshot (``GET /metrics``).

        One exposition per scrape target: a replica set serves its
        *aggregate* snapshot here (per-replica detail lives in the JSON
        document and ``/v1/replicas``).
        """
        tag = ""
        counters = {
            "submitted_total": self.submitted,
            "completed_total": self.completed,
            "failed_total": self.failed,
            "shed_total": self.shed,
            "rejected_total": self.rejected,
            "batches_total": self.batches,
            "multi_request_batches_total": self.multi_request_batches,
            "pram_time_total": self.pram.time,
            "pram_work_total": self.pram.work,
            "pram_charged_work_total": self.pram.charged_work,
        }
        gauges = {
            "uptime_seconds": self.uptime_seconds,
            "queue_depth": self.queue_depth,
            "inflight": self.inflight,
            "throughput_rps": self.throughput_rps,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p95_ms": self.latency_p95_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "latency_mean_ms": self.latency_mean_ms,
            "mean_batch_occupancy": self.mean_occupancy,
            "max_batch_occupancy": self.max_occupancy,
        }
        gauges["pool_size"] = self.pool_size
        lines: List[str] = []
        for name, value in counters.items():
            lines.append(f"# TYPE {prefix}_{name} counter")
            lines.append(f"{prefix}_{name}{tag} {value}")
        for name, value in gauges.items():
            lines.append(f"# TYPE {prefix}_{name} gauge")
            lines.append(f"{prefix}_{name}{tag} {float(value):g}")
        if self.priority_classes:
            for outcome in ("admitted", "shed", "rejected"):
                lines.append(f"# TYPE {prefix}_class_{outcome}_total counter")
                for cls_key in sorted(self.priority_classes, key=_class_sort_key):
                    count = int(self.priority_classes[cls_key].get(outcome, 0))
                    lines.append(
                        f'{prefix}_class_{outcome}_total{{priority="{cls_key}"}} {count}'
                    )
        if self.last_scale is not None:
            direction = str(self.last_scale.get("direction", ""))
            sign = {"up": 1, "down": -1}.get(direction, 0)
            lines.append(f"# TYPE {prefix}_last_scale_direction gauge")
            lines.append(f"{prefix}_last_scale_direction{tag} {sign}")
            target = self.last_scale.get("target")
            if isinstance(target, (int, float)):
                lines.append(f"# TYPE {prefix}_last_scale_target gauge")
                lines.append(f"{prefix}_last_scale_target{tag} {float(target):g}")
        if self.replicas:
            lines.append(f"# TYPE {prefix}_replica_live gauge")
            lines.append(f"# TYPE {prefix}_replica_restarts_total counter")
            lines.append(f"# TYPE {prefix}_replica_heartbeat_age_seconds gauge")
            lines.append(f"# TYPE {prefix}_replica_inflight gauge")
            for row in self.replicas:
                label = f'{{replica="{row.get("replica", "?")}"}}'
                lines.append(
                    f"{prefix}_replica_live{label} {1 if row.get('live', True) else 0}"
                )
                lines.append(
                    f"{prefix}_replica_restarts_total{label} {int(row.get('restarts', 0) or 0)}"
                )
                age = row.get("heartbeat_age_seconds")
                if age is not None:
                    lines.append(
                        f"{prefix}_replica_heartbeat_age_seconds{label} {float(age):g}"
                    )
                lines.append(
                    f"{prefix}_replica_inflight{label} {int(row.get('inflight', 0) or 0)}"
                )
        return "\n".join(lines) + "\n"

    def as_rows(self) -> List[Dict[str, object]]:
        """Key/value rows for ``repro.analysis.tables.render_table``."""
        flat = self.as_dict()
        latency = flat.pop("latency_ms")
        pram = flat.pop("pram")
        flat.pop("workers")
        flat.pop("replicas")
        flat.pop("priority_classes")
        flat.pop("last_scale")
        flat.update({f"latency_{k}_ms": v for k, v in latency.items()})
        flat.update({f"pram_{k}": v for k, v in pram.items()})
        return [{"metric": k, "value": v} for k, v in flat.items()]


class MetricsRecorder:
    """Thread-safe accumulator behind :meth:`SolveService.metrics`."""

    def __init__(self, *, window: int = 4096) -> None:
        self.started_at = time.monotonic()
        self._lock = threading.Lock()
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.shed = 0
        self.latency = LatencyWindow(maxlen=window)

    def record_submit(self) -> None:
        with self._lock:
            self.submitted += 1

    def record_completion(self, latency_seconds: float) -> None:
        with self._lock:
            self.completed += 1
        self.latency.add(latency_seconds)

    def record_failure(self) -> None:
        with self._lock:
            self.failed += 1

    def record_shed(self) -> None:
        with self._lock:
            self.shed += 1

    def snapshot(
        self,
        *,
        queue_depth: int,
        inflight: int,
        rejected: int,
        batches: int,
        multi_request_batches: int,
        mean_occupancy: float,
        max_occupancy: int,
        pram: Optional[CostSummary] = None,
        workers: Optional[List[Dict[str, object]]] = None,
        priority_classes: Optional[Dict[str, Dict[str, int]]] = None,
        pool_size: int = 0,
        last_scale: Optional[Dict[str, object]] = None,
    ) -> ServiceMetrics:
        uptime = time.monotonic() - self.started_at
        with self._lock:
            submitted, completed = self.submitted, self.completed
            failed, shed = self.failed, self.shed
        return ServiceMetrics(
            uptime_seconds=uptime,
            submitted=submitted,
            completed=completed,
            failed=failed,
            shed=shed,
            rejected=rejected,
            queue_depth=queue_depth,
            inflight=inflight,
            throughput_rps=completed / uptime if uptime > 0 else 0.0,
            latency_p50_ms=self.latency.percentile(50) * 1e3,
            latency_p95_ms=self.latency.percentile(95) * 1e3,
            latency_p99_ms=self.latency.percentile(99) * 1e3,
            latency_mean_ms=self.latency.mean() * 1e3,
            batches=batches,
            multi_request_batches=multi_request_batches,
            mean_occupancy=mean_occupancy,
            max_occupancy=max_occupancy,
            pram=pram if pram is not None else CostSummary(),
            workers=workers or [],
            priority_classes=priority_classes or {},
            pool_size=pool_size,
            last_scale=last_scale,
        )
