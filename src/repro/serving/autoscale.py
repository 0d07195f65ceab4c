"""Self-scaling replica pools: measured load in, scale decisions out.

:class:`PoolController` closes the loop between the serving tier's rolling
signals (queue depth, in-flight occupancy, p99 latency vs. SLO) and the
dynamic pool seam of :class:`~repro.serving.replicas.ReplicaSet` —
``scale_up()`` / ``scale_down()`` / ``active_replicas`` — so the same
controller grows and shrinks a pool whatever its slot source: in-process
services, spawned child processes
(:class:`~repro.serving.supervisor.ReplicaSupervisor`), or dialed hosts
(:class:`~repro.serving.remote.RemoteReplicaFleet`).

The control loop is deliberately boring — this is a place for
predictability, not cleverness:

* **Signals** are sampled once per tick: total queued requests, total
  in-flight requests, active replica count and, when an SLO is
  configured, the pool's rolling p99.
* **Hysteresis** — a scale direction must be demanded by
  ``hysteresis_ticks`` *consecutive* ticks before the controller acts, so
  a one-tick burst or lull never moves the pool.
* **Cooldown** — after any action the controller holds for
  ``cooldown_seconds`` regardless of signals, giving the new pool shape
  time to show up in the signals before the next judgement (otherwise a
  scale-up whose replica is still warming would immediately look like
  "still overloaded" and trigger another).
* **Bounds** — the pool never leaves ``[min_replicas, max_replicas]``.
* **Safe shrink** — scale-down goes through the pool's retire path, which
  drains the victim's in-flight work before its handle is released; the
  controller never drops accepted jobs.

Every decision that acts — and every sustained breach the controller
*declines* to act on (cooldown, bound) — is recorded to the shared
:class:`~repro.serving.events.EventRecorder` as ``scale_up`` /
``scale_down`` / ``scale_blocked``, and mirrored into ``/metrics`` via the
pool's ``note_scale_decision`` hook, so capacity incidents can be
reconstructed from the event log alone.

The controller is fully testable without wall-clock time or threads:
inject ``clock`` and call :meth:`PoolController.tick` directly; the
background thread (:meth:`PoolController.start`) is just a convenience
loop around ``tick``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from .events import EventRecorder

__all__ = [
    "AutoscalingPolicy",
    "PoolController",
    "PoolSignals",
    "ScaleDecision",
]


@dataclass(frozen=True)
class PoolSignals:
    """One tick's sampled view of the pool's load."""

    queue_depth: int          #: requests waiting in ingress queues, pool-wide
    inflight: int             #: accepted-but-unanswered requests, pool-wide
    active: int               #: replicas currently in placement
    p99_ms: Optional[float]   #: rolling p99 latency (None = not sampled)

    @property
    def depth_per_replica(self) -> float:
        return self.queue_depth / max(1, self.active)

    @property
    def inflight_per_replica(self) -> float:
        return self.inflight / max(1, self.active)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "queue_depth": self.queue_depth,
            "inflight": self.inflight,
            "active": self.active,
            "p99_ms": None if self.p99_ms is None else round(self.p99_ms, 3),
        }


@dataclass(frozen=True)
class ScaleDecision:
    """Outcome of one controller tick."""

    direction: str            #: "up" | "down" | "hold" | "blocked"
    target: int               #: active replica count after the decision
    reason: str
    at: float                 #: controller-clock instant of the decision
    signals: PoolSignals
    replica_id: Optional[int] = None  #: replica added/retired (up/down only)

    @property
    def acted(self) -> bool:
        return self.direction in ("up", "down")

    def as_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "direction": self.direction,
            "target": self.target,
            "reason": self.reason,
            "at": round(self.at, 4),
            "signals": self.signals.as_dict(),
        }
        if self.replica_id is not None:
            doc["replica"] = self.replica_id
        return doc


@dataclass
class AutoscalingPolicy:
    """Pure thresholds + bounds; owns no state and touches no pool.

    Scale-up triggers when **any** pressure signal breaches (a backlog is
    a backlog whatever caused it); scale-down requires **every** idle
    signal to agree (shrinking on partial evidence flaps).  The
    asymmetric defaults (up at 4 queued/replica, down below 0.5; up at
    90% of worker occupancy, down below 25%) leave a wide dead band so
    the controller is stable for workloads that hover near a threshold.
    """

    min_replicas: int = 1
    max_replicas: int = 8
    #: Queued requests per active replica that demand growth / allow shrink.
    scale_up_queue_depth: float = 4.0
    scale_down_queue_depth: float = 0.5
    #: In-flight requests per active replica (worker-occupancy proxy).
    scale_up_inflight: float = 8.0
    scale_down_inflight: float = 2.0
    #: Rolling-p99 SLO in milliseconds (None disables the latency signal).
    slo_p99_ms: Optional[float] = None
    #: Consecutive breach ticks before the controller acts.
    hysteresis_ticks: int = 3
    #: Hold-down after any action, in controller-clock seconds.
    cooldown_seconds: float = 5.0

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise ValueError("min_replicas must be >= 1")
        if self.max_replicas < self.min_replicas:
            raise ValueError(
                f"max_replicas ({self.max_replicas}) must be >= "
                f"min_replicas ({self.min_replicas})"
            )
        if self.hysteresis_ticks < 1:
            raise ValueError("hysteresis_ticks must be >= 1")

    def scale_up_reason(self, signals: PoolSignals) -> Optional[str]:
        """Why this tick demands growth, or ``None`` if it doesn't."""
        if signals.depth_per_replica >= self.scale_up_queue_depth:
            return (
                f"queue depth {signals.queue_depth} is "
                f"{signals.depth_per_replica:.1f}/replica "
                f"(threshold {self.scale_up_queue_depth:g})"
            )
        if signals.inflight_per_replica >= self.scale_up_inflight:
            return (
                f"inflight {signals.inflight} is "
                f"{signals.inflight_per_replica:.1f}/replica "
                f"(threshold {self.scale_up_inflight:g})"
            )
        if (
            self.slo_p99_ms is not None
            and signals.p99_ms is not None
            and signals.p99_ms > self.slo_p99_ms
        ):
            return (
                f"p99 {signals.p99_ms:.1f}ms exceeds SLO {self.slo_p99_ms:g}ms"
            )
        return None

    def scale_down_reason(self, signals: PoolSignals) -> Optional[str]:
        """Why this tick allows shrinking, or ``None`` if it doesn't."""
        if signals.depth_per_replica > self.scale_down_queue_depth:
            return None
        if signals.inflight_per_replica > self.scale_down_inflight:
            return None
        if (
            self.slo_p99_ms is not None
            and signals.p99_ms is not None
            and signals.p99_ms > 0.5 * self.slo_p99_ms
        ):
            # Latency still uncomfortably close to the SLO: keep headroom.
            return None
        return (
            f"idle: {signals.depth_per_replica:.1f} queued and "
            f"{signals.inflight_per_replica:.1f} inflight per replica"
        )


class PoolController:
    """Drives a dynamic pool from its measured signals, one tick at a time.

    Parameters
    ----------
    pool:
        Any object with the dynamic-pool seam: ``queue_depth``,
        ``inflight``, ``active_replicas``, ``scale_up() -> replica_id``,
        ``scale_down() -> Optional[replica_id]``; optionally ``metrics()``
        (for the p99 signal) and ``note_scale_decision(dict)`` (to
        mirror the last decision into ``/metrics``).
    policy:
        The :class:`AutoscalingPolicy` thresholds.
    recorder:
        Shared :class:`EventRecorder`; every action and blocked breach is
        logged.  A private recorder is created when omitted.
    clock:
        Injectable monotonic clock for cooldown arithmetic (tests drive
        the whole state machine with a fake clock and manual ticks).
    interval:
        Background-loop tick period for :meth:`start`, in seconds; must
        be positive (a zero or negative period would spin a core).
    """

    def __init__(
        self,
        pool: Any,
        policy: Optional[AutoscalingPolicy] = None,
        *,
        recorder: Optional[EventRecorder] = None,
        clock: Callable[[], float] = time.monotonic,
        interval: float = 1.0,
    ) -> None:
        interval = float(interval)
        if not interval > 0:
            raise ValueError(
                f"controller tick interval must be > 0 seconds, got {interval!r}"
            )
        self.pool = pool
        self.policy = policy or AutoscalingPolicy()
        self.recorder = recorder or EventRecorder()
        self._clock = clock
        self.interval = interval
        self._breach_up = 0
        self._breach_down = 0
        self._last_action_at: Optional[float] = None
        self._last_decision: Optional[ScaleDecision] = None
        self._decisions = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # signal sampling
    # ------------------------------------------------------------------
    def _sample(self) -> PoolSignals:
        p99: Optional[float] = None
        if self.policy.slo_p99_ms is not None:
            metrics = getattr(self.pool, "metrics", None)
            if callable(metrics):
                try:
                    p99 = float(metrics().latency_p99_ms)
                except Exception:  # noqa: BLE001 — a missing sample is a
                    p99 = None     # hold, not a crash
        return PoolSignals(
            queue_depth=int(self.pool.queue_depth),
            inflight=int(self.pool.inflight),
            active=int(self.pool.active_replicas),
            p99_ms=p99,
        )

    # ------------------------------------------------------------------
    # the state machine
    # ------------------------------------------------------------------
    def tick(self) -> ScaleDecision:
        """Sample, judge, and (maybe) act once; returns the decision.

        Call this from a test with a fake clock, or let :meth:`start`'s
        thread call it every ``interval`` seconds.
        """
        now = self._clock()
        signals = self._sample()
        up_reason = self.policy.scale_up_reason(signals)
        down_reason = None if up_reason else self.policy.scale_down_reason(signals)
        if down_reason and signals.active <= self.policy.min_replicas:
            # Idle at min_replicas is the pool's normal resting state, not
            # a blocked breach; holding quietly keeps the event log about
            # incidents (pressure at max *does* stay a blocked event).
            down_reason = None

        if up_reason:
            self._breach_up += 1
            self._breach_down = 0
        elif down_reason:
            self._breach_down += 1
            self._breach_up = 0
        else:
            self._breach_up = 0
            self._breach_down = 0

        if up_reason and self._breach_up >= self.policy.hysteresis_ticks:
            decision = self._act_up(now, signals, up_reason)
        elif down_reason and self._breach_down >= self.policy.hysteresis_ticks:
            decision = self._act_down(now, signals, down_reason)
        else:
            decision = ScaleDecision(
                direction="hold",
                target=signals.active,
                reason=up_reason or down_reason or "within thresholds",
                at=now,
                signals=signals,
            )
        self._finish(decision)
        return decision

    def _cooling_down(self, now: float) -> bool:
        return (
            self._last_action_at is not None
            and now - self._last_action_at < self.policy.cooldown_seconds
        )

    def _act_up(self, now: float, signals: PoolSignals, reason: str) -> ScaleDecision:
        if signals.active >= self.policy.max_replicas:
            return self._blocked(
                now, signals, f"{reason}; at max_replicas={self.policy.max_replicas}"
            )
        if self._cooling_down(now):
            return self._blocked(now, signals, f"{reason}; in cooldown")
        replica_id = self.pool.scale_up()
        self._breach_up = 0
        if replica_id is None:
            # The pool itself refused (e.g. a remote fleet with no spare
            # configured host): treat as a bound, not an action.
            return self._blocked(now, signals, f"{reason}; pool refused growth")
        self._last_action_at = now
        return ScaleDecision(
            direction="up",
            target=signals.active + 1,
            reason=reason,
            at=now,
            signals=signals,
            replica_id=replica_id,
        )

    def _act_down(self, now: float, signals: PoolSignals, reason: str) -> ScaleDecision:
        if signals.active <= self.policy.min_replicas:
            return self._blocked(
                now, signals, f"{reason}; at min_replicas={self.policy.min_replicas}"
            )
        if self._cooling_down(now):
            return self._blocked(now, signals, f"{reason}; in cooldown")
        replica_id = self.pool.scale_down()
        self._breach_down = 0
        if replica_id is None:
            # The pool itself refused (e.g. one active replica left): treat
            # as a bound, not an action.
            return self._blocked(now, signals, f"{reason}; pool refused shrink")
        self._last_action_at = now
        return ScaleDecision(
            direction="down",
            target=signals.active - 1,
            reason=reason,
            at=now,
            signals=signals,
            replica_id=replica_id,
        )

    def _blocked(self, now: float, signals: PoolSignals, reason: str) -> ScaleDecision:
        # Re-arm: a blocked breach must re-earn its hysteresis window, or a
        # pool pinned at a bound would emit a blocked event every tick.
        self._breach_up = 0
        self._breach_down = 0
        return ScaleDecision(
            direction="blocked",
            target=signals.active,
            reason=reason,
            at=now,
            signals=signals,
        )

    def _finish(self, decision: ScaleDecision) -> None:
        self._decisions += 1
        self._last_decision = decision
        if decision.direction == "hold":
            return  # holds stay out of the event log and /metrics
        event = {
            "up": "scale_up",
            "down": "scale_down",
            "blocked": "scale_blocked",
        }[decision.direction]
        self.recorder.record(
            event,
            replica_id=decision.replica_id,
            reason=decision.reason,
            target=decision.target,
            **decision.signals.as_dict(),
        )
        note = getattr(self.pool, "note_scale_decision", None)
        if callable(note):
            try:
                note(decision.as_dict())
            except Exception:  # noqa: BLE001 — observability must not
                pass           # break the control loop

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def last_decision(self) -> Optional[ScaleDecision]:
        return self._last_decision

    @property
    def decisions(self) -> int:
        """Ticks evaluated so far (all directions, including holds)."""
        return self._decisions

    # ------------------------------------------------------------------
    # background loop
    # ------------------------------------------------------------------
    def start(self) -> "PoolController":
        """Run :meth:`tick` every ``interval`` seconds in a daemon thread."""
        if self._thread is not None:
            return self
        self._stop.clear()

        def _loop() -> None:
            while not self._stop.wait(self.interval):
                try:
                    self.tick()
                except Exception:  # noqa: BLE001 — a bad tick must not kill
                    pass           # the loop; the next sample retries

        self._thread = threading.Thread(
            target=_loop, name="repro-pool-controller", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "PoolController":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
