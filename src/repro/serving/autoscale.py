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
  in-flight requests, active replica count, (when an SLO is configured)
  the pool's rolling p99, and (when a :class:`CapacityModel` is
  attached) an arrival-rate EWMA over the pool's cumulative admitted
  count.
* **Feed-forward prediction** — with a :class:`CapacityModel` (the
  measured per-pool knees committed by the capacity sweep into
  ``BENCH_SERVING.json``), each tick maps the smoothed arrival rate to
  the smallest pool whose measured knee covers it
  (:meth:`CapacityModel.pool_for_rate`) and pre-scales toward that
  target *before* any reactive breach.  The prediction is reconciled
  with the reactive signals: reactive pressure can push the pool **up**
  past the prediction, but scale-down never shrinks **below** it — the
  prediction is a floor, not a ceiling.  Resting *at* the predicted
  floor is the normal feed-forward state and holds quietly, exactly
  like resting at ``min_replicas``.
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

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from .events import EventRecorder

__all__ = [
    "AutoscalingPolicy",
    "CapacityModel",
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
    arrival_rps: Optional[float] = None  #: admitted-arrival-rate EWMA (None = not sampled)

    @property
    def depth_per_replica(self) -> float:
        return self.queue_depth / max(1, self.active)

    @property
    def inflight_per_replica(self) -> float:
        return self.inflight / max(1, self.active)

    def as_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "queue_depth": self.queue_depth,
            "inflight": self.inflight,
            "active": self.active,
            "p99_ms": None if self.p99_ms is None else round(self.p99_ms, 3),
        }
        if self.arrival_rps is not None:
            doc["arrival_rps"] = round(self.arrival_rps, 3)
        return doc


@dataclass(frozen=True)
class ScaleDecision:
    """Outcome of one controller tick."""

    direction: str            #: "up" | "down" | "hold" | "blocked"
    target: int               #: active replica count after the decision
    reason: str
    at: float                 #: controller-clock instant of the decision
    signals: PoolSignals
    replica_id: Optional[int] = None  #: replica added/retired (up/down only)
    #: Feed-forward target from the capacity model (None = no model / no
    #: arrival sample yet).
    prediction: Optional[int] = None
    #: The reconciled pool target: max(prediction, reactive desire),
    #: clamped to the policy bounds.  Reactive signals can only raise it
    #: past the prediction, never lower it below.
    reconciled: Optional[int] = None

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
        if self.prediction is not None:
            doc["prediction"] = self.prediction
        if self.reconciled is not None:
            doc["reconciled"] = self.reconciled
        return doc


@dataclass(frozen=True)
class CapacityModel:
    """The measured capacity of each pool size, loaded from the committed
    ``capacity_model`` section of ``BENCH_SERVING.json``.

    ``knees`` holds ``(replicas, knee_rps)`` pairs — the highest offered
    rate each pool size sustained within SLO during the capacity sweep —
    sorted by replicas ascending, pools with no measured knee omitted.
    ``p99_at_knee_ms`` carries the measured p99 at each knee when the
    sweep recorded one.  :meth:`pool_for_rate` is the feed-forward lookup
    the :class:`PoolController` uses to pre-scale for an offered rate.
    """

    knees: Tuple[Tuple[int, float], ...]
    p99_at_knee_ms: Mapping[int, float] = field(default_factory=dict)
    source: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.knees:
            raise ValueError(
                "capacity model has no pool with a measured knee; "
                "run the capacity sweep first (repro-serve --loadgen --sweep)"
            )
        if list(self.knees) != sorted(self.knees, key=lambda kv: kv[0]):
            raise ValueError("capacity model knees must ascend by replicas")

    @classmethod
    def from_document(
        cls, document: Mapping[str, Any], *, source: Optional[str] = None
    ) -> "CapacityModel":
        """Parse a capacity model from either a full ``BENCH_SERVING.json``
        document or its bare ``capacity_model`` section."""
        section = document.get("capacity_model", document)
        pools = section.get("pools") if isinstance(section, Mapping) else None
        if not isinstance(pools, list):
            raise ValueError(
                "document carries no capacity_model.pools section "
                f"(source={source or '<dict>'})"
            )
        cells = section.get("cells") if isinstance(section, Mapping) else None
        knees = []
        p99_at_knee: Dict[int, float] = {}
        for row in pools:
            if not isinstance(row, Mapping):
                continue
            replicas = row.get("replicas")
            knee = row.get("knee_rps")
            if not isinstance(replicas, int) or replicas < 1:
                continue
            if isinstance(knee, (int, float)) and not isinstance(knee, bool) and knee > 0:
                knees.append((replicas, float(knee)))
                p99 = row.get("p99_at_knee_ms")
                if p99 is None and isinstance(cells, list):
                    # Derive from the sweep cell measured at exactly the knee.
                    for cell in cells:
                        if (
                            isinstance(cell, Mapping)
                            and cell.get("replicas") == replicas
                            and cell.get("offered_rps") == knee
                        ):
                            p99 = cell.get("p99_ms")
                            break
                if isinstance(p99, (int, float)) and not isinstance(p99, bool):
                    p99_at_knee[replicas] = float(p99)
        return cls(
            knees=tuple(sorted(knees)), p99_at_knee_ms=p99_at_knee, source=source
        )

    @classmethod
    def load(cls, path: str) -> "CapacityModel":
        """Load from a ``BENCH_SERVING.json``-shaped file on disk."""
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
        return cls.from_document(document, source=path)

    @property
    def max_known_pool(self) -> int:
        """The largest pool size with a measured knee."""
        return self.knees[-1][0]

    def knee_for_pool(self, replicas: int) -> Optional[float]:
        """The measured knee rps for a pool size (None if not measured)."""
        for pool, knee in self.knees:
            if pool == replicas:
                return knee
        return None

    def pool_for_rate(self, offered_rps: float, headroom: float = 0.8) -> int:
        """The smallest measured pool whose knee covers ``offered_rps``.

        ``headroom`` is the fraction of a pool's knee the controller is
        willing to run it at (0.8 = plan to sit at 80% of the measured
        knee), so the required knee is ``offered_rps / headroom``.  When
        no measured pool covers the rate, returns the pool with the
        highest measured knee (the largest such pool on ties) — past the
        measured envelope, the pool that sustained the most is the best
        the model can honestly recommend.
        """
        if not (0.0 < headroom <= 1.0):
            raise ValueError(f"headroom must be in (0, 1], got {headroom}")
        if offered_rps <= 0:
            return self.knees[0][0]
        required = float(offered_rps) / headroom
        for replicas, knee in self.knees:
            if knee >= required:
                return replicas
        return max(self.knees, key=lambda pair: (pair[1], pair[0]))[0]


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
    #: Feed-forward: fraction of a pool's measured knee the controller
    #: plans to run it at (lower = more spare capacity per prediction).
    prediction_headroom: float = 0.8
    #: EWMA smoothing factor for the per-tick arrival-rate sample
    #: (1.0 = no smoothing, track the instantaneous rate).
    arrival_ewma_alpha: float = 0.4

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
        if not (0.0 < self.prediction_headroom <= 1.0):
            raise ValueError(
                f"prediction_headroom must be in (0, 1], got {self.prediction_headroom}"
            )
        if not (0.0 < self.arrival_ewma_alpha <= 1.0):
            raise ValueError(
                f"arrival_ewma_alpha must be in (0, 1], got {self.arrival_ewma_alpha}"
            )

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
        (for the p99 and arrival signals), ``submitted_total`` (a cheap
        cumulative admitted count the arrival EWMA prefers over a full
        ``metrics()`` scrape), and ``note_scale_decision(dict)`` (to
        mirror the last decision into ``/metrics``).
    policy:
        The :class:`AutoscalingPolicy` thresholds.
    capacity_model:
        Optional :class:`CapacityModel`.  When present, each tick feeds
        the arrival-rate EWMA through :meth:`CapacityModel.pool_for_rate`
        as a feed-forward target; without one the controller is purely
        reactive (the PR 9 behaviour, unchanged).
    recorder:
        Shared :class:`EventRecorder`; every action and blocked breach is
        logged.  A private recorder is created when omitted.
    clock:
        Injectable monotonic clock for cooldown arithmetic (tests drive
        the whole state machine with a fake clock and manual ticks).
    interval:
        Background-loop tick period for :meth:`start` (seconds).
    """

    def __init__(
        self,
        pool: Any,
        policy: Optional[AutoscalingPolicy] = None,
        *,
        capacity_model: Optional[CapacityModel] = None,
        recorder: Optional[EventRecorder] = None,
        clock: Callable[[], float] = time.monotonic,
        interval: float = 1.0,
    ) -> None:
        self.pool = pool
        self.policy = policy or AutoscalingPolicy()
        self.capacity_model = capacity_model
        self.recorder = recorder or EventRecorder()
        self._clock = clock
        self.interval = float(interval)
        self._breach_up = 0
        self._breach_down = 0
        self._last_action_at: Optional[float] = None
        self._last_decision: Optional[ScaleDecision] = None
        self._decisions = 0
        # arrival-rate EWMA state (only advanced when a model is attached)
        self._last_submitted: Optional[int] = None
        self._last_sample_at: Optional[float] = None
        self._arrival_ewma: Optional[float] = None
        # hold-down after a *refused* predictive scale-up, so a pool that
        # cannot grow is not hammered (and the log not spammed) every tick
        self._predictive_blocked_at: Optional[float] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # signal sampling
    # ------------------------------------------------------------------
    def _sample(self, now: float) -> PoolSignals:
        p99: Optional[float] = None
        submitted: Optional[int] = None
        need_p99 = self.policy.slo_p99_ms is not None
        need_arrival = self.capacity_model is not None
        if need_arrival:
            total = getattr(self.pool, "submitted_total", None)
            if isinstance(total, (int, float)) and not isinstance(total, bool):
                submitted = int(total)
        if need_p99 or (need_arrival and submitted is None):
            metrics = getattr(self.pool, "metrics", None)
            snapshot = None
            if callable(metrics):
                try:
                    snapshot = metrics()
                except Exception:  # noqa: BLE001 — a missing sample is a
                    snapshot = None  # hold, not a crash
            if snapshot is not None:
                if need_p99:
                    try:
                        p99 = float(snapshot.latency_p99_ms)
                    except Exception:  # noqa: BLE001
                        p99 = None
                if need_arrival and submitted is None:
                    try:
                        submitted = int(snapshot.submitted)
                    except Exception:  # noqa: BLE001
                        submitted = None
        return PoolSignals(
            queue_depth=int(self.pool.queue_depth),
            inflight=int(self.pool.inflight),
            active=int(self.pool.active_replicas),
            p99_ms=p99,
            arrival_rps=self._update_arrival(now, submitted),
        )

    def _update_arrival(self, now: float, submitted: Optional[int]) -> Optional[float]:
        """Advance the admitted-arrival-rate EWMA from a cumulative count."""
        if submitted is None:
            return self._arrival_ewma
        if (
            self._last_submitted is not None
            and self._last_sample_at is not None
            and now > self._last_sample_at
        ):
            instant = max(0, submitted - self._last_submitted) / (
                now - self._last_sample_at
            )
            alpha = self.policy.arrival_ewma_alpha
            self._arrival_ewma = (
                instant
                if self._arrival_ewma is None
                else alpha * instant + (1.0 - alpha) * self._arrival_ewma
            )
        self._last_submitted = submitted
        self._last_sample_at = now
        return self._arrival_ewma

    def _predict(self, signals: PoolSignals) -> Optional[int]:
        """The feed-forward pool target, clamped to the policy bounds
        (None without a model or before the first arrival-rate sample)."""
        if self.capacity_model is None or signals.arrival_rps is None:
            return None
        raw = self.capacity_model.pool_for_rate(
            signals.arrival_rps, headroom=self.policy.prediction_headroom
        )
        return max(self.policy.min_replicas, min(self.policy.max_replicas, int(raw)))

    # ------------------------------------------------------------------
    # the state machine
    # ------------------------------------------------------------------
    def tick(self) -> ScaleDecision:
        """Sample, judge, and (maybe) act once; returns the decision.

        Call this from a test with a fake clock, or let :meth:`start`'s
        thread call it every ``interval`` seconds.
        """
        now = self._clock()
        signals = self._sample(now)
        prediction = self._predict(signals)
        up_reason = self.policy.scale_up_reason(signals)
        down_reason = None if up_reason else self.policy.scale_down_reason(signals)
        floor = self.policy.min_replicas
        if prediction is not None:
            floor = max(floor, prediction)
        if down_reason and signals.active <= floor:
            # Idle at the floor — min_replicas, or the predicted pool when
            # a model is driving — is the pool's normal resting state, not
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

        reconciled = self._reconcile(signals, prediction, up_reason, down_reason)
        if (
            prediction is not None
            and signals.active < prediction
            and self._predictive_ready(now)
        ):
            # Feed-forward: the measured model says this arrival rate needs
            # a bigger pool — pre-scale now, before any reactive breach.
            # No hysteresis (the EWMA already smooths the signal) and no
            # cooldown (the prediction is exogenous: it does not depend on
            # the still-settling pool shape the cooldown protects).
            reason = (
                f"feed-forward: arrival {signals.arrival_rps:.1f} rps "
                f"predicts pool {prediction}"
            )
            decision = self._act_up(
                now, signals, reason,
                prediction=prediction, reconciled=reconciled, predictive=True,
            )
        elif up_reason and self._breach_up >= self.policy.hysteresis_ticks:
            decision = self._act_up(
                now, signals, up_reason,
                prediction=prediction, reconciled=reconciled,
            )
        elif down_reason and self._breach_down >= self.policy.hysteresis_ticks:
            decision = self._act_down(
                now, signals, down_reason,
                prediction=prediction, reconciled=reconciled,
            )
        else:
            decision = ScaleDecision(
                direction="hold",
                target=signals.active,
                reason=up_reason or down_reason or "within thresholds",
                at=now,
                signals=signals,
                prediction=prediction,
                reconciled=reconciled,
            )
        self._finish(decision)
        return decision

    def _reconcile(
        self,
        signals: PoolSignals,
        prediction: Optional[int],
        up_reason: Optional[str],
        down_reason: Optional[str],
    ) -> Optional[int]:
        """The single reconciled pool target this tick aims at.

        Starts from the feed-forward prediction (or the current pool when
        there is none); reactive pressure can only raise it, and a
        reactive shrink can never take it below the prediction.  ``None``
        when no model is attached (pure-reactive mode reports no target).
        """
        if prediction is None:
            return None
        desired = prediction
        if up_reason:
            desired = max(desired, signals.active + 1)
        elif down_reason:
            desired = max(prediction, signals.active - 1)
        return max(
            self.policy.min_replicas, min(self.policy.max_replicas, desired)
        )

    def _cooling_down(self, now: float) -> bool:
        return (
            self._last_action_at is not None
            and now - self._last_action_at < self.policy.cooldown_seconds
        )

    def _predictive_ready(self, now: float) -> bool:
        return (
            self._predictive_blocked_at is None
            or now - self._predictive_blocked_at >= self.policy.cooldown_seconds
        )

    def _act_up(
        self,
        now: float,
        signals: PoolSignals,
        reason: str,
        *,
        prediction: Optional[int] = None,
        reconciled: Optional[int] = None,
        predictive: bool = False,
    ) -> ScaleDecision:
        if signals.active >= self.policy.max_replicas:
            return self._blocked(
                now, signals, f"{reason}; at max_replicas={self.policy.max_replicas}",
                prediction=prediction, reconciled=reconciled,
            )
        if not predictive and self._cooling_down(now):
            return self._blocked(
                now, signals, f"{reason}; in cooldown",
                prediction=prediction, reconciled=reconciled,
            )
        replica_id = self.pool.scale_up()
        self._breach_up = 0
        if replica_id is None:
            # The pool itself refused (e.g. a remote fleet with no spare
            # configured host): treat as a bound, not an action.
            if predictive:
                self._predictive_blocked_at = now
            return self._blocked(
                now, signals, f"{reason}; pool refused growth",
                prediction=prediction, reconciled=reconciled,
            )
        self._last_action_at = now
        self._predictive_blocked_at = None
        return ScaleDecision(
            direction="up",
            target=signals.active + 1,
            reason=reason,
            at=now,
            signals=signals,
            replica_id=replica_id,
            prediction=prediction,
            reconciled=reconciled,
        )

    def _act_down(
        self,
        now: float,
        signals: PoolSignals,
        reason: str,
        *,
        prediction: Optional[int] = None,
        reconciled: Optional[int] = None,
    ) -> ScaleDecision:
        floor = self.policy.min_replicas
        if prediction is not None:
            floor = max(floor, prediction)
        if signals.active <= floor:
            bound = (
                f"at min_replicas={self.policy.min_replicas}"
                if floor == self.policy.min_replicas
                else f"at predicted floor={floor}"
            )
            return self._blocked(
                now, signals, f"{reason}; {bound}",
                prediction=prediction, reconciled=reconciled,
            )
        if self._cooling_down(now):
            return self._blocked(
                now, signals, f"{reason}; in cooldown",
                prediction=prediction, reconciled=reconciled,
            )
        replica_id = self.pool.scale_down()
        self._breach_down = 0
        if replica_id is None:
            # The pool itself refused (e.g. one active replica left): treat
            # as a bound, not an action.
            return self._blocked(
                now, signals, f"{reason}; pool refused shrink",
                prediction=prediction, reconciled=reconciled,
            )
        self._last_action_at = now
        return ScaleDecision(
            direction="down",
            target=signals.active - 1,
            reason=reason,
            at=now,
            signals=signals,
            replica_id=replica_id,
            prediction=prediction,
            reconciled=reconciled,
        )

    def _blocked(
        self,
        now: float,
        signals: PoolSignals,
        reason: str,
        *,
        prediction: Optional[int] = None,
        reconciled: Optional[int] = None,
    ) -> ScaleDecision:
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
            prediction=prediction,
            reconciled=reconciled,
        )

    def _finish(self, decision: ScaleDecision) -> None:
        self._decisions += 1
        self._last_decision = decision
        if decision.direction != "hold":
            event = {
                "up": "scale_up",
                "down": "scale_down",
                "blocked": "scale_blocked",
            }[decision.direction]
            extra: Dict[str, Any] = {}
            if decision.prediction is not None:
                extra["prediction"] = decision.prediction
            if decision.reconciled is not None:
                extra["reconciled"] = decision.reconciled
            self.recorder.record(
                event,
                replica_id=decision.replica_id,
                reason=decision.reason,
                target=decision.target,
                **extra,
                **decision.signals.as_dict(),
            )
        elif decision.prediction is None:
            # Pure-reactive holds stay invisible (the PR 9 contract);
            # predictive holds fall through to refresh the /metrics
            # prediction/arrival gauges via the pool's note hook.
            return
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
