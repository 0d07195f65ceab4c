"""Unified failure policy for the serving stack.

Every component that retries, backs off, or health-gates a peer shares the
primitives in this module instead of growing its own ad-hoc math:

``BackoffPolicy``
    The single exponential-backoff implementation.  ``ServiceClientBase``
    uses it for 429 retry pacing, the spawn slot source (``SpawnSource``)
    for restart scheduling, and ``RemoteReplicaHandle`` for reconnect
    pacing.  The
    delay for attempt *k* (0-based) is::

        delay = min(cap, base * multiplier ** k)
        delay *= 1.0 + rng.random() * jitter      # when jitter > 0
        delay = min(cap, delay)

    which reproduces the historical client retry schedule bit-for-bit
    (the pre-existing pinned tests in ``tests/test_client_retry.py`` and
    ``tests/test_serving_supervisor.py`` run against this class now).

``CircuitBreaker``
    Per-replica three-state breaker: CLOSED counts consecutive failures;
    after ``failure_threshold`` of them the breaker OPENs and rejects
    traffic for a (backoff-growing) reset window; then HALF_OPEN admits a
    single probe — success CLOSEs the breaker, failure re-OPENs it with a
    longer window.  The clock and RNG are injectable so the state machine
    is testable without sleeping.

``FailurePolicy``
    The container consumed by ``RemoteReplicaHandle``,
    ``ProcessReplicaHandle``, and ``ServiceClientBase``: per-request
    timeout, retry/reconnect backoff, breaker knobs.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = [
    "BackoffPolicy",
    "CircuitBreaker",
    "FailurePolicy",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff with optional multiplicative jitter.

    ``delay(attempt)`` is pure given an RNG: components that must produce
    a deterministic schedule (the supervisor's pinned restart delays, the
    fake-clock tests) pass ``jitter=0`` or a seeded RNG.
    """

    base: float = 0.1
    cap: float = 30.0
    multiplier: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError(f"backoff base must be >= 0, got {self.base!r}")
        if self.cap < 0:
            raise ValueError(f"backoff cap must be >= 0, got {self.cap!r}")
        if self.multiplier < 1.0:
            raise ValueError(
                f"backoff multiplier must be >= 1, got {self.multiplier!r}"
            )
        if self.jitter < 0:
            raise ValueError(f"backoff jitter must be >= 0, got {self.jitter!r}")

    def delay(
        self,
        attempt: int,
        *,
        hint: Optional[float] = None,
        rng: Optional[random.Random] = None,
    ) -> float:
        """Delay before retry number ``attempt`` (0-based).

        ``hint`` overrides the base when a server supplied an explicit
        Retry-After; it still grows exponentially on subsequent attempts
        and is still capped, so a hostile hint cannot park a client
        forever.
        """
        base = self.base
        if hint is not None and hint > 0:
            base = float(hint)
        delay = min(self.cap, base * (self.multiplier ** attempt))
        if self.jitter > 0 and rng is not None:
            delay *= 1.0 + rng.random() * self.jitter
        return min(self.cap, delay)


class CircuitBreaker:
    """Three-state per-replica circuit breaker with an injectable clock.

    Thread-safe.  ``allows()`` is the admission gate: it returns ``True``
    in CLOSED, ``False`` while OPEN, and in HALF_OPEN it hands out exactly
    one probe slot per reset window (probe pacing) — concurrent callers
    see ``False`` until the probe resolves via ``record_success`` /
    ``record_failure``.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        reset_timeout: float = 1.0,
        reset_cap: float = 30.0,
        jitter: float = 0.0,
        clock: Callable[[], float] = time.monotonic,
        rng: Optional[random.Random] = None,
        on_transition: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold!r}"
            )
        if reset_timeout <= 0:
            raise ValueError(f"reset_timeout must be > 0, got {reset_timeout!r}")
        self._lock = threading.Lock()
        self._clock = clock
        self._rng = rng
        self._on_transition = on_transition
        self._backoff = BackoffPolicy(
            base=reset_timeout, cap=reset_cap, jitter=jitter
        )
        self.failure_threshold = failure_threshold
        self._state = BREAKER_CLOSED
        self._failures = 0  # consecutive failures while CLOSED
        self._open_count = 0  # consecutive OPEN episodes (grows the window)
        self._open_until = 0.0
        self._probe_inflight = False

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def would_allow(self) -> bool:
        """Non-consuming read of the admission gate.

        Health/placement reads (``accepting``) use this so they never
        consume the single HALF_OPEN probe slot — only an actual submit
        (via ``allows()``) does.
        """
        with self._lock:
            if self._state == BREAKER_CLOSED:
                return True
            if self._state == BREAKER_OPEN:
                return self._clock() >= self._open_until
            return not self._probe_inflight

    def allows(self) -> bool:
        transition = None
        with self._lock:
            if self._state == BREAKER_CLOSED:
                return True
            if self._state == BREAKER_OPEN:
                if self._clock() < self._open_until:
                    return False
                transition = (self._state, BREAKER_HALF_OPEN)
                self._state = BREAKER_HALF_OPEN
                self._probe_inflight = True
                allowed = True
            else:  # HALF_OPEN: one probe at a time
                allowed = not self._probe_inflight
                if allowed:
                    self._probe_inflight = True
        if transition is not None:
            self._notify(*transition)
        return allowed

    def record_success(self) -> None:
        transition = None
        with self._lock:
            self._failures = 0
            self._probe_inflight = False
            if self._state != BREAKER_CLOSED:
                transition = (self._state, BREAKER_CLOSED)
                self._state = BREAKER_CLOSED
                self._open_count = 0
        if transition is not None:
            self._notify(*transition)

    def record_failure(self) -> None:
        transition = None
        with self._lock:
            self._probe_inflight = False
            if self._state == BREAKER_OPEN:
                return
            if self._state == BREAKER_HALF_OPEN:
                transition = (self._state, BREAKER_OPEN)
                self._trip_locked()
            else:
                self._failures += 1
                if self._failures >= self.failure_threshold:
                    transition = (self._state, BREAKER_OPEN)
                    self._trip_locked()
        if transition is not None:
            self._notify(*transition)

    def trip(self) -> None:
        """Force the breaker OPEN (used by external health verdicts)."""
        transition = None
        with self._lock:
            if self._state != BREAKER_OPEN:
                transition = (self._state, BREAKER_OPEN)
                self._trip_locked()
        if transition is not None:
            self._notify(*transition)

    def reset(self) -> None:
        """Force the breaker CLOSED (e.g. after a successful reconnect)."""
        transition = None
        with self._lock:
            self._failures = 0
            self._probe_inflight = False
            if self._state != BREAKER_CLOSED:
                transition = (self._state, BREAKER_CLOSED)
                self._state = BREAKER_CLOSED
                self._open_count = 0
        if transition is not None:
            self._notify(*transition)

    def _trip_locked(self) -> None:
        self._state = BREAKER_OPEN
        self._failures = 0
        self._open_count += 1
        delay = self._backoff.delay(self._open_count - 1, rng=self._rng)
        self._open_until = self._clock() + delay

    def _notify(self, old: str, new: str) -> None:
        if self._on_transition is not None:
            try:
                self._on_transition(old, new)
            except Exception:  # noqa: BLE001 - observer must not break the breaker
                pass


@dataclass(frozen=True)
class FailurePolicy:
    """The knobs shared by every failure-aware serving component.

    Defaults are deliberately conservative: the breaker only opens on
    *consecutive* transport-level failures (which for a healthy replica
    only happen when it is actually down), so a replica that is slow but
    answering stays in placement.
    """

    request_timeout: float = 120.0
    # 429 retry pacing (clients).
    retry_backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    # Reconnect pacing (RemoteReplicaHandle).
    reconnect_backoff: BackoffPolicy = field(
        default_factory=lambda: BackoffPolicy(base=0.1, cap=5.0, jitter=0.25)
    )
    max_reconnect_attempts: Optional[int] = None  # None = retry forever
    # Circuit breaker.
    breaker_failure_threshold: int = 5
    breaker_reset_timeout: float = 1.0
    breaker_reset_cap: float = 30.0
    breaker_jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.request_timeout <= 0:
            raise ValueError(
                f"request_timeout must be > 0, got {self.request_timeout!r}"
            )
        if self.max_reconnect_attempts is not None and self.max_reconnect_attempts < 1:
            raise ValueError(
                "max_reconnect_attempts must be >= 1 or None, got "
                f"{self.max_reconnect_attempts!r}"
            )

    def make_breaker(
        self,
        *,
        clock: Callable[[], float] = time.monotonic,
        rng: Optional[random.Random] = None,
        on_transition: Optional[Callable[[str, str], None]] = None,
    ) -> CircuitBreaker:
        return CircuitBreaker(
            failure_threshold=self.breaker_failure_threshold,
            reset_timeout=self.breaker_reset_timeout,
            reset_cap=self.breaker_reset_cap,
            jitter=self.breaker_jitter,
            clock=clock,
            rng=rng,
            on_transition=on_transition,
        )
