"""Fake-clock tests for the unified failure policy primitives.

Everything here runs without sleeping: the breaker takes an injectable
clock, and :class:`BackoffPolicy` is pure given an RNG.  These are the
semantics every failure-aware serving component (clients, process
handles, remote handles) builds on, so the state machines are pinned
exactly — including the probe pacing rules that distinguish the
consuming ``allows()`` from the non-consuming ``would_allow()``.
"""

import random

import pytest

from repro.serving.policy import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BackoffPolicy,
    CircuitBreaker,
    FailurePolicy,
)


class FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# BackoffPolicy
# ----------------------------------------------------------------------
def test_backoff_schedule_is_capped_exponential():
    policy = BackoffPolicy(base=0.25, cap=2.0, multiplier=2.0, jitter=0.0)
    assert [policy.delay(k) for k in range(5)] == [0.25, 0.5, 1.0, 2.0, 2.0]


def test_backoff_matches_the_historical_client_retry_schedule():
    # The pinned client pacing: base 0.05, doubling, capped at 1.0 — the
    # schedule ServiceClientBase produced before the policy refactor.
    policy = BackoffPolicy(base=0.05, cap=1.0, multiplier=2.0, jitter=0.0)
    assert [policy.delay(k) for k in range(6)] == [
        0.05, 0.1, 0.2, 0.4, 0.8, 1.0,
    ]


def test_backoff_hint_overrides_base_but_stays_capped():
    policy = BackoffPolicy(base=0.1, cap=2.0, multiplier=2.0, jitter=0.0)
    assert policy.delay(0, hint=0.5) == 0.5
    assert policy.delay(1, hint=0.5) == 1.0
    assert policy.delay(4, hint=0.5) == 2.0  # a hostile hint cannot escape the cap
    assert policy.delay(1, hint=0.0) == 0.2  # non-positive hints are ignored


def test_backoff_jitter_is_bounded_and_rng_driven():
    policy = BackoffPolicy(base=1.0, cap=10.0, multiplier=2.0, jitter=0.25)
    rng = random.Random(7)
    for attempt in range(4):
        plain = BackoffPolicy(
            base=1.0, cap=10.0, multiplier=2.0, jitter=0.0
        ).delay(attempt)
        for _ in range(50):
            jittered = policy.delay(attempt, rng=rng)
            assert plain <= jittered <= min(10.0, plain * 1.25) + 1e-12
    # without an RNG the jitter term is skipped entirely (deterministic)
    assert policy.delay(2) == 4.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"base": -0.1},
        {"cap": -1.0},
        {"multiplier": 0.5},
        {"jitter": -0.01},
    ],
)
def test_backoff_rejects_invalid_parameters(kwargs):
    with pytest.raises(ValueError):
        BackoffPolicy(**kwargs)


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
def test_breaker_full_cycle_closed_open_half_open_closed():
    clock = FakeClock()
    transitions = []
    breaker = CircuitBreaker(
        failure_threshold=3, reset_timeout=1.0, clock=clock,
        on_transition=lambda old, new: transitions.append((old, new)),
    )
    assert breaker.state == BREAKER_CLOSED
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == BREAKER_CLOSED  # below threshold
    assert breaker.allows()
    breaker.record_failure()  # third consecutive failure trips it
    assert breaker.state == BREAKER_OPEN
    assert not breaker.allows()
    assert not breaker.would_allow()

    clock.advance(0.99)
    assert not breaker.allows()  # window not over yet
    clock.advance(0.02)
    assert breaker.would_allow()          # read-only: still OPEN
    assert breaker.state == BREAKER_OPEN
    assert breaker.allows()               # consuming: takes the probe slot
    assert breaker.state == BREAKER_HALF_OPEN
    breaker.record_success()
    assert breaker.state == BREAKER_CLOSED
    assert transitions == [
        (BREAKER_CLOSED, BREAKER_OPEN),
        (BREAKER_OPEN, BREAKER_HALF_OPEN),
        (BREAKER_HALF_OPEN, BREAKER_CLOSED),
    ]


def test_breaker_half_open_admits_exactly_one_probe():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0, clock=clock)
    breaker.record_failure()
    clock.advance(1.0)
    assert breaker.allows()          # the probe
    assert not breaker.allows()      # concurrent caller: rejected
    assert not breaker.would_allow()  # probe in flight
    breaker.record_failure()         # probe failed -> re-OPEN
    assert breaker.state == BREAKER_OPEN
    assert not breaker.allows()


def test_breaker_open_window_grows_and_resets_on_success():
    clock = FakeClock()
    breaker = CircuitBreaker(
        failure_threshold=1, reset_timeout=1.0, reset_cap=8.0, clock=clock
    )
    # First episode: 1s window.
    breaker.record_failure()
    clock.advance(1.0)
    assert breaker.allows()
    breaker.record_failure()  # failed probe -> second episode: 2s window
    clock.advance(1.0)
    assert not breaker.allows()
    clock.advance(1.0)
    assert breaker.allows()
    breaker.record_failure()  # third episode: 4s window
    clock.advance(3.99)
    assert not breaker.allows()
    clock.advance(0.02)
    assert breaker.allows()
    breaker.record_success()  # recovery resets the episode count
    assert breaker.state == BREAKER_CLOSED
    breaker.record_failure()  # next trip starts at 1s again
    clock.advance(1.0)
    assert breaker.allows()


def test_breaker_success_interleaving_resets_the_failure_count():
    breaker = CircuitBreaker(failure_threshold=3, reset_timeout=1.0)
    for _ in range(5):
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # never three *consecutive* failures
    assert breaker.state == BREAKER_CLOSED


def test_breaker_trip_and_reset_are_forced_transitions():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=5, reset_timeout=1.0, clock=clock)
    breaker.trip()
    assert breaker.state == BREAKER_OPEN
    assert not breaker.allows()
    breaker.reset()
    assert breaker.state == BREAKER_CLOSED
    assert breaker.allows()


def test_breaker_rejects_invalid_parameters():
    with pytest.raises(ValueError):
        CircuitBreaker(failure_threshold=0)
    with pytest.raises(ValueError):
        CircuitBreaker(reset_timeout=0.0)


# ----------------------------------------------------------------------
# FailurePolicy container
# ----------------------------------------------------------------------
def test_policy_factories_carry_the_knobs():
    clock = FakeClock()
    policy = FailurePolicy(
        request_timeout=7.5,
        breaker_failure_threshold=2,
        breaker_reset_timeout=3.0,
    )
    breaker = policy.make_breaker(clock=clock)
    breaker.record_failure()
    assert breaker.state == BREAKER_CLOSED
    breaker.record_failure()
    assert breaker.state == BREAKER_OPEN
    clock.advance(2.9)
    assert not breaker.allows()
    clock.advance(0.2)
    assert breaker.allows()


def test_policy_validation():
    with pytest.raises(ValueError):
        FailurePolicy(request_timeout=0.0)
    with pytest.raises(ValueError):
        FailurePolicy(max_reconnect_attempts=0)
    # knob errors surface at factory time for the breaker
    with pytest.raises(ValueError):
        FailurePolicy(breaker_failure_threshold=0).make_breaker()
