"""Autoscaling state machine + overload-survival regression pins.

The :class:`~repro.serving.autoscale.PoolController` is a control loop,
and control loops earn their keep in the corners: hysteresis must absorb
one-tick spikes, cooldown must prevent flapping, bounds must block
without spamming the event log, and scale-down must never drop admitted
work.  Everything here drives the controller with a **fake clock and
manual ticks** against a scripted pool, so each test is a deterministic
walk through the state machine — no sleeps, no real threads.

The second half pins the overload-survival plumbing around the
controller: the queue's dequeue-rate drain estimator (fake clock), the
429 Retry-After hint derived from it (ceil + clamp), per-priority-class
admission counters in ``/metrics`` (JSON and Prometheus), and the
ReplicaSet scale seam's zero-loss drain guarantee.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import QueueFullError, ServiceError
from repro.serving import (
    AutoscalingPolicy,
    EventRecorder,
    HttpIngress,
    HttpServiceClient,
    JobStatus,
    PoolController,
    PoolSignals,
    ReplicaSet,
    SolveRequest,
    SolveService,
)
from repro.serving.__main__ import main as serving_main
from repro.serving.queue import IngressQueue
from repro.serving.transport import (
    RETRY_AFTER_MAX_SECONDS,
    RETRY_AFTER_MIN_SECONDS,
    RETRY_AFTER_SECONDS,
    retry_after_hint,
)


class FakeClock:
    def __init__(self, start=1000.0):
        self.now = float(start)

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += float(seconds)


class ScriptedPool:
    """A pool whose signals are set directly by the test."""

    def __init__(self, active=1, queue_depth=0, inflight=0):
        self.active_replicas = active
        self.queue_depth = queue_depth
        self.inflight = inflight
        self.ups = 0
        self.downs = 0
        self.noted = []
        self.refuse_up = False
        self.refuse_down = False

    def scale_up(self):
        if self.refuse_up:
            return None
        self.ups += 1
        self.active_replicas += 1
        return self.active_replicas - 1

    def scale_down(self, replica_id=None, on_drained=None):
        if self.refuse_down or self.active_replicas <= 1:
            return None
        self.downs += 1
        self.active_replicas -= 1
        return self.active_replicas

    def note_scale_decision(self, decision):
        self.noted.append(decision)


def make_controller(pool, clock, **policy_kwargs):
    policy_kwargs.setdefault("hysteresis_ticks", 3)
    policy_kwargs.setdefault("cooldown_seconds", 5.0)
    policy = AutoscalingPolicy(**policy_kwargs)
    recorder = EventRecorder()
    controller = PoolController(pool, policy, recorder=recorder, clock=clock)
    return controller, recorder


# ----------------------------------------------------------------------
# state machine: hysteresis, cooldown, bounds
# ----------------------------------------------------------------------
def test_scale_up_waits_out_hysteresis_then_acts():
    clock = FakeClock()
    pool = ScriptedPool(active=1, queue_depth=40)
    controller, recorder = make_controller(pool, clock)

    for _ in range(2):
        decision = controller.tick()
        clock.advance(1.0)
        assert decision.direction == "hold"
        assert pool.ups == 0

    decision = controller.tick()
    assert decision.direction == "up"
    assert decision.target == 2
    assert pool.ups == 1
    assert "queue depth" in decision.reason
    events = [e for e in recorder.events() if e["event"] == "scale_up"]
    assert len(events) == 1
    assert events[0]["target"] == 2
    assert events[0]["reason"] == decision.reason


def test_one_tick_spike_does_not_scale():
    clock = FakeClock()
    pool = ScriptedPool(active=1)
    controller, _ = make_controller(pool, clock)

    pool.queue_depth = 100
    controller.tick()
    pool.queue_depth = 0
    for _ in range(10):
        clock.advance(1.0)
        assert controller.tick().direction == "hold"
    assert pool.ups == 0 and pool.downs == 0


def test_cooldown_blocks_back_to_back_scale_ups_no_flapping():
    clock = FakeClock()
    pool = ScriptedPool(active=1, queue_depth=100)
    controller, recorder = make_controller(pool, clock)

    for _ in range(3):
        controller.tick()
        clock.advance(0.5)
    assert pool.ups == 1

    # pressure persists: inside the 5s cooldown the controller must NOT
    # act again, however long the breach lasts
    for _ in range(6):
        decision = controller.tick()
        clock.advance(0.5)
        assert decision.direction in ("hold", "blocked")
    assert pool.ups == 1
    blocked = [e for e in recorder.events() if e["event"] == "scale_blocked"]
    assert blocked and all("cooldown" in e["reason"] for e in blocked)

    # once the cooldown expires the breach must re-earn hysteresis, then act
    clock.advance(10.0)
    for _ in range(3):
        controller.tick()
        clock.advance(0.5)
    assert pool.ups == 2


def test_blocked_at_max_rearms_hysteresis():
    clock = FakeClock()
    pool = ScriptedPool(active=2, queue_depth=100)
    controller, recorder = make_controller(pool, clock, max_replicas=2)

    for _ in range(9):
        controller.tick()
        clock.advance(1.0)
    assert pool.ups == 0
    blocked = [e for e in recorder.events() if e["event"] == "scale_blocked"]
    # 9 breaching ticks at hysteresis 3 = exactly 3 blocked events, not 9:
    # a blocked breach re-arms and must re-earn its window
    assert len(blocked) == 3
    assert all("max_replicas" in e["reason"] for e in blocked)


def test_idle_at_min_rests_quietly():
    clock = FakeClock()
    pool = ScriptedPool(active=1, queue_depth=0, inflight=0)
    controller, recorder = make_controller(pool, clock)

    for _ in range(10):
        decision = controller.tick()
        clock.advance(1.0)
        assert decision.direction == "hold"
    assert pool.downs == 0
    assert recorder.events() == []  # an idle floor is not an incident
    assert pool.noted == []  # and holds are not mirrored into /metrics


def test_scale_down_requires_every_idle_signal():
    clock = FakeClock()
    pool = ScriptedPool(active=4, queue_depth=0, inflight=20)
    controller, _ = make_controller(pool, clock)

    # queue idle but workers busy: never shrink
    for _ in range(6):
        assert controller.tick().direction == "hold"
        clock.advance(1.0)
    assert pool.downs == 0

    pool.inflight = 0
    for _ in range(3):
        decision = controller.tick()
        clock.advance(1.0)
    assert decision.direction == "down"
    assert pool.downs == 1


def test_pool_refusing_shrink_reports_blocked():
    clock = FakeClock()
    pool = ScriptedPool(active=2, queue_depth=0, inflight=0)
    pool.refuse_down = True
    controller, _ = make_controller(pool, clock)

    for _ in range(3):
        decision = controller.tick()
        clock.advance(1.0)
    assert decision.direction == "blocked"
    assert "refused" in decision.reason
    assert pool.downs == 0


def test_pool_refusing_growth_reports_blocked():
    clock = FakeClock()
    pool = ScriptedPool(active=1, queue_depth=100)
    pool.refuse_up = True  # e.g. a remote fleet with no spare host
    controller, recorder = make_controller(pool, clock)

    for _ in range(3):
        decision = controller.tick()
        clock.advance(1.0)
    assert decision.direction == "blocked"
    assert "refused growth" in decision.reason
    assert pool.ups == 0 and pool.active_replicas == 1
    blocked = [e for e in recorder.events() if e["event"] == "scale_blocked"]
    assert len(blocked) == 1


def test_decisions_mirror_into_pool_metrics():
    clock = FakeClock()
    pool = ScriptedPool(active=1, queue_depth=100)
    controller, _ = make_controller(pool, clock)
    for _ in range(3):
        controller.tick()
        clock.advance(1.0)
    assert pool.noted and pool.noted[-1]["direction"] == "up"
    assert controller.last_decision.direction == "up"
    assert controller.last_decision.signals.queue_depth == 100


def test_policy_validates_bounds():
    with pytest.raises(ValueError):
        AutoscalingPolicy(min_replicas=0)
    with pytest.raises(ValueError):
        AutoscalingPolicy(min_replicas=3, max_replicas=2)
    with pytest.raises(ValueError):
        AutoscalingPolicy(hysteresis_ticks=0)


@pytest.mark.parametrize("interval", [0.0, -1.0, float("nan")])
def test_controller_rejects_a_non_positive_tick_interval(interval, capsys):
    with pytest.raises(ValueError, match="interval"):
        PoolController(ScriptedPool(), interval=interval)
    # the CLI refuses before it serves, instead of spinning a core
    with pytest.raises(SystemExit) as refused:
        serving_main(["serve", "--port", "0", "--replicas", "auto",
                      "--scale-interval", str(interval), "--quiet"])
    assert refused.value.code == 2
    assert "interval" in capsys.readouterr().err


class MeasuredPool(ScriptedPool):
    """A scripted pool that also serves the rolling p99 the SLO signal reads."""

    def __init__(self, p99_ms=None, **kwargs):
        super().__init__(**kwargs)
        self.p99_ms = p99_ms
        self.samples = 0

    def metrics(self):
        self.samples += 1
        if self.p99_ms is None:
            raise RuntimeError("no latency sample yet")
        return SimpleNamespace(latency_p99_ms=self.p99_ms)


def test_inflight_pressure_alone_scales_up():
    clock = FakeClock()
    pool = ScriptedPool(active=2, queue_depth=0, inflight=16)  # 8/replica
    controller, recorder = make_controller(pool, clock)

    for _ in range(3):
        decision = controller.tick()
        clock.advance(1.0)
    assert decision.direction == "up"
    assert decision.reason.startswith("inflight 16 is 8.0/replica")
    assert pool.ups == 1
    assert [e["event"] for e in recorder.events()] == ["scale_up"]


def test_p99_over_the_slo_scales_up():
    clock = FakeClock()
    pool = MeasuredPool(p99_ms=900.0, active=1)
    controller, _ = make_controller(pool, clock, slo_p99_ms=500.0)

    for _ in range(3):
        decision = controller.tick()
        clock.advance(1.0)
    assert decision.direction == "up"
    assert decision.reason == "p99 900.0ms exceeds SLO 500ms"
    assert decision.signals.p99_ms == 900.0
    assert pool.samples == 3  # one latency sample per tick


def test_p99_near_the_slo_keeps_the_pool_from_shrinking():
    clock = FakeClock()
    # queue and workers idle, but p99 is above half the SLO: keep headroom
    pool = MeasuredPool(p99_ms=300.0, active=3)
    controller, _ = make_controller(pool, clock, slo_p99_ms=500.0)
    for _ in range(6):
        assert controller.tick().direction == "hold"
        clock.advance(1.0)
    assert pool.downs == 0

    pool.p99_ms = 200.0  # comfortably inside the SLO
    for _ in range(3):
        decision = controller.tick()
        clock.advance(1.0)
    assert decision.direction == "down"
    assert pool.downs == 1


def test_a_missing_p99_sample_is_a_hold_not_a_crash():
    clock = FakeClock()
    pool = MeasuredPool(p99_ms=None, active=1, queue_depth=0)
    controller, recorder = make_controller(pool, clock, slo_p99_ms=500.0)
    for _ in range(5):
        decision = controller.tick()
        clock.advance(1.0)
        assert decision.direction == "hold"
        assert decision.signals.p99_ms is None
    assert pool.samples == 5 and recorder.events() == []

    # the other signals still work while latency is unsampled
    pool.queue_depth = 40
    for _ in range(3):
        decision = controller.tick()
        clock.advance(1.0)
    assert decision.direction == "up"


def test_p99_is_not_sampled_without_an_slo():
    clock = FakeClock()
    pool = MeasuredPool(p99_ms=10_000.0, active=1)
    controller, _ = make_controller(pool, clock)  # slo_p99_ms=None
    for _ in range(5):
        decision = controller.tick()
        clock.advance(1.0)
        assert decision.direction == "hold"
        assert decision.signals.p99_ms is None
    assert pool.samples == 0


def test_cooldown_blocks_back_to_back_scale_downs():
    clock = FakeClock()
    pool = ScriptedPool(active=4, queue_depth=0, inflight=0)
    controller, recorder = make_controller(pool, clock)

    for _ in range(3):
        controller.tick()
        clock.advance(0.5)
    assert pool.downs == 1

    # still idle inside the 5s cooldown: blocked, never a second shrink
    for _ in range(6):
        decision = controller.tick()
        clock.advance(0.5)
        assert decision.direction in ("hold", "blocked")
    assert pool.downs == 1
    blocked = [e for e in recorder.events() if e["event"] == "scale_blocked"]
    assert blocked and all("in cooldown" in e["reason"] for e in blocked)

    clock.advance(10.0)
    for _ in range(3):
        controller.tick()
        clock.advance(0.5)
    assert pool.downs == 2


def test_scale_down_stops_quietly_at_min_replicas():
    clock = FakeClock()
    pool = ScriptedPool(active=3, queue_depth=0, inflight=0)
    controller, recorder = make_controller(
        pool, clock, min_replicas=2, cooldown_seconds=0.0
    )
    for _ in range(12):
        controller.tick()
        clock.advance(1.0)
    assert pool.downs == 1 and pool.active_replicas == 2
    # reaching the floor is one action, not a stream of blocked events
    assert [e["event"] for e in recorder.events()] == ["scale_down"]


def test_a_direction_flip_restarts_the_hysteresis_window():
    clock = FakeClock()
    pool = ScriptedPool(active=2)
    controller, _ = make_controller(pool, clock)

    pool.queue_depth = 100  # two up-breach ticks...
    for _ in range(2):
        assert controller.tick().direction == "hold"
        clock.advance(1.0)
    pool.queue_depth = 0  # ...then two idle ticks...
    for _ in range(2):
        assert controller.tick().direction == "hold"
        clock.advance(1.0)
    pool.queue_depth = 100  # ...so growth must earn all three ticks again
    for _ in range(2):
        assert controller.tick().direction == "hold"
        clock.advance(1.0)
    assert controller.tick().direction == "up"
    assert pool.ups == 1 and pool.downs == 0


def test_a_failing_metrics_mirror_does_not_break_the_loop():
    clock = FakeClock()
    pool = ScriptedPool(active=1, queue_depth=100)

    def broken_note(decision):
        raise RuntimeError("metrics sink down")

    pool.note_scale_decision = broken_note
    controller, recorder = make_controller(pool, clock)
    for _ in range(3):
        decision = controller.tick()
        clock.advance(1.0)
    assert decision.direction == "up" and pool.ups == 1
    assert [e["event"] for e in recorder.events()] == ["scale_up"]
    assert controller.last_decision is decision


def test_scale_events_carry_the_sampled_signals():
    clock = FakeClock()
    pool = MeasuredPool(p99_ms=123.45678, active=1, queue_depth=9, inflight=3)
    controller, recorder = make_controller(pool, clock, slo_p99_ms=1000.0)
    for _ in range(2):
        hold = controller.tick()
        clock.advance(1.0)
    up = controller.tick()

    assert not hold.acted and "replica" not in hold.as_dict()
    assert up.acted and up.replica_id == 1
    assert up.as_dict() == {
        "direction": "up",
        "target": 2,
        "reason": up.reason,
        "at": 1002.0,
        "signals": {"queue_depth": 9, "inflight": 3, "active": 1,
                    "p99_ms": 123.457},
        "replica": 1,
    }
    (event,) = recorder.events()
    assert event["event"] == "scale_up" and event["replica"] == 1
    assert (event["queue_depth"], event["inflight"], event["active"],
            event["p99_ms"]) == (9, 3, 1, 123.457)
    assert controller.decisions == 3  # holds count as evaluated ticks


def test_per_replica_signals_guard_an_empty_pool():
    signals = PoolSignals(queue_depth=6, inflight=10, active=0, p99_ms=None)
    assert signals.depth_per_replica == 6.0
    assert signals.inflight_per_replica == 10.0
    signals = PoolSignals(queue_depth=6, inflight=10, active=4, p99_ms=None)
    assert signals.depth_per_replica == 1.5
    assert signals.inflight_per_replica == 2.5


def test_background_loop_ticks_until_stopped():
    pool = ScriptedPool(active=1)
    with PoolController(pool, interval=0.01) as controller:
        assert controller.start() is controller
        assert controller.start() is controller  # a second start is a no-op
        deadline = time.monotonic() + 10.0
        while controller.decisions < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert controller.decisions >= 3
    # leaving the block stopped the loop: no tick lands afterwards
    settled = controller.decisions
    time.sleep(0.05)
    assert controller.decisions == settled
    assert controller.last_decision.direction == "hold"


# ----------------------------------------------------------------------
# scale-down never drops admitted work (real ReplicaSet)
# ----------------------------------------------------------------------
def test_scale_down_drains_the_victim_and_loses_nothing():
    rng = np.random.default_rng(7)
    n = 512
    replica_set = ReplicaSet(2, workers=1, max_batch_delay=0.001)
    try:
        ids = []
        for _ in range(12):
            f = rng.integers(0, n, size=n)
            b = rng.integers(0, 4, size=n)
            ids.append(replica_set.submit_request(SolveRequest.make(f, b)))
        victim = replica_set.scale_down()  # mid-load, youngest active
        assert victim == 1
        responses = [replica_set.result(i, timeout=60.0) for i in ids]
        assert all(r.status is JobStatus.DONE for r in responses)

        assert replica_set.active_replicas == 1
        metrics = replica_set.metrics()
        assert metrics.submitted == 12 and metrics.completed == 12
        assert metrics.failed == 0 and metrics.shed == 0
        assert metrics.pool_size == 1

        # the retired slot stays on the books as a drained tombstone
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            row = next(
                r for r in replica_set.replica_rows() if r["replica"] == victim
            )
            if row["inflight"] == 0:
                break
            time.sleep(0.01)
        assert row["retired"] and row["inflight"] == 0
        # ...and can never come back
        with pytest.raises(ServiceError):
            replica_set.restore(victim)
    finally:
        replica_set.shutdown()


def test_scale_down_refuses_to_empty_the_pool():
    replica_set = ReplicaSet(1, workers=1, max_batch_delay=0.001)
    try:
        assert replica_set.scale_down() is None
        assert replica_set.active_replicas == 1
    finally:
        replica_set.shutdown()


def test_controller_scales_a_real_replica_set_end_to_end():
    clock = FakeClock()
    replica_set = ReplicaSet(1, workers=1, max_batch_delay=0.001)
    try:
        controller, recorder = make_controller(
            replica_set, clock, hysteresis_ticks=1, cooldown_seconds=0.0
        )
        # idle pool: no action
        assert controller.tick().direction == "hold"
        # park real work on the pool, then tick while it is busy
        rng = np.random.default_rng(3)
        ids = []
        for _ in range(20):
            f = rng.integers(0, 1024, size=1024)
            b = rng.integers(0, 4, size=1024)
            ids.append(replica_set.submit_request(SolveRequest.make(f, b)))
        clock.advance(1.0)
        decision = controller.tick()
        assert decision.direction == "up"
        assert replica_set.active_replicas == 2
        assert [e["event"] for e in recorder.events()] == ["scale_up"]
        for i in ids:
            assert replica_set.result(i, timeout=60.0).status is JobStatus.DONE
    finally:
        replica_set.shutdown()


# ----------------------------------------------------------------------
# drain estimator + Retry-After (fake clock)
# ----------------------------------------------------------------------
def _queued_request(n=8, priority=0):
    f = np.zeros(n, dtype=np.int64)
    b = np.zeros(n, dtype=np.int64)
    return SolveRequest.make(f, b, priority=priority)


def test_drain_estimator_tracks_dequeue_rate_under_fake_clock():
    clock = FakeClock(start=50.0)
    queue = IngressQueue(64, clock=clock, brownout_thresholds=None)
    assert queue.estimated_drain_seconds() == 0.0  # empty: nothing to drain

    for _ in range(10):
        queue.put(_queued_request(), block=False)
    # backlog but no claim history yet: no honest estimate exists
    assert queue.estimated_drain_seconds() is None
    # drain 6 requests, two per claim, at claims t=51, 52, 53
    for _ in range(3):
        clock.advance(1.0)
        key = queue.head_key(timeout=0)
        taken = queue.take(key, 2)
        assert len(taken) == 2

    # 4 left; observed rate = 6 claimed over the 2s window = 3/s -> 4/3 s
    assert queue.estimated_drain_seconds() == pytest.approx(4.0 / 3.0)

    # empty queue drains in zero seconds regardless of history
    key = queue.head_key(timeout=0)
    queue.take(key, 10)
    assert queue.estimated_drain_seconds() == 0.0
    queue.close()


def test_retry_after_hint_is_ceil_and_clamped():
    # ceil: 7.3s of backlog -> 8, never 7
    assert retry_after_hint("queue_full", 7.3) == 8
    assert retry_after_hint("queue_full", 8.0) == 8
    # clamp low: a nearly-empty queue still asks for >= 1s
    assert retry_after_hint("queue_full", 0.05) == RETRY_AFTER_MIN_SECONDS
    # clamp high: a stale estimate cannot park clients for minutes
    assert retry_after_hint("too_many_inflight", 1e6) == RETRY_AFTER_MAX_SECONDS
    # no estimate -> static fallback table
    assert retry_after_hint("queue_full", None) == RETRY_AFTER_SECONDS["queue_full"]
    # the draining lifecycle honours the estimate too (unified with /healthz)
    assert retry_after_hint("shutting_down", 20.0) == 20
    assert retry_after_hint("shutting_down", None) == RETRY_AFTER_SECONDS["shutting_down"]
    # codes with no fallback carry no header
    assert retry_after_hint("bad_request", 20.0) is None


def test_retry_after_hint_rejects_nan_negative_and_infinite_estimates():
    # nan must not propagate into the header: fall back to the static hint
    assert retry_after_hint("queue_full", float("nan")) == RETRY_AFTER_SECONDS["queue_full"]
    # a negative estimate is equally unusable
    assert retry_after_hint("queue_full", -3.0) == RETRY_AFTER_SECONDS["queue_full"]
    # +inf clamps to the max instead of overflowing ceil
    assert retry_after_hint("queue_full", float("inf")) == RETRY_AFTER_MAX_SECONDS


def test_drain_estimator_expires_stale_window_under_fake_clock():
    """An idle gap must not stretch the rate window back to the oldest
    claim (the old behaviour collapsed the rate and pegged Retry-After
    at the 30 s clamp)."""
    clock = FakeClock(start=50.0)
    queue = IngressQueue(
        64, clock=clock, brownout_thresholds=None, drain_window_seconds=10.0
    )
    for _ in range(10):
        queue.put(_queued_request(), block=False)
    for _ in range(3):
        clock.advance(1.0)
        queue.take(queue.head_key(timeout=0), 2)
    assert queue.estimated_drain_seconds() == pytest.approx(4.0 / 3.0)

    # a long idle gap expires the claim history: no honest estimate,
    # instead of depth / (claimed / huge-span) = hours
    clock.advance(600.0)
    assert queue.estimated_drain_seconds() is None

    # fresh claims rebuild the window from recent events only
    queue.put(_queued_request(), block=False)
    queue.put(_queued_request(), block=False)
    for _ in range(2):
        clock.advance(1.0)
        queue.take(queue.head_key(timeout=0), 2)
    # 2 left, 4 claimed over the 1 s spanned by the two fresh events -> 0.5 s
    assert queue.estimated_drain_seconds() == pytest.approx(2.0 / 4.0)
    queue.close()


def test_healthz_draining_advertises_measured_drain_time():
    """A draining /healthz routes Retry-After through retry_after_hint()
    with the backend's drain estimate instead of a hardcoded constant."""

    class DrainingBackend:
        accepting = False
        inflight = 2
        queue_depth = 3

        def __init__(self, estimate):
            self._estimate = estimate

        def estimated_drain_seconds(self):
            return self._estimate

    ingress = HttpIngress(DrainingBackend(12.2)).start_in_thread()
    try:
        with HttpServiceClient(ingress.url) as client:
            status, headers, body = client.request("GET", "/healthz", None)
            assert status == 503
            assert body["status"] == "draining"
            assert headers.get("retry-after") == "13"  # ceil(12.2)
    finally:
        ingress.close()

    # no estimate available -> the static shutting_down fallback survives
    ingress = HttpIngress(DrainingBackend(None)).start_in_thread()
    try:
        with HttpServiceClient(ingress.url) as client:
            status, headers, _ = client.request("GET", "/healthz", None)
            assert status == 503
            assert headers.get("retry-after") == str(RETRY_AFTER_SECONDS["shutting_down"])
    finally:
        ingress.close()


def test_http_429_advertises_measured_drain_time(monkeypatch):
    """End to end: an overloaded backend's 429 carries Retry-After = ceil(drain)."""
    service = SolveService(workers=1, max_batch_delay=0.001)
    try:
        ingress = HttpIngress(service).start_in_thread()
        try:
            monkeypatch.setattr(service, "estimated_drain_seconds", lambda: 12.4)

            def refuse(request, **kwargs):
                raise QueueFullError("ingress queue full (test)")

            monkeypatch.setattr(service, "submit_request", refuse)
            with HttpServiceClient(ingress.url) as client:
                doc = {"function": [0] * 8, "labels": [0] * 8}
                status, headers, body = client.request(
                    "POST", "/v1/solve?wait=false", doc
                )
                assert status == 429
                assert headers.get("retry-after") == "13"
                assert body["error"]["code"] == "queue_full"
                assert body["error"]["retry_after_seconds"] == 13
        finally:
            ingress.close()
    finally:
        service.shutdown()


# ----------------------------------------------------------------------
# per-priority-class observability
# ----------------------------------------------------------------------
def test_queue_counts_admissions_per_priority_class():
    queue = IngressQueue(
        4, brownout_thresholds=(0.25, 0.5), brownout_floors=(-1, 0)
    )
    queue.put(_queued_request(priority=0), block=False)
    queue.put(_queued_request(priority=1), block=False)
    # occupancy 2/4 -> brown-out level 2: negative classes rejected
    with pytest.raises(QueueFullError):
        queue.put(_queued_request(priority=-1), block=False)
    counters = queue.priority_class_counters()
    assert counters["0"]["admitted"] == 1
    assert counters["1"]["admitted"] == 1
    assert counters["-1"]["rejected"] == 1
    queue.close()


def test_prometheus_exposition_carries_class_and_pool_series():
    replica_set = ReplicaSet(2, workers=1, max_batch_delay=0.001)
    try:
        response = replica_set.solve(
            np.zeros(8, dtype=np.int64), np.zeros(8, dtype=np.int64)
        )
        assert response.status is JobStatus.DONE
        replica_set.note_scale_decision(
            {"direction": "up", "target": 2, "reason": "test"}
        )
        metrics = replica_set.metrics()
        assert metrics.pool_size == 2
        text = metrics.as_prometheus()
        assert 'repro_serving_class_admitted_total{priority="0"} 1' in text
        assert "repro_serving_pool_size 2" in text
        assert "repro_serving_last_scale_direction 1" in text
        assert "repro_serving_last_scale_target 2" in text
    finally:
        replica_set.shutdown()
