"""Supervisor edge cases: crash re-homing, stalls, restart storms, drains.

The conformance suite proves the happy paths and one kill -9 under load;
this file drives the supervisor's *lifecycle machinery* through its
corners — a child dying mid-batch (every orphan re-homed exactly once),
a child that is alive but silent (heartbeat stall → health-gated
ejection → kill → restart), a slot that keeps crashing (exponential
backoff, then give-up), and a SIGTERM shutdown that must drain children
rather than drop their work.

Process spawning makes these tests slower than the rest of the serving
suite; everything uses small instances and aggressive heartbeat/backoff
knobs to keep wall-clock in check.
"""

import inspect
import os
import signal
import time

import numpy as np
import pytest

from repro.errors import ReplicaUnavailableError, ServiceError, ServiceShutdownError
from repro.serving import (
    JobStatus,
    ProcessReplicaHandle,
    ReplicaHandle,
    ReplicaSupervisor,
    SolveService,
)
from repro.serving.__main__ import build_parser
from repro.serving.requests import SolveRequest
from repro.serving.supervisor import _KWARG_FLAGS, _worker_argv


def _request(rng, n=200):
    f = rng.integers(0, n, size=n)
    b = rng.integers(0, 4, size=n)
    return SolveRequest.make(f, b)


def _wait_for(predicate, timeout=30.0, interval=0.05, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    pytest.fail(f"timed out waiting for {message}")


@pytest.fixture
def supervisor():
    sup = ReplicaSupervisor(
        2,
        service_kwargs=dict(workers=1, max_batch_delay=0.001),
        heartbeat_interval=0.05,
        restart_backoff=0.1,
        restart_backoff_cap=0.5,
    ).start()
    yield sup
    sup.shutdown(drain=False)


# ----------------------------------------------------------------------
# the replica seam itself
# ----------------------------------------------------------------------
def test_both_handle_kinds_satisfy_the_replica_handle_protocol(supervisor):
    service = SolveService(workers=1)
    try:
        assert isinstance(service, ReplicaHandle)
    finally:
        service.shutdown(drain=False)
    rows = supervisor.replica_rows()
    assert all(isinstance(row["pid"], int) for row in rows)
    handle = supervisor.handle(0)
    assert isinstance(handle, ProcessReplicaHandle)
    assert isinstance(handle, ReplicaHandle)
    # advertised health flows from wire heartbeats, not shared memory
    _wait_for(lambda: handle.accepting, message="first heartbeat")
    assert handle.heartbeat_age < 5.0
    assert handle.queue_depth == 0


def test_dead_handle_rejects_submits_instead_of_hanging(supervisor):
    handle = supervisor.handle(0)
    os.kill(handle.pid, signal.SIGKILL)
    _wait_for(lambda: not handle.live, message="death detection")
    with pytest.raises(ServiceShutdownError):
        handle.submit_request(_request(np.random.default_rng(0)))


# ----------------------------------------------------------------------
# crash mid-batch: orphans re-homed exactly once
# ----------------------------------------------------------------------
def test_child_death_mid_batch_rehomes_each_orphan_exactly_once(supervisor):
    rng = np.random.default_rng(1)
    requests = [_request(rng, n=400) for _ in range(16)]
    rids = [supervisor.submit_request(q) for q in requests]
    # kill whichever replica holds work right now — mid-batch by construction
    victim = max(supervisor.replica_rows(), key=lambda r: r["inflight"])
    os.kill(victim["pid"], signal.SIGKILL)

    responses = [supervisor.result(rid, timeout=60) for rid in rids]
    assert all(r.status is JobStatus.DONE for r in responses)
    assert len({r.request_id for r in responses}) == len(rids)

    events = supervisor.events()
    deaths = [e for e in events if e["event"] == "death"]
    assert deaths and deaths[0]["orphans"] >= 1
    rehomed = [e["request_id"] for e in events
               if e["event"] == "rehome" and e.get("ok")]
    # exactly once: no orphan re-homed twice, every orphan accounted for
    assert len(rehomed) == len(set(rehomed)) == deaths[0]["orphans"]
    assert set(rehomed) <= set(rids)


# ----------------------------------------------------------------------
# heartbeat stall: alive-but-silent children get ejected and replaced
# ----------------------------------------------------------------------
def test_heartbeat_stall_health_gates_then_restarts_the_replica():
    sup = ReplicaSupervisor(
        2,
        service_kwargs=dict(workers=1, max_batch_delay=0.001),
        heartbeat_interval=0.05,
        heartbeat_timeout=0.4,
        restart_backoff=0.1,
        restart_backoff_cap=0.5,
    ).start()
    try:
        handle = sup.handle(0)
        _wait_for(lambda: handle.accepting, message="first heartbeat")
        os.kill(handle.pid, signal.SIGSTOP)  # alive but silent

        # health gating precedes supervision: the stalled replica stops
        # advertising readiness as soon as its heartbeat goes stale...
        _wait_for(lambda: not handle.accepting, timeout=5.0,
                  message="stale heartbeat to gate the replica out")
        # ...while the set keeps serving through the healthy replica
        response = sup.solve(np.array([1, 2, 0, 0, 3]), np.array([0, 1, 0, 0, 1]))
        assert response.status is JobStatus.DONE

        # the monitor then kills the stalled child and restarts the slot
        _wait_for(
            lambda: any(e["event"] == "restarted" and e["replica"] == 0
                        for e in sup.events()),
            timeout=30.0, message="stall-kill and restart",
        )
        events = [e["event"] for e in sup.events()]
        assert "heartbeat_stall" in events and "death" in events
        _wait_for(lambda: all(r["live"] for r in sup.replica_rows()),
                  message="slot live again")
    finally:
        sup.shutdown(drain=False)


# ----------------------------------------------------------------------
# restart storm: exponential backoff, then give-up
# ----------------------------------------------------------------------
def test_restart_storm_is_capped_by_backoff_then_gives_up():
    sup = ReplicaSupervisor(
        1,
        service_kwargs=dict(workers=1, max_batch_delay=0.001),
        heartbeat_interval=0.05,
        restart_backoff=0.05,
        restart_backoff_cap=0.1,
        max_restarts=2,
    ).start()
    try:
        def gave_up():
            return any(e["event"] == "gave_up" for e in sup.events())

        for _ in range(3):  # keep killing it until the supervisor gives up
            _wait_for(lambda: sup.handle(0).live, message="replica up")
            os.kill(sup.handle(0).pid, signal.SIGKILL)
            _wait_for(lambda: not sup.handle(0).live, message="death detected")
            if gave_up():
                break
        _wait_for(gave_up, message="give-up")

        events = sup.events()
        delays = [e["delay"] for e in events if e["event"] == "restart_scheduled"]
        # attempt 1: 0.05 * 2**0; attempt 2: 0.05 * 2**1; then > max_restarts
        assert delays == [0.05, 0.1]
        assert [e["event"] for e in events].count("gave_up") == 1
        assert not sup.accepting
        with pytest.raises((ReplicaUnavailableError, ServiceShutdownError)):
            sup.submit_request(_request(np.random.default_rng(2)))
    finally:
        sup.shutdown(drain=False)


# ----------------------------------------------------------------------
# SIGTERM shutdown drains children before exit
# ----------------------------------------------------------------------
def test_drain_shutdown_answers_inflight_work_and_children_exit_zero():
    sup = ReplicaSupervisor(
        2,
        service_kwargs=dict(workers=1, max_batch_delay=0.001),
        heartbeat_interval=0.05,
    ).start()
    rng = np.random.default_rng(3)
    rids = [sup.submit_request(_request(rng, n=300)) for _ in range(10)]
    sup.shutdown(drain=True)  # SIGTERM: children must drain, then exit

    responses = [sup.result(rid, timeout=30) for rid in rids]
    assert all(r.status is JobStatus.DONE for r in responses)
    assert len({r.request_id for r in responses}) == len(rids)
    exits = [e for e in sup.events() if e["event"] == "child_exit"]
    assert len(exits) == 2
    assert all(e["exit_code"] == 0 for e in exits)


# ----------------------------------------------------------------------
# per-replica liveness observability (JSON + Prometheus)
# ----------------------------------------------------------------------
def test_metrics_expose_per_replica_liveness_and_restart_gauges(supervisor):
    # restart one replica so the gauges have something non-trivial to say
    victim = supervisor.handle(1)
    os.kill(victim.pid, signal.SIGKILL)
    _wait_for(
        lambda: any(e["event"] == "restarted" and e["replica"] == 1
                    for e in supervisor.events()),
        message="restart after kill",
    )
    snapshot = supervisor.metrics()
    rows = {row["replica"]: row for row in snapshot.replicas}
    assert set(rows) == {0, 1}
    assert rows[0]["live"] is True and rows[0]["restarts"] == 0
    assert rows[1]["live"] is True and rows[1]["restarts"] == 1
    assert all(isinstance(row["heartbeat_age_seconds"], float) for row in rows.values())
    assert snapshot.as_dict()["replicas"] == snapshot.replicas

    prometheus = snapshot.as_prometheus()
    assert "# TYPE repro_serving_replica_live gauge" in prometheus
    assert 'repro_serving_replica_live{replica="0"} 1' in prometheus
    assert 'repro_serving_replica_restarts_total{replica="1"} 1' in prometheus
    assert 'repro_serving_replica_heartbeat_age_seconds{replica="0"}' in prometheus


def test_supervisor_event_log_is_append_only_jsonl(tmp_path):
    import json

    log_path = tmp_path / "supervisor" / "events.jsonl"
    sup = ReplicaSupervisor(
        1,
        service_kwargs=dict(workers=1, max_batch_delay=0.001),
        heartbeat_interval=0.05,
        event_log=str(log_path),
    ).start()
    try:
        response = sup.solve(np.array([1, 2, 0, 0, 3]), np.array([0, 1, 0, 0, 1]))
        assert response.status is JobStatus.DONE
    finally:
        sup.shutdown(drain=True)
    lines = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert [e["event"] for e in lines][:1] == ["spawn"]
    assert lines[-1]["event"] == "shutdown"
    assert all("ts" in e for e in lines)


def test_unknown_service_kwarg_is_rejected_before_any_spawn():
    with pytest.raises(ValueError, match="no --replica-worker flag"):
        ReplicaSupervisor(1, service_kwargs=dict(bogus=1))


def test_every_service_knob_has_a_replica_worker_flag():
    # a process replica must accept every SolveService setting; only the
    # seed is derived per slot (seed + 1000 * i) instead of passed through
    params = inspect.signature(SolveService).parameters
    knobs = {name: p.default for name, p in params.items() if name != "seed"}
    assert set(knobs) == set(_KWARG_FLAGS)
    build_parser().parse_args(["--replica-worker", *_worker_argv(knobs)])


def test_supervisor_context_manager_round_trip():
    with ReplicaSupervisor(
        1, service_kwargs=dict(workers=1, max_batch_delay=0.001)
    ).start() as sup:
        assert sup.num_replicas == 1
        assert sup.solve(
            np.array([1, 2, 0, 0, 3]), np.array([0, 1, 0, 0, 1])
        ).status is JobStatus.DONE
    with pytest.raises(ServiceError):
        sup.start()


def test_heartbeat_knobs_are_validated_before_any_spawn():
    with pytest.raises(ValueError, match="heartbeat_interval"):
        ReplicaSupervisor(1, heartbeat_interval=0.0)
    with pytest.raises(ValueError, match="heartbeat_interval"):
        ReplicaSupervisor(1, heartbeat_interval=61.0)
    with pytest.raises(ValueError, match="heartbeat_timeout"):
        ReplicaSupervisor(1, heartbeat_interval=0.5, heartbeat_timeout=0.5)
    with pytest.raises(ValueError, match="at least one replica"):
        ReplicaSupervisor(0)
