"""Chaos-layer semantics: replayable schedules, proxy faults, and the
remote fleet's behavior under host death and a slow host.

The cross-transport chaos *matrix* lives in the conformance suite
(``test_transport_conformance.py``); this file pins the pieces the matrix
builds on — that a named seed fully determines every injected fault — and
the two remote-fleet scenarios that cannot be expressed as a client-leg
retry loop: a host death (manual blackhole + dropped connections, the
cross-host re-expression of the supervisor's kill -9 test) and a host
that is alive but slow.
"""

import json
import socket
import time
from http.client import HTTPException

import numpy as np
import pytest

from repro.partition import coarsest_partition
from repro.serving import (
    FramedIngress,
    FramedServiceClient,
    HttpServiceClient,
    JobStatus,
    SolveRequest,
    SolveService,
)
from repro.serving.bench import generate_requests
from repro.serving.chaos import (
    FAULT_KINDS,
    ChaosSchedule,
    ChaosSocket,
    ChaosTcpProxy,
    ConnectionPlan,
)
from repro.serving.policy import BackoffPolicy, FailurePolicy
from repro.serving.remote import RemoteReplicaFleet


# ----------------------------------------------------------------------
# schedule determinism (replayability)
# ----------------------------------------------------------------------
def test_same_seed_means_identical_schedule():
    a = ChaosSchedule("ci-nightly-44")
    b = ChaosSchedule("ci-nightly-44")
    for index in range(64):
        assert a.plan(index).as_dict() == b.plan(index).as_dict()
    # plan() is pure: calling it twice for one index changes nothing
    assert a.plan(5).as_dict() == a.plan(5).as_dict()


def test_different_seeds_differ_and_int_seeds_are_stringified():
    assert ChaosSchedule("alpha").as_jsonable() != ChaosSchedule("beta").as_jsonable()
    assert ChaosSchedule(7).as_jsonable() == ChaosSchedule("7").as_jsonable()


def test_fault_density_and_rotation():
    schedule = ChaosSchedule("rotation", every=3)
    plans = [schedule.plan(i) for i in range(3 * len(FAULT_KINDS))]
    for i, plan in enumerate(plans):
        if i % 3 == 2:
            assert plan.fault is not None, i
        else:
            assert plan.fault is None, i  # incl. connection 0: always clean
    # faulty connections cycle through every fault class in order
    assert [p.fault for p in plans if p.fault] == list(FAULT_KINDS)


def test_schedule_dump_round_trips(tmp_path):
    schedule = ChaosSchedule("artifact", every=2)
    path = tmp_path / "chaos.json"
    schedule.dump(str(path), connections=16)
    loaded = json.loads(path.read_text())
    assert loaded == schedule.as_jsonable(connections=16)
    assert loaded["schema"] == "repro.chaos"
    assert loaded["version"] == 1
    assert loaded["seed"] == "artifact"
    assert len(loaded["plans"]) == 16


def test_schedule_rejects_unknown_faults_and_bad_density():
    with pytest.raises(ValueError, match="unknown fault"):
        ChaosSchedule("x", faults=("latency", "gamma-rays"))
    with pytest.raises(ValueError, match="every"):
        ChaosSchedule("x", every=0)


# ----------------------------------------------------------------------
# ChaosSocket: the in-process stream wrapper
# ----------------------------------------------------------------------
def test_chaos_socket_scheduled_reset_and_corruption():
    left, right = socket.socketpair()
    try:
        wrapped = ChaosSocket(left, ConnectionPlan(index=0, fault="reset", reset_after=8))
        wrapped.sendall(b"1234")  # 4 bytes: under the budget
        with pytest.raises(ConnectionResetError):
            wrapped.sendall(b"56789")  # crosses reset_after=8
    finally:
        left.close()
        right.close()

    left, right = socket.socketpair()
    try:
        wrapped = ChaosSocket(
            left, ConnectionPlan(index=0, fault="corrupt", corrupt_offset=2)
        )
        right.sendall(b"abcdef")
        received = wrapped.recv(6)
        expected = bytearray(b"abcdef")
        expected[2] ^= 0xFF
        assert received == bytes(expected)  # exactly one byte flipped
    finally:
        left.close()
        right.close()


# ----------------------------------------------------------------------
# proxy: a fault on the response reaches the client at once
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fault", ["reset", "blackhole"])
@pytest.mark.parametrize(
    "client_cls", [HttpServiceClient, FramedServiceClient], ids=["http", "framed"]
)
def test_server_to_client_fault_is_a_prompt_connection_error(fault, client_cls):
    """A reset or blackhole that fires server->client drops the client's
    connection at once, instead of leaving the client to wait out its
    timeout while the proxy's other pump still holds the socket.

    One solve of n = 2 sends under 300 bytes up (167 over HTTP, 71
    framed) and gets more than 300 back, so a fault scheduled at byte 300
    fires on the response.
    """
    backend = SolveService(workers=1, max_batch_delay=0.001)
    ingress = FramedIngress(backend).start_in_thread()
    schedule = ChaosSchedule(
        f"server-to-client-{fault}",
        faults=(fault,),
        every=1,
        reset_window=(300, 301),
        blackhole_window=(300, 301),
        blackhole_duration=(0.05, 0.06),
    )
    try:
        with ChaosTcpProxy(f"{ingress.host}:{ingress.port}", schedule=schedule) as proxy:
            with client_cls(proxy.url, timeout=10.0) as client:
                started = time.monotonic()
                with pytest.raises((ConnectionError, HTTPException)):
                    client.solve([0, 0], [1, 1])
                elapsed = time.monotonic() - started
    finally:
        ingress.close()
        backend.shutdown()
    assert elapsed < 2.0


# ----------------------------------------------------------------------
# proxy: frame-aware heartbeat dropping
# ----------------------------------------------------------------------
def test_proxy_drops_heartbeat_frames_but_passes_answers():
    backend = SolveService(workers=1, max_batch_delay=0.001)
    ingress = FramedIngress(backend).start_in_thread()
    schedule = ChaosSchedule("hb", faults=("heartbeat_drop",), every=1)
    try:
        with ChaosTcpProxy(
            f"{ingress.host}:{ingress.port}", schedule=schedule
        ) as proxy:
            beats = []
            with FramedServiceClient(proxy.url, timeout=15) as client:
                client.start_heartbeats(0.02, beats.append)
                result = client.solve([0, 0], [1, 1])
                assert result.status is JobStatus.DONE
                time.sleep(0.3)  # ~15 beat intervals pass through the proxy
            assert beats == []  # every HEARTBEAT frame was eaten
        # control: without the proxy the same subscription delivers beats
        with FramedServiceClient(ingress.url, timeout=15) as client:
            client.start_heartbeats(0.02, beats.append)
            deadline = time.monotonic() + 5.0
            while not beats and time.monotonic() < deadline:
                time.sleep(0.01)
        assert beats
    finally:
        ingress.close()
        backend.shutdown()


# ----------------------------------------------------------------------
# remote fleet: host death via blackhole (kill -9, cross-host edition)
# ----------------------------------------------------------------------
class _Host:
    """One 'remote host': a SolveService behind its own framed ingress."""

    def __init__(self, **service_kwargs):
        service_kwargs.setdefault("workers", 1)
        service_kwargs.setdefault("max_batch_delay", 0.001)
        self.backend = SolveService(**service_kwargs)
        self.ingress = FramedIngress(self.backend).start_in_thread()
        self.address = f"{self.ingress.host}:{self.ingress.port}"

    def close(self):
        self.ingress.close()
        self.backend.shutdown()


def test_remote_host_death_rehomes_orphans_and_reconnects():
    """The supervisor kill -9 invariant, re-expressed for remote hosts.

    Host 0 sits behind a chaos proxy.  Jobs are routed to it, then the
    proxy blackholes and drops every connection — from the fleet's side
    the host just died.  Every in-flight job must re-home to host 1 with
    its request id intact (zero lost, zero double-billed), and once the
    'partition' heals the fleet must reconnect to host 0 and say so in
    its event log.
    """
    hosts = [_Host(), _Host()]
    proxy = ChaosTcpProxy(hosts[0].address).start()
    fleet = None
    try:
        fleet = RemoteReplicaFleet(
            [proxy.address, hosts[1].address],
            heartbeat_interval=0.05,
            heartbeat_timeout=1.0,
            dead_after=2.0,
            request_timeout=30.0,
            dial_timeout=0.5,
            policy=FailurePolicy(
                request_timeout=30.0,
                reconnect_backoff=BackoffPolicy(base=0.05, cap=0.2, jitter=0.0),
            ),
        ).start()
        # Route everything to host 0: eject host 1 from *placement* only
        # (re-homing deliberately ignores placement ejection — a routing
        # decision must never strand an orphan).
        fleet.eject(1, drain=False)
        # A big request first: it keeps host 0's single worker busy so
        # the small ones queued behind it are still pending when the host
        # dies.
        work = list(generate_requests(1, 200_000, seed=32)) + list(
            generate_requests(5, 64, seed=31)
        )
        requests = [SolveRequest.make(f, b, audit=audit) for f, b, audit in work]
        ids = [fleet.submit_request(request) for request in requests]
        # Host 0 'dies': the partition swallows all traffic and every
        # open connection resets.
        proxy.set_blackhole(True)
        proxy.drop_connections()
        responses = [fleet.result(request_id, timeout=60.0) for request_id in ids]
        # Zero lost, zero double-billed: every job answers exactly once,
        # under its original id, with the right labels.
        assert [r.status for r in responses] == [JobStatus.DONE] * len(ids)
        assert sorted(r.request_id for r in responses) == sorted(ids)
        assert len(set(ids)) == len(ids)
        for (f, b, audit), response in zip(work, responses):
            assert np.array_equal(
                response.labels, coarsest_partition(f, b, audit=audit).labels
            )
        events = fleet.events()
        deaths = [e for e in events if e["event"] == "death"]
        assert deaths and deaths[0]["replica"] == 0
        assert deaths[0]["orphans"] >= 1
        rehomed = [e for e in events if e["event"] == "rehome" and e.get("ok")]
        assert rehomed and all(e["to"] == 1 for e in rehomed)
        # The partition heals: the fleet must re-dial host 0 on its own
        # and log the recovery.
        proxy.set_blackhole(False)
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            if any(e["event"] == "reconnected" for e in fleet.events()):
                break
            time.sleep(0.05)
        reconnects = [e for e in fleet.events() if e["event"] == "reconnected"]
        assert reconnects and reconnects[0]["replica"] == 0
    finally:
        if fleet is not None:
            fleet.shutdown()
        proxy.close()
        for host in hosts:
            host.close()


# ----------------------------------------------------------------------
# remote fleet: a slow but live host
# ----------------------------------------------------------------------
def test_slow_host_answers_every_solve_and_loses_nothing():
    """A host that answers — slowly — keeps answering right.

    Host 0 sits behind a latency proxy adding 0.25 s per forwarded
    chunk.  Host 1 is ejected, so the first solves must take the slow
    host, and then restored.  Every answer is ``DONE`` and bit-identical
    to a direct solve, and every job is admitted exactly once: latency
    alone opens no breaker and loses nothing.
    """
    hosts = [_Host(), _Host()]
    schedule = ChaosSchedule(
        "slow-host", faults=("latency",), every=1, latency_range=(0.25, 0.25)
    )
    proxy = ChaosTcpProxy(hosts[0].address, schedule=schedule).start()
    fleet = None
    try:
        fleet = RemoteReplicaFleet(
            [proxy.address, hosts[1].address],
            heartbeat_interval=0.2,
            heartbeat_timeout=5.0,
            dead_after=10.0,
            request_timeout=30.0,
            policy=FailurePolicy(request_timeout=30.0),
        ).start()
        stream = list(generate_requests(3, 64, seed=41))
        fleet.eject(1, drain=False)  # force the first solves onto the slow host
        for index, (f, b, audit) in enumerate(stream):
            if index == 2:
                fleet.restore(1)
            response = fleet.solve(f, b, audit=audit)
            assert response.status is JobStatus.DONE
            assert np.array_equal(
                response.labels, coarsest_partition(f, b, audit=audit).labels
            )
        rows = {row["replica"]: row for row in fleet.replica_rows()}
        assert rows[0]["routed"] >= 2
        assert rows[0]["routed"] + rows[1]["routed"] == len(stream)
        assert rows[0]["breaker"] == "closed"
        assert not [e for e in fleet.events() if e["event"] in ("death", "rehome")]
    finally:
        if fleet is not None:
            fleet.shutdown()
        proxy.close()
        for host in hosts:
            host.close()


# ----------------------------------------------------------------------
# failure-policy wiring: breaker transitions land in the event log
# ----------------------------------------------------------------------
def test_breaker_transitions_are_logged_as_fleet_events():
    host = _Host()
    fleet = RemoteReplicaFleet([host.address]).start()
    try:
        handle = fleet.handle(0)
        # Force the transitions (the fault-injection seam an external
        # health verdict would use) — the wiring under test is
        # handle -> on_health_event -> fleet event log.
        handle._breaker.trip()
        handle._breaker.reset()
        kinds = [e["event"] for e in fleet.events()]
        assert "breaker_open" in kinds
        assert "breaker_closed" in kinds
    finally:
        fleet.shutdown()
        host.close()

# ----------------------------------------------------------------------
# chaos x scaling: faults while the pool is changing shape
# ----------------------------------------------------------------------
def test_host_death_while_scaled_down_never_rehomes_to_deactivated_host():
    """A host dies while the fleet is scaled down.

    Host 2 is deactivated by scale-down and host 1 is placement-ejected,
    so all traffic lands on host 0 (behind a chaos proxy).  Host 0 then
    dies.  The orphans must re-home to host 1 only — a deactivated host is
    out of rotation for re-homing too, not just for fresh admissions — and
    a later scale-up must bring host 2 straight back into rotation over
    its still-warm connection, with every job answered exactly once.
    """
    hosts = [_Host(), _Host(), _Host()]
    proxy = ChaosTcpProxy(hosts[0].address).start()
    fleet = None
    try:
        fleet = RemoteReplicaFleet(
            [proxy.address, hosts[1].address, hosts[2].address],
            heartbeat_interval=0.05,
            heartbeat_timeout=1.0,
            dead_after=2.0,
            request_timeout=30.0,
            dial_timeout=0.5,
            policy=FailurePolicy(
                request_timeout=30.0,
                reconnect_backoff=BackoffPolicy(base=0.05, cap=0.2, jitter=0.0),
            ),
        ).start()
        assert fleet.scale_down() == 2  # deactivate the youngest host
        assert fleet.active_replicas == 2
        fleet.eject(1, drain=False)  # placement only: everything -> host 0
        # One big request pins host 0's single worker; the small ones
        # queued behind it are still pending when the host dies.
        work = list(generate_requests(1, 200_000, seed=37)) + list(
            generate_requests(5, 64, seed=38)
        )
        requests = [SolveRequest.make(f, b, audit=audit) for f, b, audit in work]
        ids = [fleet.submit_request(request) for request in requests]
        proxy.set_blackhole(True)
        proxy.drop_connections()
        responses = [fleet.result(request_id, timeout=60.0) for request_id in ids]
        # Zero lost, zero double-billed, right answers under original ids.
        assert [r.status for r in responses] == [JobStatus.DONE] * len(ids)
        assert sorted(r.request_id for r in responses) == sorted(ids)
        for (f, b, audit), response in zip(work, responses):
            assert np.array_equal(
                response.labels, coarsest_partition(f, b, audit=audit).labels
            )
        rehomed = [
            e for e in fleet.events() if e["event"] == "rehome" and e.get("ok")
        ]
        assert rehomed and all(e["to"] == 1 for e in rehomed)  # never host 2
        # Scale-up reactivates host 2 and it serves immediately.
        assert fleet.scale_up() == 2
        assert fleet.active_replicas == 3
        f, b, audit = list(generate_requests(1, 64, seed=39))[0]
        request_id = fleet.submit_request(SolveRequest.make(f, b, audit=audit))
        response = fleet.result(request_id, timeout=30.0)
        assert response.status is JobStatus.DONE
        assert np.array_equal(
            response.labels, coarsest_partition(f, b, audit=audit).labels
        )
    finally:
        if fleet is not None:
            fleet.shutdown()
        proxy.close()
        for host in hosts:
            host.close()
