"""Parked orphans: a one-slot pool that loses its replica.

With no survivor to take a dead replica's orphans, the fleet parks them
(an ``orphans_parked`` event naming their ids) and replays them when the
slot comes back — ``restarted`` for a spawned child, ``reconnected`` for
a dialed host — so each job is answered exactly once, under its original
id, with the labels a direct solve gives.  A shutdown while work is
parked settles every parked job ``CANCELLED``.  Both slot sources reach
the same parking code in :class:`~repro.serving.replicas.ReplicaSet`, so
each test runs against each source.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.partition import coarsest_partition
from repro.serving import (
    FramedIngress,
    JobStatus,
    ReplicaSupervisor,
    SolveRequest,
    SolveService,
)
from repro.serving.bench import generate_requests
from repro.serving.chaos import ChaosTcpProxy
from repro.serving.policy import BackoffPolicy, FailurePolicy
from repro.serving.remote import RemoteReplicaFleet


class SpawnPool:
    """One supervised child; losing it is a kill -9."""

    comeback = "restarted"

    def __init__(self, restart_backoff):
        self.fleet = ReplicaSupervisor(
            1,
            service_kwargs=dict(workers=1, max_batch_delay=0.001),
            heartbeat_interval=0.05,
            heartbeat_timeout=2.0,
            restart_backoff=restart_backoff,
            restart_backoff_cap=restart_backoff,
        ).start()

    def lose(self):
        os.kill(self.fleet.handle(0).pid, signal.SIGKILL)

    def heal(self):
        pass  # the supervisor restarts the child by itself

    def close(self):
        self.fleet.shutdown(drain=False)


class DialPool:
    """One remote host behind a chaos proxy; losing it is a blackhole
    plus dropped connections, healing it lifts the blackhole."""

    comeback = "reconnected"

    def __init__(self, restart_backoff):
        del restart_backoff  # a dialed host returns only when heal() lets it
        self.host = SolveService(workers=1, max_batch_delay=0.001)
        self.ingress = FramedIngress(self.host).start_in_thread()
        self.proxy = ChaosTcpProxy(f"{self.ingress.host}:{self.ingress.port}").start()
        self.fleet = RemoteReplicaFleet(
            [self.proxy.address],
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

    def lose(self):
        self.proxy.set_blackhole(True)
        self.proxy.drop_connections()

    def heal(self):
        self.proxy.set_blackhole(False)

    def close(self):
        self.fleet.shutdown(drain=False)
        self.proxy.close()
        self.ingress.close()
        self.host.shutdown(drain=False)


POOLS = {"spawn": SpawnPool, "dial": DialPool}


def _submit_busy_work(fleet):
    """A big request that keeps the single worker busy, then small ones
    queued behind it — all still unanswered when the replica is lost."""
    work = list(generate_requests(1, 200_000, seed=32)) + list(
        generate_requests(5, 64, seed=31)
    )
    ids = [
        fleet.submit_request(SolveRequest.make(f, b, audit=audit))
        for f, b, audit in work
    ]
    return work, ids


def _wait_event(fleet, kind, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        found = [e for e in fleet.events() if e["event"] == kind]
        if found:
            return found[0]
        time.sleep(0.02)
    pytest.fail(f"timed out waiting for a {kind!r} event")


@pytest.mark.parametrize("kind", sorted(POOLS))
def test_parked_orphans_replay_once_when_the_slot_returns(kind):
    pool = POOLS[kind](restart_backoff=0.1)
    try:
        work, ids = _submit_busy_work(pool.fleet)
        pool.lose()
        parked = _wait_event(pool.fleet, "orphans_parked")
        assert sorted(parked["request_ids"]) == sorted(ids)
        assert parked["count"] == len(ids)
        pool.heal()
        responses = [pool.fleet.result(request_id, timeout=60.0) for request_id in ids]
        # Exactly once, under the original ids, with the right labels.
        assert [r.status for r in responses] == [JobStatus.DONE] * len(ids)
        assert [r.request_id for r in responses] == ids
        for (f, b, audit), response in zip(work, responses):
            assert np.array_equal(
                response.labels, coarsest_partition(f, b, audit=audit).labels
            )
        events = pool.fleet.events()
        assert any(e["event"] == pool.comeback for e in events)
        replayed = [e["request_id"] for e in events if e["event"] == "rehome" and e["ok"]]
        assert sorted(replayed) == sorted(ids)
    finally:
        pool.close()


@pytest.mark.parametrize("kind", sorted(POOLS))
def test_shutdown_cancels_every_parked_orphan(kind):
    # A restart backoff far longer than the test: the slot never returns.
    pool = POOLS[kind](restart_backoff=60.0)
    try:
        _, ids = _submit_busy_work(pool.fleet)
        pool.lose()
        parked = _wait_event(pool.fleet, "orphans_parked")
        assert sorted(parked["request_ids"]) == sorted(ids)
    finally:
        pool.close()
    responses = [pool.fleet.result(request_id, timeout=10.0) for request_id in ids]
    assert [r.status for r in responses] == [JobStatus.CANCELLED] * len(ids)
    assert [r.request_id for r in responses] == ids
