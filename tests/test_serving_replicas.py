"""Unit tests for the ReplicaSet router: compat-key affinity placement,
least-loaded spill, health-gated ejection/restore, drain semantics, and
aggregate metrics — the in-process half of what the transport conformance
suite exercises over the wire."""

import threading

import pytest

from repro.errors import (
    ReplicaUnavailableError,
    ServiceError,
    ServiceShutdownError,
)
from repro.graphs.generators import random_function
from repro.partition import coarsest_partition, same_partition
from repro.serving import JobStatus, ReplicaSet, SolveRequest


def _request(n=32, seed=0, *, audit=True, algorithm="jaja-ryu", timeout=None):
    f, b = random_function(n, num_labels=2, seed=seed)
    return SolveRequest.make(f, b, algorithm=algorithm, audit=audit, timeout=timeout)


@pytest.fixture
def replica_set():
    rs = ReplicaSet(3, workers=1, max_batch_delay=0.001)
    try:
        yield rs
    finally:
        rs.shutdown()


def test_solve_matches_direct_and_routes_are_cleaned_up(replica_set):
    f, b = random_function(64, num_labels=3, seed=1)
    response = replica_set.solve(f, b)
    assert response.status is JobStatus.DONE
    assert same_partition(response.labels, coarsest_partition(f, b).labels)
    # the routing entry is popped on collection: a second result() raises
    with pytest.raises(KeyError, match="unknown or already-collected"):
        replica_set.result(response.request_id)


def test_compat_key_affinity_lands_same_key_on_same_replica(replica_set):
    """Coalescable requests (equal compat key) must share a replica, so
    the micro-batcher there actually gets to coalesce them."""
    ids = [replica_set.submit_request(_request(seed=i, audit=True)) for i in range(8)]
    routed = [r["routed"] for r in replica_set.replica_rows()]
    assert sorted(routed) == [0, 0, 8]  # all eight on one replica
    for request_id in ids:
        assert replica_set.result(request_id, timeout=60).status is JobStatus.DONE


def test_different_compat_keys_may_spread_but_each_sticks(replica_set):
    keys = [
        dict(audit=True), dict(audit=False), dict(algorithm="hopcroft"),
    ]
    for _round in range(3):
        for seed, kw in enumerate(keys):
            request = _request(seed=seed, **kw)
            replica_set.result(
                replica_set.submit_request(request), timeout=60
            )
    rows = replica_set.replica_rows()
    # every key routed consistently: totals are multiples of the round count
    assert sum(r["routed"] for r in rows) == 9
    assert all(r["routed"] % 3 == 0 for r in rows)


def test_ejected_replica_gets_no_new_work_and_failover_is_consistent(replica_set):
    request = _request(seed=3)
    home = next(
        r for r in replica_set._rendezvous_order(
            request.compat_key, replica_set._replicas
        )
    ).replica_id
    replica_set.eject(home, drain=False)
    ids = [replica_set.submit_request(_request(seed=3 + i)) for i in range(4)]
    rows = replica_set.replica_rows()
    assert rows[home]["routed"] == 0
    # rendezvous failover: all four land together on the *same* new home
    assert sorted(r["routed"] for r in rows) == [0, 0, 4]
    for request_id in ids:
        assert replica_set.result(request_id, timeout=60).status is JobStatus.DONE


def test_eject_with_drain_completes_accepted_work(replica_set):
    ids = [replica_set.submit_request(_request(seed=i)) for i in range(6)]
    victim = max(
        enumerate(replica_set.replica_rows()), key=lambda r: r[1]["routed"]
    )[0]
    replica_set.eject(victim, drain=True)  # accepted work must still finish
    responses = [replica_set.result(request_id, timeout=60) for request_id in ids]
    assert [r.status for r in responses] == [JobStatus.DONE] * 6
    assert len({r.request_id for r in responses}) == 6  # exactly one bill each
    # drained replica is gone for good: restore refuses
    with pytest.raises(ServiceError, match="cannot be restored"):
        replica_set.restore(victim)


def test_restore_after_transient_ejection(replica_set):
    replica_set.eject(0, drain=False)
    assert replica_set.replica_rows()[0]["ejected"] is True
    replica_set.restore(0)
    row = replica_set.replica_rows()[0]
    assert row["ejected"] is False and row["healthy"] is True


def test_unknown_replica_id_raises_keyerror(replica_set):
    with pytest.raises(KeyError, match="unknown replica"):
        replica_set.eject(7)
    with pytest.raises(KeyError, match="unknown replica"):
        replica_set.restore(-1)


def test_all_replicas_ejected_raises_replica_unavailable(replica_set):
    for replica_id in range(3):
        replica_set.eject(replica_id, drain=False)
    with pytest.raises(ReplicaUnavailableError, match="no replica is accepting"):
        replica_set.submit_request(_request())
    replica_set.restore(1)  # service recovers as soon as one comes back
    request_id = replica_set.submit_request(_request())
    assert replica_set.result(request_id, timeout=60).status is JobStatus.DONE


def test_queue_full_spills_to_another_replica():
    """A replica that rejects admission is skipped, not fatal: the request
    spills to the next candidate and consecutive rejects mark the replica
    unhealthy (health-gated ejection)."""
    import time as _time

    rs = ReplicaSet(
        2,
        workers=1,
        max_batch_size=8,
        max_batch_delay=1.0,       # hold the first batch open: queue backs up
        queue_capacity=1,
        auto_eject_after=2,
    )
    try:
        primary = _request(seed=0, algorithm="jaja-ryu")
        home = rs._rendezvous_order(primary.compat_key, rs._replicas)[0].replica_id
        other = 1 - home
        # A second compat key whose rendezvous home is the SAME replica:
        # its requests queue behind the open window instead of being
        # absorbed into it, which is what fills the capacity-1 queue.
        other_algorithm = next(
            a for a in ("hopcroft", "naive", "srikant", "galley-iliopoulos",
                        "naive-parallel", "paige-tarjan-bonic")
            if rs._rendezvous_order(
                _request(seed=0, algorithm=a).compat_key, rs._replicas
            )[0].replica_id == home
        )
        first = rs.submit_request(primary)
        _time.sleep(0.15)  # batcher claims it and opens the delay window
        second = rs.submit_request(_request(seed=1, algorithm=other_algorithm))
        spilled = []
        for i in range(2):
            spilled.append(
                rs.submit_request(_request(seed=2 + i, algorithm=other_algorithm))
            )
            _time.sleep(0.15)  # let the other replica's batcher claim it
        rows = rs.replica_rows()
        assert rows[other]["routed"] == 2  # both spilled off the full home
        assert rows[home]["routed"] == 2
        # two consecutive rejects tripped the health gate
        assert rows[home]["healthy"] is False
        for request_id in [first, second] + spilled:
            assert rs.result(request_id, timeout=60).status is JobStatus.DONE
    finally:
        rs.shutdown()


def test_unhealthy_replica_recovers_via_successful_probe(replica_set):
    """An auto-marked-unhealthy replica is demoted, not abandoned: when it
    is the only candidate left, a successful admission restores it."""
    replica_set._replicas[0].healthy = False  # as _note_reject would set it
    replica_set.eject(1, drain=False)
    replica_set.eject(2, drain=False)
    request_id = replica_set.submit_request(_request(seed=5))
    assert replica_set.result(request_id, timeout=60).status is JobStatus.DONE
    row = replica_set.replica_rows()[0]
    assert row["healthy"] is True and row["routed"] == 1


def test_aggregate_metrics_sum_counters_and_merge_workers(replica_set):
    for i in range(6):
        replica_set.result(
            replica_set.submit_request(_request(seed=i, audit=bool(i % 2))),
            timeout=60,
        )
    metrics = replica_set.metrics()
    assert metrics.submitted == metrics.completed == 6
    assert metrics.failed == 0
    assert metrics.pram.charged_work > 0
    # per-replica worker rows ride along, tagged with their replica id
    assert {row["replica"] for row in metrics.workers} == {0, 1, 2}
    prometheus = metrics.as_prometheus()
    assert "repro_serving_completed_total 6" in prometheus


def test_shutdown_without_drain_cancels_and_set_stops_accepting():
    rs = ReplicaSet(2, workers=1, max_batch_size=64, max_batch_delay=30.0)
    ids = [rs.submit_request(_request(seed=i)) for i in range(4)]
    collected = []
    for request_id in ids:
        rs.on_response(request_id, collected.append)
    rs.shutdown(drain=False)
    assert rs.accepting is False
    with pytest.raises((ServiceShutdownError, ReplicaUnavailableError)):
        rs.submit_request(_request(seed=9))
    # every accepted request resolved with a definite status, none hang
    assert len(collected) == 4
    assert all(
        r.status in (JobStatus.DONE, JobStatus.CANCELLED) for r in collected
    )


def test_no_deadlock_between_observability_reads_and_shed_callbacks():
    """Regression: replica_rows()/metrics() must never hold the set lock
    while reading per-service state.  The shed-callback chain runs under a
    replica's queue lock and ends in the set lock (on_response cleanup),
    so the old set-lock -> queue-lock ordering deadlocked the front end
    whenever an observability read raced a deadline shed."""
    rs = ReplicaSet(2, workers=1, max_batch_delay=0.05)
    stop = threading.Event()

    def hammer_observability():
        while not stop.is_set():
            rs.replica_rows()
            rs.metrics()
            _ = rs.inflight, rs.queue_depth, rs.accepting

    hammer = threading.Thread(target=hammer_observability, daemon=True)
    hammer.start()
    try:
        responses = []
        for i in range(24):
            # dead-on-arrival requests exercise the shed path under load
            request = _request(seed=i, timeout=0.0 if i % 2 else None)
            request_id = rs.submit_request(request)
            rs.on_response(request_id, responses.append)
        deadline = 30
        import time as _time

        end = _time.monotonic() + deadline
        while len(responses) < 24 and _time.monotonic() < end:
            _time.sleep(0.01)
        assert len(responses) == 24, (
            f"only {len(responses)}/24 responses arrived - deadlock?"
        )
        assert all(
            r.status in (JobStatus.DONE, JobStatus.SHED) for r in responses
        )
    finally:
        stop.set()
        hammer.join(timeout=10)
        rs.shutdown()
    assert not hammer.is_alive()


def test_concurrent_submitters_never_lose_or_double_collect(replica_set):
    per_thread = 5
    results = []
    lock = threading.Lock()

    def submitter(base):
        for i in range(per_thread):
            response = replica_set.solve(
                *random_function(48, num_labels=2, seed=base + i)
            )
            with lock:
                results.append(response)

    threads = [threading.Thread(target=submitter, args=(100 * t,)) for t in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert len(results) == 4 * per_thread
    assert len({r.request_id for r in results}) == 4 * per_thread
    assert all(r.status is JobStatus.DONE for r in results)
