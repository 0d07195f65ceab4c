"""Tests for the ingress queue (backpressure, shed-on-deadline, priority)
and the micro-batcher (compat-key coalescing, size/delay caps)."""
import time

import pytest

from repro.errors import QueueFullError
from repro.graphs.generators import random_function
from repro.serving import IngressQueue, MicroBatcher, SolveRequest


def _request(n=16, seed=0, *, audit=True, algorithm="jaja-ryu", priority=0, timeout=None):
    f, b = random_function(n, num_labels=2, seed=seed)
    return SolveRequest.make(
        f, b, algorithm=algorithm, audit=audit, priority=priority, timeout=timeout
    )


# ----------------------------------------------------------------------
# IngressQueue
# ----------------------------------------------------------------------
def test_queue_nonblocking_put_raises_when_full():
    q = IngressQueue(capacity=2)
    q.put(_request(seed=1), block=False)
    q.put(_request(seed=2), block=False)
    with pytest.raises(QueueFullError, match="queue full"):
        q.put(_request(seed=3), block=False)
    assert q.rejected_count == 1
    assert len(q) == 2


def test_queue_blocking_put_times_out_under_backpressure():
    q = IngressQueue(capacity=1)
    q.put(_request(seed=1))
    start = time.monotonic()
    with pytest.raises(QueueFullError, match="backpressure"):
        q.put(_request(seed=2), timeout=0.05)
    assert time.monotonic() - start >= 0.04


def test_queue_put_sheds_expired_entries_to_make_room():
    shed = []
    q = IngressQueue(capacity=1, on_shed=shed.append)
    expired = _request(seed=1, timeout=0.0)  # dead on arrival
    q.put(expired, block=False)
    fresh = _request(seed=2)
    q.put(fresh, block=False)  # would be full, but the expired entry is shed
    assert [r.request_id for r in shed] == [expired.request_id]
    assert q.shed_count == 1
    taken = q.take(fresh.compat_key, 10)
    assert [r.request_id for r in taken] == [fresh.request_id]


def test_queue_head_key_sheds_and_times_out():
    shed = []
    q = IngressQueue(capacity=4, on_shed=shed.append)
    q.put(_request(seed=1, timeout=0.0), block=False)
    assert q.head_key(timeout=0.01) is None  # only entry was expired
    assert len(shed) == 1 and q.shed_count == 1


def test_queue_take_filters_by_compat_key_and_priority():
    q = IngressQueue(capacity=16)
    audited = [_request(seed=i, audit=True, priority=i) for i in range(3)]
    fast = [_request(seed=10 + i, audit=False) for i in range(2)]
    for r in audited + fast:
        q.put(r, block=False)
    key = audited[0].compat_key
    taken = q.take(key, max_items=10)
    # priority descending, and the unaudited requests stay queued
    assert [r.priority for r in taken] == [2, 1, 0]
    assert len(q) == 2
    assert all(r.compat_key == fast[0].compat_key for r in q.drain())


def test_queue_head_is_oldest_highest_priority():
    q = IngressQueue(capacity=8)
    low = _request(seed=1, priority=0)
    high_old = _request(seed=2, priority=5)
    high_new = _request(seed=3, priority=5)
    for r in (low, high_old, high_new):
        q.put(r, block=False)
    assert q.head_key() == high_old.compat_key
    taken = q.take(high_old.compat_key, 1)
    assert taken[0].request_id == high_old.request_id


# ----------------------------------------------------------------------
# MicroBatcher
# ----------------------------------------------------------------------
def test_flush_coalesces_by_compat_key_and_respects_size_cap():
    q = IngressQueue(capacity=64)
    batches = []
    batcher = MicroBatcher(q, batches.append, max_batch_size=4)
    for i in range(10):
        q.put(_request(seed=i, audit=True), block=False)
    for i in range(3):
        q.put(_request(seed=100 + i, audit=False), block=False)
    batcher.flush()  # synchronous: no delay window involved
    assert len(q) == 0
    sizes = sorted(len(b) for b in batches)
    # 10 audited -> 4+4+2, 3 unaudited -> 3; never mixed
    assert sizes == [2, 3, 4, 4]
    for batch in batches:
        assert len({r.compat_key for r in batch.requests}) == 1
        assert all(r.audit == batch.audit for r in batch.requests)
    assert batcher.stats.batches == 4
    assert batcher.stats.multi_request_batches == 4
    assert batcher.stats.max_occupancy == 4


def test_running_batcher_coalesces_within_delay_window():
    q = IngressQueue(capacity=64)
    batches = []
    batcher = MicroBatcher(q, batches.append, max_batch_size=8, max_batch_delay=0.2)
    batcher.start()
    try:
        for i in range(3):
            q.put(_request(seed=i), block=False)
            time.sleep(0.02)  # arrivals inside the same delay window
        deadline = time.monotonic() + 2.0
        while not batches and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        batcher.stop()
    assert len(batches) == 1
    assert len(batches[0]) == 3


def test_running_batcher_dispatches_full_batch_before_delay_expires():
    q = IngressQueue(capacity=64)
    batches = []
    batcher = MicroBatcher(q, batches.append, max_batch_size=2, max_batch_delay=10.0)
    batcher.start()
    try:
        q.put(_request(seed=1), block=False)
        q.put(_request(seed=2), block=False)
        deadline = time.monotonic() + 2.0
        while not batches and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        batcher.stop()
    # the 10s delay cap must not hold a full batch open
    assert batches and len(batches[0]) == 2


def test_closed_queue_rejects_blocked_and_new_puts():
    import threading

    from repro.errors import ServiceShutdownError

    q = IngressQueue(capacity=1)
    q.put(_request(seed=1), block=False)
    errors = []

    def blocked_put():
        try:
            q.put(_request(seed=2))  # blocks: queue full
        except ServiceShutdownError as exc:
            errors.append(exc)

    thread = threading.Thread(target=blocked_put)
    thread.start()
    time.sleep(0.05)  # let the put enter its backpressure wait
    q.close()
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert len(errors) == 1  # woken put must NOT sneak its entry in
    assert len(q) == 1
    with pytest.raises(ServiceShutdownError):
        q.put(_request(seed=3), block=False)


def test_stop_aborts_open_delay_window_promptly():
    q = IngressQueue(capacity=8)
    batches = []
    batcher = MicroBatcher(q, batches.append, max_batch_size=8, max_batch_delay=30.0)
    batcher.start()
    q.put(_request(seed=1), block=False)
    time.sleep(0.2)  # batcher has claimed it and is holding the batch open
    start = time.monotonic()
    batcher.stop()  # must not wait out the 30s window
    assert time.monotonic() - start < 5.0
    assert batches and len(batches[0]) == 1


def test_batch_member_expiring_in_open_window_is_shed_not_solved():
    shed = []
    q = IngressQueue(capacity=8, on_shed=shed.append)
    batches = []
    batcher = MicroBatcher(q, batches.append, max_batch_size=8, max_batch_delay=0.3)
    batcher.start()
    try:
        doomed = _request(seed=1, timeout=0.05)  # expires inside the window
        q.put(doomed, block=False)
        deadline = time.monotonic() + 5.0
        while not shed and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        batcher.stop()
    assert [r.request_id for r in shed] == [doomed.request_id]
    assert q.shed_count == 1
    assert batches == []  # nothing left to solve


# ----------------------------------------------------------------------
# regression pins: backpressure + shed ordering, shutdown drain races
# (previously only exercised indirectly through SolveService)
# ----------------------------------------------------------------------
def test_blocked_put_admitted_after_inqueue_deadline_expiry():
    """Backpressure + shed-on-deadline ordering: a put blocked on a full
    queue must be admitted as soon as the occupying entry's deadline
    elapses — and the shed callback must fire BEFORE the admission, so an
    observer never sees capacity+1 live entries."""
    import threading

    events = []
    q = IngressQueue(capacity=1, on_shed=lambda r: events.append(("shed", r.request_id)))
    doomed = _request(seed=1, timeout=0.15)  # expires while occupying the queue
    q.put(doomed, block=False)
    fresh = _request(seed=2)

    def blocked_put():
        q.put(fresh)  # blocks: queue full until `doomed` expires
        events.append(("admitted", fresh.request_id))

    thread = threading.Thread(target=blocked_put)
    start = time.monotonic()
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive(), "blocked put never admitted after expiry"
    # ordering: shed first, then admission; and it happened at the expiry,
    # not after some unrelated timeout
    assert events == [("shed", doomed.request_id), ("admitted", fresh.request_id)]
    assert 0.1 <= time.monotonic() - start < 5.0
    assert q.shed_count == 1
    taken = q.take(fresh.compat_key, 10)
    assert [r.request_id for r in taken] == [fresh.request_id]


def test_expired_entries_shed_in_insertion_order_and_skipped_by_claims():
    shed = []
    q = IngressQueue(capacity=8, on_shed=shed.append)
    expired = [_request(seed=i, timeout=0.0, priority=5 - i) for i in range(3)]
    live = [_request(seed=10 + i, priority=i) for i in range(2)]
    for r in expired + live:
        q.put(r, block=False)
    key = live[0].compat_key
    assert q.head_key(timeout=0) == key
    taken = q.take(key, 10)
    # claims see only live entries, in priority order; sheds report in
    # insertion order regardless of priority
    assert [r.request_id for r in taken] == [live[1].request_id, live[0].request_id]
    assert [r.request_id for r in shed] == [r.request_id for r in expired]


def test_empty_queue_drain_race_on_shutdown():
    """Shutdown with an empty queue must not hang or dispatch anything:
    close() + stop(flush=True) while the batcher idles in head_key."""
    q = IngressQueue(capacity=4)
    batches = []
    batcher = MicroBatcher(q, batches.append, max_batch_size=4, poll_interval=10.0)
    batcher.start()
    time.sleep(0.1)  # batcher is parked inside head_key(timeout=10)
    start = time.monotonic()
    q.close()
    batcher.stop(flush=True)  # flush on a closed empty queue: clean no-op
    assert time.monotonic() - start < 5.0, "empty-queue drain hung on shutdown"
    assert not batcher.running
    assert batches == []
    from repro.errors import ServiceShutdownError

    with pytest.raises(ServiceShutdownError, match="closed"):
        q.put(_request(seed=1), block=False)


def test_service_shutdown_with_empty_queue_returns_promptly():
    from repro.serving import SolveService

    svc = SolveService(workers=1)
    start = time.monotonic()
    svc.shutdown(drain=True, timeout=10)  # nothing in flight: the drain
    assert time.monotonic() - start < 5.0  # must observe inflight==0, not wait


def test_drain_wakes_blocked_put():
    import threading

    q = IngressQueue(capacity=1)
    q.put(_request(seed=1), block=False)
    admitted = threading.Event()

    def blocked_put():
        q.put(_request(seed=2))
        admitted.set()

    thread = threading.Thread(target=blocked_put)
    thread.start()
    time.sleep(0.05)
    drained = q.drain()  # empties the queue -> space -> blocked put admitted
    assert len(drained) == 1
    assert admitted.wait(timeout=5), "drain did not wake the blocked put"
    thread.join(timeout=5)
    assert len(q) == 1


def test_batch_exposes_key_fields():
    q = IngressQueue(capacity=4)
    batches = []
    batcher = MicroBatcher(q, batches.append, max_batch_size=4)
    q.put(_request(seed=1, audit=False), block=False)
    batcher.flush()
    (batch,) = batches
    assert batch.algorithm == "jaja-ryu"
    assert batch.audit is False
    assert batch.params == {}
