"""Property-based fuzzing of MicroBatcher coalescing.

The batcher's contract, under *any* mix of compat keys, priorities, and
deadlines:

1. a dispatched batch never mixes incompatible requests (one compat key
   per batch, size within ``max_batch_size``);
2. every admitted request is accounted for **exactly once** — it appears
   in exactly one dispatched batch or is shed, never both, never twice,
   never dropped;
3. every dispatched batch, when solved, bills each member exactly one
   ``BatchItemReport`` share (the zip in ``SolveService._complete`` relies
   on ``len(result.per_instance) == len(batch.requests)``);
4. expired requests are shed, not solved late;
5. within a batch, requests come out in claim order — priority descending,
   earliest deadline first within a class (deadline-less last), FIFO for
   equal-priority equal-deadline entries — matching the queue's contract.

The queue's *shed-order contract* (who gets displaced when a full queue
admits a higher-priority request) is fuzzed here too: lowest priority
class first; most slack first within a class (deadline-less before late
deadlines before early ones); equal-priority equal-deadline sheds in
insertion order.  That tiebreak used to be an accident of implementation —
it is now pinned as documented behaviour.
"""

import math
from collections import Counter

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.partition import solve_batch
from repro.serving import IngressQueue, MicroBatcher, SolveRequest

# Key space: distinct (algorithm, audit) pairs — exactly the axes
# batch_compat_key separates (params ride through the same mechanism).
_KEYS = (("jaja-ryu", True), ("jaja-ryu", False), ("hopcroft", True))

#: One tiny shared SFCP instance; the batcher never looks at the arrays.
_FUNCTION = np.array([1, 2, 3, 0])
_LABELS = np.array([0, 1, 0, 1])

_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(_KEYS) - 1),  # compat key
        st.integers(min_value=-2, max_value=2),              # priority
        st.sampled_from(["none", "live", "expired"]),        # deadline state
    ),
    min_size=1,
    max_size=24,
)


def _build(spec):
    key_index, priority, deadline_state = spec
    algorithm, audit = _KEYS[key_index]
    timeout = {"none": None, "live": 300.0, "expired": 0.0}[deadline_state]
    return SolveRequest.make(
        _FUNCTION, _LABELS,
        algorithm=algorithm, audit=audit, priority=priority, timeout=timeout,
    )


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(specs=_specs, max_batch_size=st.integers(min_value=1, max_value=8))
def test_batcher_never_mixes_keys_and_accounts_every_request_once(specs, max_batch_size):
    requests = [_build(spec) for spec in specs]
    expired_ids = {
        r.request_id for r, (_, _, state) in zip(requests, specs) if state == "expired"
    }
    shed = []
    batches = []
    # Brown-out is the admission layer's concern; these properties are about
    # coalescing, so admit every class regardless of occupancy.
    queue = IngressQueue(
        capacity=len(requests) + 1, on_shed=shed.append, brownout_thresholds=None
    )
    batcher = MicroBatcher(queue, batches.append, max_batch_size=max_batch_size)
    for request in requests:
        queue.put(request, block=False)
    batcher.flush()  # synchronous: no delay window, no thread

    # (1) no batch mixes incompatible requests, none exceeds the size cap
    for batch in batches:
        assert len(batch) <= max_batch_size
        assert {r.compat_key for r in batch.requests} == {batch.key}
        assert all(r.algorithm == batch.algorithm for r in batch.requests)
        assert all(r.audit == batch.audit for r in batch.requests)

    # (2) exactly-once accounting: dispatched + shed == admitted, no overlap
    dispatched_ids = Counter(
        r.request_id for batch in batches for r in batch.requests
    )
    shed_ids = Counter(r.request_id for r in shed)
    assert all(count == 1 for count in dispatched_ids.values())
    assert all(count == 1 for count in shed_ids.values())
    assert not set(dispatched_ids) & set(shed_ids)
    assert set(dispatched_ids) | set(shed_ids) == {r.request_id for r in requests}
    assert queue.shed_count == len(shed)
    assert len(queue) == 0

    # (4) dead-on-arrival requests are shed, never dispatched
    assert expired_ids <= set(shed_ids)

    # (5) claim order within each batch: priority descending, EDF within a
    # class (deadline-less last), FIFO on exact ties.  Request ids are
    # allocation-ordered, so they encode insertion order.
    for batch in batches:
        keys = [
            (
                -r.priority,
                math.inf if r.deadline is None else r.deadline,
                r.request_id,
            )
            for r in batch.requests
        ]
        assert keys == sorted(keys)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(specs=_specs, max_batch_size=st.integers(min_value=1, max_value=8))
def test_every_dispatched_batch_bills_exactly_one_share_per_member(specs, max_batch_size):
    """(3): solving any batch the batcher forms yields exactly one
    BatchItemReport per member — the invariant the service's response
    billing zip depends on."""
    requests = [_build(spec) for spec in specs]
    batches = []
    queue = IngressQueue(
        capacity=len(requests) + 1,
        on_shed=lambda r: None,
        brownout_thresholds=None,
    )
    batcher = MicroBatcher(queue, batches.append, max_batch_size=max_batch_size)
    for request in requests:
        queue.put(request, block=False)
    batcher.flush()
    for batch in batches:
        result = solve_batch(
            [r.instance for r in batch.requests],
            algorithm=batch.algorithm,
            audit=batch.audit,
            **batch.params,
        )
        assert len(result.per_instance) == len(batch.requests)
        assert len(result.results) == len(batch.requests)
        # shares cover the whole batch ledger up to per-member rounding
        # (packed attribution rounds each proportional share independently)
        assert abs(
            sum(item.work for item in result.per_instance) - result.cost.work
        ) <= len(batch.requests)


# ----------------------------------------------------------------------
# Queue ordering contracts (EDF claim order + pinned shed order)
# ----------------------------------------------------------------------

#: (priority, deadline slot) — slot None = deadline-less, else an absolute
#: deadline offset; duplicates exercise the insertion-order tiebreak.
_ordering_specs = st.lists(
    st.tuples(
        st.integers(min_value=-2, max_value=2),
        st.sampled_from([None, 100.0, 200.0, 300.0]),
    ),
    min_size=1,
    max_size=16,
)

_FAKE_NOW = 50.0  # fake clock instant; every finite deadline above is live


def _queued(specs, capacity):
    """Build a brown-out-free fake-clock queue holding one request per spec,
    with deterministic deadlines (request ids encode insertion order)."""
    queue = IngressQueue(
        capacity=capacity,
        on_shed=lambda r: None,
        brownout_thresholds=None,
        clock=lambda: _FAKE_NOW,
    )
    requests = []
    for priority, deadline in specs:
        request = SolveRequest.make(
            _FUNCTION, _LABELS, algorithm="jaja-ryu", audit=True, priority=priority
        )
        request.deadline = deadline
        requests.append(request)
        queue.put(request, block=False)
    return queue, requests


def _claim_key(request):
    deadline = math.inf if request.deadline is None else request.deadline
    return (-request.priority, deadline, request.request_id)


def _shed_contract_key(request):
    slack = math.inf if request.deadline is None else request.deadline
    return (request.priority, -slack, request.request_id)


@settings(max_examples=80, deadline=None)
@given(specs=_ordering_specs)
def test_queue_claims_in_priority_then_edf_then_insertion_order(specs):
    """Claim contract: take() drains priority descending, earliest deadline
    first within a class, insertion order on exact ties."""
    queue, requests = _queued(specs, capacity=len(specs))
    key = requests[0].compat_key
    claimed = queue.take(key, len(requests))
    assert [r.request_id for r in claimed] == [
        r.request_id for r in sorted(requests, key=_claim_key)
    ]


@settings(max_examples=80, deadline=None)
@given(specs=_ordering_specs, extra_priority=st.integers(min_value=-2, max_value=3))
def test_full_queue_displacement_follows_pinned_shed_order(specs, extra_priority):
    """Shed contract: when a full queue admits a strictly-higher-priority
    request, the displaced victim is the minimum under
    (priority asc, slack desc, insertion order) — and equal-priority
    arrivals never displace (they get plain backpressure)."""
    from repro.errors import QueueFullError

    shed = []
    queue, requests = _queued(specs, capacity=len(specs))
    queue._on_shed = shed.append
    incoming = SolveRequest.make(
        _FUNCTION, _LABELS, algorithm="jaja-ryu", audit=True, priority=extra_priority
    )
    lowest = min(r.priority for r in requests)
    if extra_priority > lowest:
        queue.put(incoming, block=False)
        assert len(shed) == 1
        expected_victim = min(requests, key=_shed_contract_key)
        assert shed[0].request_id == expected_victim.request_id
        assert queue.shed_count == 1
    else:
        try:
            queue.put(incoming, block=False)
        except QueueFullError:
            pass
        else:
            raise AssertionError("equal/lower-priority put must not displace")
        assert shed == []
        assert queue.rejected_count == 1
