"""Tests for solve_batch sharding and the end-to-end no-audit fast path."""
import numpy as np
import pytest

from repro.graphs.generators import random_function, random_permutation, tree_heavy
from repro.partition import (
    coarsest_partition,
    jaja_ryu_partition,
    linear_partition,
    same_partition,
    solve_batch,
)
from repro.pram import Machine


def _mixed_batch(seed=0, sizes=(48, 37, 64, 21)):
    generators = [random_function, random_permutation, tree_heavy]
    return [
        generators[i % len(generators)](n, num_labels=2 + i % 3, seed=seed + i)
        for i, n in enumerate(sizes)
    ]


def test_solve_batch_matches_per_instance_runs():
    instances = _mixed_batch()
    batch = solve_batch(instances)
    assert len(batch) == len(instances)
    for (f, b), result in zip(instances, batch.results):
        reference = linear_partition(f, b)
        assert same_partition(result.labels, reference.labels)
        assert result.num_blocks == reference.num_blocks


def test_solve_batch_audit_false_same_labels():
    instances = _mixed_batch(seed=7)
    audited = solve_batch(instances, audit=True)
    fast = solve_batch(instances, audit=False)
    for a, f in zip(audited.results, fast.results):
        assert np.array_equal(a.labels, f.labels)
    # skipping the audit must not change the charged accounting
    assert audited.cost.time == fast.cost.time
    assert audited.cost.work == fast.cost.work


def test_jaja_ryu_audit_false_parity_on_mixed_workload():
    # acceptance criterion: the no-audit fast path produces identical
    # partition labels to the audited path on a mixed workload
    f, b = random_function(1024, num_labels=3, seed=0)
    audited = jaja_ryu_partition(f, b, audit=True)
    fast = jaja_ryu_partition(f, b, audit=False)
    assert np.array_equal(audited.labels, fast.labels)
    assert audited.num_blocks == fast.num_blocks
    assert audited.cost.time == fast.cost.time
    assert audited.cost.work == fast.cost.work
    assert audited.cost.charged_work == fast.cost.charged_work


@pytest.mark.parametrize("algorithm", ["jaja-ryu", "galley-iliopoulos", "srikant"])
def test_coarsest_partition_audit_flag_all_algorithms(algorithm):
    f, b = random_function(300, num_labels=3, seed=5)
    audited = coarsest_partition(f, b, algorithm=algorithm, audit=True)
    fast = coarsest_partition(f, b, algorithm=algorithm, audit=False)
    assert np.array_equal(audited.labels, fast.labels)


def test_packed_attribution_shares_work_and_time():
    instances = _mixed_batch(seed=4)
    batch = solve_batch(instances)
    total_n = sum(len(f) for f, _ in instances)
    # all instances ran concurrently: each sees the batch time
    times = {item.time for item in batch.per_instance}
    assert len(times) == 1
    # work shares are proportional to size and sum to ~the union's work
    assert abs(sum(item.work for item in batch.per_instance) - batch.cost.work) <= len(instances)
    for (f, _), item in zip(instances, batch.per_instance):
        assert item.n == len(f)


def test_solve_batch_shares_one_machine():
    instances = _mixed_batch(seed=9, sizes=(30, 41))
    machine = Machine.default()
    batch = solve_batch(instances, machine=machine)
    assert machine.work == batch.cost.work > 0
    rows = batch.as_rows()
    assert rows[0]["instance"] == 0 and rows[1]["instance"] == 1


def test_solve_batch_rejects_empty_batch():
    from repro.errors import BatchError

    # an empty batch is a scheduler bug and must fail loudly, not deep in
    # the packing code
    with pytest.raises(BatchError, match="empty batch"):
        solve_batch([])


def test_solve_batch_single_instance_degenerates_cleanly():
    f, b = random_function(40, num_labels=3, seed=2)
    batch = solve_batch([(f, b)])
    assert len(batch) == 1
    assert same_partition(batch.results[0].labels, linear_partition(f, b).labels)
    assert batch.per_instance[0].work == batch.cost.work


def test_batch_error_messages_diagnose_the_scheduler_bug():
    """BatchError messages are operator-facing diagnostics: they must say
    what the scheduler did wrong AND how to fix it — pin the exact text,
    not just the exception type."""
    from repro.errors import BatchError

    with pytest.raises(BatchError) as empty_info:
        solve_batch([])
    message = str(empty_info.value)
    assert "solve_batch received an empty batch" in message
    assert "a batcher must never dispatch zero instances" in message
    assert "coalesce first, then solve" in message

    with pytest.raises(BatchError) as mixed_info:
        solve_batch(_mixed_batch(), audit=[True, False])
    message = str(mixed_info.value)
    assert "batch mixes audit=True and audit=False instances" in message
    assert "a batch runs as one machine execution" in message
    assert "group requests by batch_compat_key() before coalescing" in message


def test_solve_batch_mixed_audit_flags_raise():
    from repro.errors import BatchError, ReproError

    instances = _mixed_batch(seed=6, sizes=(20, 25))
    with pytest.raises(ReproError, match="mixes audit"):
        solve_batch(instances, audit=[True, False])
    # uniform per-instance flags collapse to the scalar behaviour
    batch = solve_batch(instances, audit=[False, False])
    for (f, b), result in zip(instances, batch.results):
        assert same_partition(result.labels, linear_partition(f, b).labels)
    assert isinstance(BatchError("x"), ValueError)


def test_batch_compat_key_groups_requests():
    from repro.partition import batch_compat_key

    base = batch_compat_key("jaja-ryu", True)
    assert base == batch_compat_key("jaja-ryu", None)  # None normalises to audited
    assert base != batch_compat_key("jaja-ryu", False)
    assert base != batch_compat_key("hopcroft", True)
    assert (base.algorithm, base.audit, base.params) == ("jaja-ryu", True, ())
    assert batch_compat_key("jaja-ryu", True, params={"msp_algorithm": "simple"}) != base
    # keys are hashable and order-insensitive in their params
    assert batch_compat_key("jaja-ryu", True, params={"a": 1, "b": 2}) == batch_compat_key(
        "jaja-ryu", True, params={"b": 2, "a": 1}
    )


def test_solve_batch_accepts_instances_and_forwards_kwargs():
    from repro.partition import SFCPInstance

    pairs = _mixed_batch(seed=11, sizes=(25, 33))
    as_instances = [SFCPInstance.from_arrays(f, b) for f, b in pairs]
    batch = solve_batch(as_instances, algorithm="paige-tarjan-bonic")
    for (f, b), result in zip(pairs, batch.results):
        assert same_partition(result.labels, linear_partition(f, b).labels)


def test_batch_cost_is_delta_on_a_reused_machine():
    # a shared machine carries charges from earlier batches; BatchResult.cost
    # must report only this batch's delta
    machine = Machine.default()
    first = solve_batch(_mixed_batch(seed=1, sizes=(20, 30)), machine=machine)
    second = solve_batch(_mixed_batch(seed=2, sizes=(20, 30)), machine=machine)
    assert first.cost.work > 0 and second.cost.work > 0
    assert machine.work == first.cost.work + second.cost.work
